"""Adam optimizer with bias correction.

The state re-bases every parameter onto one contiguous buffer so the
moment updates run as a handful of whole-vector ufuncs instead of ten
small ones per parameter. Parameters keep their shapes; their ``.data``
arrays become views into the shared buffer. Two preallocated work buffers
take every intermediate, so a step allocates nothing of parameter size.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeMismatch, Tensor


class AdamState:
    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0

        sizes = [p.data.size for p in self.params]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        self._flat = np.concatenate(
            [p.data.ravel() for p in self.params]) if self.params else np.zeros(0)
        for p, lo, hi in zip(self.params, self._offsets[:-1], self._offsets[1:]):
            p.data = self._flat[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._g = np.zeros_like(self._flat)
        self._w1 = np.empty_like(self._flat)
        self._w2 = np.empty_like(self._flat)


def adam_step(state: AdamState, grads: dict[Tensor, np.ndarray]) -> list[Tensor]:
    """One Adam update in place; parameters absent from ``grads`` see a
    zero gradient."""
    state.step += 1
    g = state._g
    g[:] = 0.0
    for p, lo, hi in zip(state.params, state._offsets[:-1], state._offsets[1:]):
        pg = grads.get(p)
        if pg is None:
            continue
        if pg.shape != p.data.shape:
            raise ShapeMismatch(f"gradient {pg.shape} for parameter {p.data.shape}")
        g[lo:hi] = pg.ravel()

    # flat -= lr * m_hat / (sqrt(v_hat) + eps), with each product and
    # quotient taken in the order that expression takes them
    b1, b2 = state.beta1, state.beta2
    m, v, w1, w2 = state.m, state.v, state._w1, state._w2
    m *= b1
    np.multiply(g, 1.0 - b1, out=w1)
    m += w1
    v *= b2
    np.multiply(g, g, out=w1)
    w1 *= 1.0 - b2
    v += w1
    np.divide(m, 1.0 - b1 ** state.step, out=w1)    # m_hat
    np.divide(v, 1.0 - b2 ** state.step, out=w2)    # v_hat
    w1 *= state.lr
    np.sqrt(w2, out=w2)
    w2 += state.eps
    w1 /= w2
    state._flat -= w1
    return state.params
