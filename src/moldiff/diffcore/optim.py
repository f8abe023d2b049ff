"""Adam with bias correction at Kingma & Ba's constants (arXiv:1412.6980),
``BETA1``, ``BETA2`` and ``EPS``; a state sets only its learning rate.

The state re-bases every parameter onto one contiguous buffer so the
moment updates run as a handful of whole-vector ufuncs instead of ten
small ones per parameter. Parameters keep their shapes; their ``.data``
arrays become views into the shared buffer. Two preallocated work buffers
take every intermediate, so a step allocates nothing of parameter size.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeMismatch, Tensor

# decay of the first and second moment averages, and the denominator's floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    def __init__(self, params: list[Tensor], lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.step = 0

        sizes = [p.data.size for p in self.params]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        self._flat = np.concatenate(
            [p.data.ravel() for p in self.params]) if self.params else np.zeros(0)
        for p, lo, hi in zip(self.params, offsets[:-1], offsets[1:]):
            p.data = self._flat[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self._flat)
        self.v = np.zeros_like(self._flat)
        self._g = np.zeros_like(self._flat)
        self._w1 = np.empty_like(self._flat)
        self._w2 = np.empty_like(self._flat)


def adam_step(state: AdamState, grads: dict[Tensor, np.ndarray]) -> list[Tensor]:
    """One Adam update in place; parameters absent from ``grads`` see a
    zero gradient. One concatenate gathers the gradients into the flat
    buffer."""
    state.step += 1
    g = state._g
    pgs = [grads.get(p) for p in state.params]
    for p, pg in zip(state.params, pgs):
        if pg is not None and pg.shape != p.data.shape:
            raise ShapeMismatch(f"gradient {pg.shape} for parameter {p.data.shape}")
    if pgs:    # np.concatenate refuses an empty list
        np.concatenate([np.zeros(p.data.size) if pg is None else pg.ravel()
                        for p, pg in zip(state.params, pgs)], out=g)

    # flat -= lr * m_hat / (sqrt(v_hat) + eps), with each product and
    # quotient taken in the order that expression takes them
    b1, b2 = BETA1, BETA2
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
    w2 += EPS
    w1 /= w2
    state._flat -= w1
    return state.params
