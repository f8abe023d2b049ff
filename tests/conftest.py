"""Shared fixtures and the central finite-difference gradient checker."""

from __future__ import annotations

import numpy as np
import pytest

from moldiff.diffcore import Tape, backward
from moldiff.diffcore import tensor as T
from moldiff.harness import synthetic_dataset


def fd_gradcheck(build, params, h: float = 1e-6, floor: float = 1e-6) -> float:
    """Worst relative error between tape gradients and central differences.

    ``build`` must reconstruct the scalar loss from scratch on every call.
    ``floor`` keeps the relative error meaningful when both sides are
    essentially zero (central differences bottom out near 1e-10 from float
    cancellation).
    """
    with Tape() as tape:
        loss = build()
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        g = grads.get(p)
        if g is None:
            continue
        flat = p.data.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            lp = float(build().data)
            flat[k] = old - h
            lm = float(build().data)
            flat[k] = old
            num = (lp - lm) / (2.0 * h)
            rel = abs(num - gflat[k]) / max(abs(num), abs(gflat[k]), floor)
            worst = max(worst, rel)
    return worst


def assert_close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-12) -> None:
    """got is want to within rtol of want's largest finite magnitude, with
    NaN exactly where want has NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    err = np.max(np.abs(got[~nan] - want[~nan]), initial=0.0)
    assert err <= rtol * np.max(np.abs(want[~nan]), initial=0.0)


def seeded_sum(out, g=None):
    """sum(out * g) as one tape node: backward from it hands ``g`` (an array
    or a constant tensor; ones when None) to ``out`` as its gradient."""
    g = np.ones(out.data.shape) if g is None else getattr(g, "data", g)
    total = T.Tensor((out.data * g).sum())
    if T._recording(out):
        T._record(total, ((out, lambda s: s * g),))
    return total


def general_pair_logits(mlp, h, e):
    """``gnn.symmetric_pair_logits`` from general ops: two ``gather_rows``,
    a ``concat``, the MLP, two ``narrow``, an ``add`` and a ``mul``."""
    both = mlp(T.concat([T.gather_rows(h, e.src_plan), T.gather_rows(h, e.dst_plan)], axis=-1))
    p = len(e) // 2
    return T.mul(T.add(T.narrow(both, -2, 0, p), T.narrow(both, -2, p, p)), 0.5)


def mean_only(width: int) -> list:
    """A one-layer ``relu_stack`` whose output is the neighbour mean: a
    zero self weight, the identity on the neighbour path, no bias."""
    return [(T.tensor(np.zeros((width, width))), T.tensor(np.eye(width)),
             T.tensor(np.zeros(width)))]


def _complete_mean(a: np.ndarray) -> np.ndarray:
    """Each row's mean over the other rows, zeros for one row: the column
    sum less the row, over n - 1. The map is symmetric, so it is also its
    own backward."""
    n = a.shape[0]
    if n == 1:
        return np.zeros_like(a)
    return (np.add.reduce(a, axis=0) - a) / (n - 1)


def _complete_mean_node(x):
    """The closed-form neighbour mean as a tape node of its own."""
    out = T.Tensor(_complete_mean(x.data))
    if T._recording(x):
        T._record(out, ((x, _complete_mean),))
    return out


def per_layer_stack(x, layers, prop=None):
    """``T.relu_stack(x, layers, prop)`` from separate nodes: per layer, a
    ``T.matmul`` node by ``prop`` on a ``prop`` stack, the complete-graph
    mean node when the layer has ``Wn``, one or two ``affine`` nodes and a
    ``relu``. The reference computes the mean itself and does not fold it
    into the weights. Same arithmetic as ``relu_stack`` on dense and
    ``prop`` stacks and on one row, so the same bits there; on
    complete-graph layers over more rows the two agree to rounding."""
    for i, (w, wn, b) in enumerate(layers):
        if prop is not None:
            x = T.affine(T.matmul(T.tensor(prop), x), w, b)
        elif wn is None:
            x = T.affine(x, w, b)
        else:
            x = T.affine(x, w, T.affine(_complete_mean_node(x), wn, b))
        if i < len(layers) - 1:
            x = T.relu(x)
    return x


def ancestral_generate(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """DDPM sampling by the ancestral chain over every trained step: the
    posterior mean from the predicted noise, plus the posterior standard
    deviation times a fresh draw on every step but the last. The strided
    sampler at stride 1 matches it to rounding."""
    sched = model.sched
    prev = np.concatenate([[1.0], sched.alpha_bar[:-1]])
    sigma2 = sched.beta * (1.0 - prev) / (1.0 - sched.alpha_bar)
    x = rng.standard_normal((n, model.width))
    for t in range(sched.steps, 0, -1):
        z = model.restorer.predict_noise(T.tensor(x), t, sched.steps).data
        beta, ab = sched.beta[t - 1], sched.alpha_bar[t - 1]
        x = np.sqrt(1.0 / (1.0 - beta)) * (x - beta * z / np.sqrt(1.0 - ab))
        if t > 1:
            x = x + np.sqrt(sigma2[t - 1]) * rng.standard_normal(x.shape)
    return x


@pytest.fixture(scope="session")
def corpus():
    """Session-wide synthetic molecule dataset."""
    return synthetic_dataset(400, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
