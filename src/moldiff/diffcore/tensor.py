"""Dense float64 tensors with taped reverse-mode differentiation.

Operations executed inside a ``with Tape() as tape:`` block append local
backward rules to the tape; ``backward(tape, loss)`` replays the rules in
reverse construction order, which is already a valid topological order.
Outside a tape every operation is a plain numpy computation with no
recording overhead, so inference costs nothing extra.

Only tensors that are trainable, or derived from something trainable, get
recorded. Targets and other constants pass through for free.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class LossNotScalar(ValueError):
    """backward() was handed a loss that is not a 0-dimensional tensor."""


class DetachedLoss(ValueError):
    """backward() was handed a loss that was not produced on the tape."""


class ShapeMismatch(ValueError):
    """Operand shapes do not line up for the requested operation."""


class EmptyInput(ValueError):
    """Operation requires at least one element."""


class Tensor:
    """A shaped float64 array, optionally a trainable leaf."""

    __slots__ = ("data", "trainable", "grad", "name")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.trainable = trainable
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def tensor(data) -> Tensor:
    """Wrap an array-like as a constant tensor."""
    return Tensor(data)


def param(data, name: str | None = None) -> Tensor:
    """Wrap an array-like as a trainable leaf."""
    return Tensor(data, trainable=True, name=name)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Append-only record of operations for one backward pass."""

    __slots__ = ("_nodes", "_ids")

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple]] = []
        self._ids: set[int] = set()

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._ids


def _attached(tape: Tape, t: Tensor) -> bool:
    return t.trainable or id(t) in tape._ids


def _record(out: Tensor, pairs) -> None:
    """Append a node if any input participates in the gradient graph.

    ``pairs`` is a sequence of (input tensor, grad_fn) where grad_fn maps the
    output gradient to that input's gradient contribution.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        return
    if any(_attached(tape, t) for t, _ in pairs):
        tape._nodes.append((out, tuple(pairs)))
        tape._ids.add(id(out))


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Return d(loss)/d(leaf) for every trainable leaf reachable from loss.

    Gradients accumulate additively across fan-out. Also mirrored onto each
    leaf's ``.grad`` attribute for convenience.
    """
    if loss.data.ndim != 0:
        raise LossNotScalar(f"loss has shape {loss.data.shape}, expected a scalar")
    if not tape.produced(loss):
        raise DetachedLoss("loss tensor was not produced on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    leaves: dict[int, Tensor] = {}
    for out, pairs in reversed(tape._nodes):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, fn in pairs:
            contrib = fn(g)
            key = id(inp)
            acc = grads.get(key)
            grads[key] = contrib if acc is None else acc + contrib
            if inp.trainable and key not in leaves:
                leaves[key] = inp

    result: dict[Tensor, np.ndarray] = {}
    for key, leaf in leaves.items():
        g = grads.get(key)
        if g is None:
            continue
        leaf.grad = g
        result[leaf] = g
    return result


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear algebra
#
# ``affine`` records a whole linear map x @ W + b as one node. At the widths
# used here the cost of an op is mostly its Python and tape overhead, so a
# layer pays for one op rather than two.


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    _record(out, ((a, lambda g: _unbroadcast(g, a.data.shape)),
                  (b, lambda g: _unbroadcast(g, b.data.shape))))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    _record(out, ((a, lambda g: _unbroadcast(g, a.data.shape)),
                  (b, lambda g: _unbroadcast(-g, b.data.shape))))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    _record(out, ((a, lambda g: _unbroadcast(g * bd, ad.shape)),
                  (b, lambda g: _unbroadcast(g * ad, bd.shape))))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    _record(out, ((a, lambda g: g @ bd.T),
                  (b, lambda g: ad.T @ g)))
    return out


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one tape node.

    Same arithmetic, and so the same bits, as ``add(matmul(x, W), b)`` in
    the value and in all three gradients, with one node instead of two.
    """
    if x.data.ndim != 2 or W.data.ndim != 2:
        raise ShapeMismatch("affine expects 2-D x and W")
    if x.data.shape[1] != W.data.shape[0]:
        raise ShapeMismatch(f"affine {x.data.shape} @ {W.data.shape}")
    xd, wd = x.data, W.data
    out = Tensor(xd @ wd + b.data)
    _record(out, ((x, lambda g: g @ wd.T),
                  (W, lambda g: xd.T @ g),
                  (b, lambda g: _unbroadcast(g, b.data.shape))))
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    out = Tensor(np.where(mask, x.data, 0.0))
    _record(out, ((x, lambda g: g * mask),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s)
    _record(out, ((x, lambda g: g * s * (1.0 - s)),))
    return out


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; gradient defined as 0 where x == 0."""
    r = np.sqrt(x.data)
    out = Tensor(r)

    def grad(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(r > 0.0, 0.5 / np.where(r > 0.0, r, 1.0), 0.0)
        return g * d

    _record(out, ((x, grad),))
    return out


def reciprocal(x: Tensor) -> Tensor:
    """Elementwise 1 / x."""
    r = 1.0 / x.data
    out = Tensor(r)
    _record(out, ((x, lambda g: -g * r * r),))
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def make_grad(i):
        lo, hi = offsets[i], offsets[i + 1]

        def grad(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return grad

    _record(out, tuple((t, make_grad(i)) for i, t in enumerate(ts)))
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along axis 0 or 1."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = Tensor(x.data[sl])
    shape = x.data.shape

    def grad(g):
        full = np.zeros(shape, dtype=np.float64)
        full[sl] = g
        return full

    _record(out, ((x, grad),))
    return out


def gather_rows(x: Tensor, index: np.ndarray, plan=None) -> Tensor:
    """Select rows x[index]; the gradient scatter-adds back by index.

    ``plan`` is an optional SegmentPlan over (index, row count) that turns
    the scatter-add into a reduceat; pass it when the index is reused.
    """
    idx = np.asarray(index, dtype=np.intp)
    out = Tensor(x.data[idx])
    shape = x.data.shape

    def grad(g):
        if plan is not None:
            return _reduce(plan, g[plan.order], np.add, g.shape[1])
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, idx, g)
        return full

    _record(out, ((x, grad),))
    return out


def row_sum(x: Tensor) -> Tensor:
    """Sum over axis 1, keeping the row axis: (n, d) -> (n, 1)."""
    out = Tensor(x.data.sum(axis=1, keepdims=True))
    width = x.data.shape[1]
    _record(out, ((x, lambda g: np.repeat(g, width, axis=1)),))
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())
    shape = x.data.shape
    _record(out, ((x, lambda g: np.broadcast_to(g, shape).copy()),))
    return out


# ---------------------------------------------------------------------------
# complete-graph aggregation
#
# On the complete graph without self-loops, every row's neighbour mean is
# the column sum less the row itself, over n - 1. That is O(n w) where
# gathering the n(n - 1) messages and reducing them is O(n^2 w). The map
# is symmetric, so the backward pass applies the same closed form to g.


def _complete_mean(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.zeros_like(a)
    return (a.sum(axis=0) - a) / (n - 1)


def complete_mean(x: Tensor) -> Tensor:
    """Mean over the other rows, per row: (n, w) -> (n, w); zeros when n = 1."""
    out = Tensor(_complete_mean(x.data))
    _record(out, ((x, _complete_mean),))
    return out


# ---------------------------------------------------------------------------
# segment aggregation (message passing substrate)
#
# A SegmentPlan maps each row of x to a segment id in [0, num) and
# precomputes the sort that lets every statistic run through ufunc.reduceat
# instead of the much slower ufunc.at; callers with a fixed graph structure
# build it once. Empty segments aggregate to 0 for every statistic, matching
# the zero-message convention for isolated nodes.


class SegmentPlan:
    """Sorted-row bookkeeping for repeated segment reductions."""

    __slots__ = ("num", "order", "sorted_seg", "counts", "safe", "nonempty",
                 "starts", "inv_counts_col")

    def __init__(self, seg, num: int):
        seg = np.asarray(seg, dtype=np.intp)
        self.num = num
        self.order = np.argsort(seg, kind="stable")
        self.sorted_seg = seg[self.order]
        self.counts = np.bincount(seg, minlength=num).astype(np.float64)
        self.safe = np.maximum(self.counts, 1.0)
        self.nonempty = np.nonzero(self.counts > 0)[0]
        self.starts = np.searchsorted(self.sorted_seg, self.nonempty)
        self.inv_counts_col = (1.0 / self.safe)[:, None]

    def __len__(self) -> int:
        return len(self.sorted_seg)


def _reduce(plan: SegmentPlan, xs: np.ndarray, ufunc, width: int) -> np.ndarray:
    out = np.zeros((plan.num, width), dtype=np.float64)
    if len(plan.nonempty):
        out[plan.nonempty] = ufunc.reduceat(xs, plan.starts, axis=0)
    return out


def _scatter_rows(g: np.ndarray, plan: SegmentPlan) -> np.ndarray:
    """Gradient of a segment sum: broadcast g back to member rows."""
    gs = g[plan.sorted_seg]
    full = np.empty_like(gs)
    full[plan.order] = gs
    return full


def segment_sum(x: Tensor, plan: SegmentPlan) -> Tensor:
    xs = x.data[plan.order]
    out = Tensor(_reduce(plan, xs, np.add, x.data.shape[1]))
    _record(out, ((x, lambda g: _scatter_rows(g, plan)),))
    return out


def segment_mean(x: Tensor, plan: SegmentPlan) -> Tensor:
    xs = x.data[plan.order]
    out = Tensor(_reduce(plan, xs, np.add, x.data.shape[1]) * plan.inv_counts_col)

    def grad(g):
        return _scatter_rows(g * plan.inv_counts_col, plan)

    _record(out, ((x, grad),))
    return out


def _segment_extreme(x: Tensor, plan: SegmentPlan, ufunc) -> Tensor:
    xd = x.data
    xs = xd[plan.order]
    result = _reduce(plan, xs, ufunc, xd.shape[1])
    out = Tensor(result)

    # Gradient routes to the first row attaining the extreme in each
    # (segment, column); ties give the whole gradient to one member.
    def grad(g):
        rows = np.arange(xs.shape[0], dtype=np.intp)[:, None]
        eligible = xs == result[plan.sorted_seg]
        cand = np.where(eligible, rows, xs.shape[0])
        sel = np.full((plan.num, xd.shape[1]), xs.shape[0], dtype=np.intp)
        if len(plan.nonempty):
            sel[plan.nonempty] = np.minimum.reduceat(cand, plan.starts, axis=0)
        winner = rows == sel[plan.sorted_seg]
        gs = np.where(winner, g[plan.sorted_seg], 0.0)
        full = np.empty_like(gs)
        full[plan.order] = gs
        return full

    _record(out, ((x, grad),))
    return out


def segment_min(x: Tensor, plan: SegmentPlan) -> Tensor:
    return _segment_extreme(x, plan, np.minimum)


def segment_max(x: Tensor, plan: SegmentPlan) -> Tensor:
    return _segment_extreme(x, plan, np.maximum)


def segment_std(x: Tensor, plan: SegmentPlan) -> Tensor:
    """Population standard deviation per segment; gradient is 0 at zero variance.

    "Zero" is judged with a relative tolerance: a segment of identical
    values can acquire a ~1e-16 spurious std from the rounding of its mean,
    and dividing by it would blow the gradient up instead of muting it.
    """
    xd = x.data
    xs = xd[plan.order]
    mu = _reduce(plan, xs, np.add, xd.shape[1]) * plan.inv_counts_col
    centered_s = xs - mu[plan.sorted_seg]
    var = _reduce(plan, centered_s * centered_s, np.add, xd.shape[1]) * plan.inv_counts_col
    std = np.sqrt(var)
    out = Tensor(std)

    def grad(g):
        live = std > 1e-12 * (1.0 + np.abs(mu))
        denom = plan.safe[:, None] * np.where(live, std, 1.0)
        factor = np.where(live, g / denom, 0.0)
        gs = factor[plan.sorted_seg] * centered_s
        full = np.empty_like(gs)
        full[plan.order] = gs
        return full

    _record(out, ((x, grad),))
    return out


# ---------------------------------------------------------------------------
# losses


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements; 0-dimensional output."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"mse {a.data.shape} vs {b.data.shape}")
    if a.data.size == 0:
        raise EmptyInput("mse over zero elements")
    diff = a.data - b.data
    n = diff.size
    out = Tensor((diff * diff).mean())
    _record(out, ((a, lambda g: g * 2.0 * diff / n),
                  (b, lambda g: g * -2.0 * diff / n)))
    return out


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s)

    def grad(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return s * (g - dot)

    _record(out, ((x, grad),))
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between row-wise softmax(logits) and integer targets."""
    t = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or t.shape != (logits.data.shape[0],):
        raise ShapeMismatch("logits must be (n, k) with one target per row")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(t.shape[0])
    nll = lse - shifted[rows, t]
    n = t.shape[0]
    out = Tensor(nll.mean())
    probs = np.exp(shifted - lse[:, None])

    def grad(g):
        d = probs.copy()
        d[rows, t] -= 1.0
        return g * d / n

    _record(out, ((logits, grad),))
    return out


# ---------------------------------------------------------------------------
# orthonormal DCT-II basis (cached per length)


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: row k is the k-th cosine mode."""
    if n < 1:
        raise EmptyInput("DCT of empty vector")
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    return mat
