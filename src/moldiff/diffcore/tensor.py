"""Dense float64 tensors with taped reverse-mode differentiation.

An op records a node when a tape is active (inside ``with Tape() as
tape:``) and at least one of its inputs is attached: trainable, or the
output of a node already on that tape. The node keeps the gradient
functions of its attached inputs only. ``backward(tape, loss)`` replays the
nodes in reverse construction order, which is already a valid topological
order, so it never computes a gradient for a constant.

Every op but ``relu_stack`` computes its value first and then asks
``_recording`` whether it records. Only when it does does the op build what
the backward pass needs (gradient closures, masks, offsets, saved shapes).
``relu_stack`` checks for an active tape first, since off the tape it keeps
none of the per-layer arrays its backward pass would read. Off tape, and
on a tape for ops whose inputs are all constants (targets, features, time
columns), an op costs its numpy arithmetic, a ``Tensor`` and one check. Its
value is the same array, bit for bit, in both modes.

Two ops record a whole network piece as one node with one hand-written
backward. ``relu_stack`` runs every ReLU stack of the package, from layers
``(W, Wn, b)`` in three forms: dense ``h @ W + b`` (the MLPs), propagated
``(prop @ h) @ W + b`` over a constant matrix (the GCN stacks), and
complete-graph ``h @ W + N(h) @ Wn + b`` with N the mean over the other
rows (the restorers and the velocity network); see the ReLU-stack
section. Its value has the same bits taped, untaped and inside
``frozen_params()``, the block in which sampling keeps each stack's plan:
its layers resolved, with complete-graph weights folded. Its dense and
propagated layers also have, value and gradients, the bits of the same
stack built from separate nodes; its complete-graph layers fold the
neighbour mean into the weights and match that stack to rounding.
``pna_aggregate`` runs a PNA aggregation on small dense operators per
graph (``SegmentPlan``); see the segment aggregation section.

Off the tape, the ops a decoder runs also take a leading batch axis: they
address rows as axis -2 and features as axis -1, so an op on a (B, n, w)
stack of same-size clouds gives each entry the bits it gives that cloud
alone. These are ``gather_rows``, ``concat`` and ``narrow`` (along -2 or
-1), ``pair_rows`` and ``pair_mean``, ``affine``, ``softmax``,
``row_sum``, ``pna_aggregate`` and ``relu_stack``, besides the
elementwise ops; their products broadcast a 2-D operand over the batch,
which runs the same 2-D product per entry. The backward passes of
``affine``, ``pna_aggregate`` and ``relu_stack`` take 2-D inputs only, so
a batched input to one of them on a recording tape raises
``ShapeMismatch``.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property, lru_cache

import numpy as np


class LossNotScalar(ValueError):
    """backward() was handed a loss that is not a 0-dimensional tensor."""


class DetachedLoss(ValueError):
    """backward() was handed a loss that was not produced on the tape."""


class ShapeMismatch(ValueError):
    """Operand shapes do not line up for the requested operation."""


class EmptyInput(ValueError):
    """Operation requires at least one element."""


_F64 = np.dtype(np.float64)


class Tensor:
    """A shaped float64 array, optionally a trainable leaf."""

    __slots__ = ("data", "trainable", "name")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        # np.asarray would hand a float64 ndarray back unchanged; skip the call
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.trainable = trainable
        self.name = name

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
        if _PLANS is not None:
            raise RuntimeError("a tape inside frozen_params: its parameters may not change")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self._nodes)

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._ids


def _recording(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` records a node: a tape is active and some
    input is trainable or was produced on it."""
    tape = _ACTIVE_TAPE
    if tape is None:
        return False
    ids = tape._ids
    for t in inputs:
        if t.trainable or id(t) in ids:
            return True
    return False


def _record(out: Tensor, pairs) -> None:
    """Append a node to the active tape; call only when ``_recording`` said so.

    ``pairs`` is a sequence of (input tensor, grad_fn) where grad_fn maps the
    output gradient to that input's gradient contribution; only the pairs
    of attached inputs are kept.
    """
    tape = _ACTIVE_TAPE
    ids = tape._ids
    tape._nodes.append((out, tuple(p for p in pairs if p[0].trainable or id(p[0]) in ids)))
    ids.add(id(out))


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Return d(loss)/d(leaf) for every trainable leaf reachable from loss.

    Gradients accumulate additively across fan-out.
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b. Two 2-D operands go to BLAS through ``ndarray.dot``, which
    skips the ``matmul`` gufunc's dispatch and gives the same bits; a
    batched operand keeps ``matmul``'s broadcasting. See the ReLU-stack
    section for the cost."""
    if a.ndim == 2 and b.ndim == 2:
        return a.dot(b)
    return a @ b


def _require_2d(op: str, xd: np.ndarray) -> None:
    """Refuse a batched input to an op whose backward pass is 2-D only."""
    if xd.ndim != 2:
        raise ShapeMismatch(f"{op} records 2-D inputs only, got shape {xd.shape}")


# ---------------------------------------------------------------------------
# elementwise and linear algebra
#
# ``affine`` records a whole linear map x @ W + b as one node. At the widths
# used here the cost of an op is mostly its Python and tape overhead, so a
# layer pays for one op rather than two.


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    if _recording(a, b):
        _record(out, ((a, lambda g: _unbroadcast(g, a.data.shape)),
                      (b, lambda g: _unbroadcast(g, b.data.shape))))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    if _recording(a, b):
        _record(out, ((a, lambda g: _unbroadcast(g, a.data.shape)),
                      (b, lambda g: _unbroadcast(-g, b.data.shape))))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    if _recording(a, b):
        _record(out, ((a, lambda g: _unbroadcast(g * bd, ad.shape)),
                      (b, lambda g: _unbroadcast(g * ad, bd.shape))))
    return out


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one tape node; x is (n, k), or (B, n, k) off the tape.

    Same arithmetic, and so the same bits, as a product node for x @ W and
    an ``add`` node for the bias, in the value and in all three gradients,
    with one node instead of two.
    """
    if x.data.ndim < 2 or W.data.ndim != 2:
        raise ShapeMismatch("affine expects an x of 2 or more dimensions and a 2-D W")
    if x.data.shape[-1] != W.data.shape[0]:
        raise ShapeMismatch(f"affine {x.data.shape} @ {W.data.shape}")
    xd, wd = x.data, W.data
    out = Tensor(_dot(xd, wd) + b.data)
    if _recording(x, W, b):
        _require_2d("affine", xd)
        _record(out, ((x, lambda g: _dot(g, wd.T)),
                      (W, lambda g: _dot(xd.T, g)),
                      (b, lambda g: _unbroadcast(g, b.data.shape))))
    return out


def relu(x: Tensor) -> Tensor:
    """max(x, 0): +0.0 for x = -0.0, NaN for NaN; the gradient is 0 at x <= 0."""
    out = Tensor(np.maximum(x.data, 0.0))
    if _recording(x):
        mask = x.data > 0.0
        _record(out, ((x, lambda g: g * mask),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)). Below x of about -709 the exp overflows to inf and
    the value is its limit, 0.0, with no warning; the gradient there is 0."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(s)
    if _recording(x):
        _record(out, ((x, lambda g: g * s * (1.0 - s)),))
    return out


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; gradient defined as 0 where x == 0."""
    r = np.sqrt(x.data)
    out = Tensor(r)
    if _recording(x):
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
    if _recording(x):
        _record(out, ((x, lambda g: -g * r * r),))
    return out


# ---------------------------------------------------------------------------
# shape plumbing


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    if not _recording(*ts):
        return out
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


def concat_row(x: Tensor, row: np.ndarray) -> Tensor:
    """x's features followed by the constant 1-D ``row`` on every row of x,
    written into one array: ``concat`` with ``row`` repeated, without the
    repeat. The gradient reaches x only."""
    xd = x.data
    w = xd.shape[-1]
    data = np.empty((*xd.shape[:-1], w + len(row)))
    data[..., :w] = xd
    data[..., w:] = row
    out = Tensor(data)
    if _recording(x):
        _record(out, ((x, lambda g: g[..., :w]),))
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along the rows (axis -2) or
    the features (axis -1)."""
    xd = x.data
    if axis == -2:
        sl = (Ellipsis, slice(start, start + length), slice(None))
    elif axis == -1:
        sl = (Ellipsis, slice(start, start + length))
    else:
        raise ShapeMismatch(f"narrow along axis {axis} of shape {xd.shape}; "
                            "expected rows or features")
    out = Tensor(xd[sl])
    if not _recording(x):
        return out
    shape = xd.shape

    def grad(g):
        full = np.zeros(shape, dtype=np.float64)
        full[sl] = g
        return full

    _record(out, ((x, grad),))
    return out


def gather_rows(x: Tensor, plan: SegmentPlan) -> Tensor:
    """Rows ``plan.index`` (along axis -2) of an x with ``plan.num`` rows;
    the gradient is the plan's segment sum, ``plan.member @ g``."""
    out = Tensor(np.take(x.data, plan.index, axis=-2))
    if _recording(x):
        _record(out, ((x, lambda g: _dot(plan.member, g)),))
    return out


def row_sum(x: Tensor) -> Tensor:
    """Sum over the features, keeping the row axis: (..., n, d) -> (..., n, 1)."""
    out = Tensor(x.data.sum(axis=-1, keepdims=True))
    if _recording(x):
        width = x.data.shape[-1]
        _record(out, ((x, lambda g: np.repeat(g, width, axis=-1)),))
    return out


# ---------------------------------------------------------------------------
# pair heads
#
# A pair head scores each pair {i, j} of an edge index laid out as 2P
# directed rows, the (i, j) rows then the (j, i) rows: it runs an MLP on
# every row [x_src, x_dst] and averages the two orientations of each pair.
# ``pair_rows`` builds the MLP's input and ``pair_mean`` takes the average,
# one node each, where ``gather_rows`` twice, ``concat``, ``narrow`` twice,
# ``add`` and ``mul`` would record seven. A node costs a few microseconds of
# Python and closures, about what the arithmetic of a 9-atom head costs.
# Both ops do the chain's arithmetic in its order, so the value and the
# gradient have its bits. Off the tape both take a (B, E, w) batch.


def pair_rows(x: Tensor, src: SegmentPlan, dst: SegmentPlan) -> Tensor:
    """Row r is ``[x[src.index[r]], x[dst.index[r]]]``: (..., n, w) ->
    (..., E, 2w) for plans of E rows each. The gradient is
    ``dst.member @ g[..., w:] + src.member @ g[..., :w]``."""
    if len(src) != len(dst):
        raise ShapeMismatch(f"pair_rows: {len(src)} source rows, {len(dst)} destination rows")
    xd = x.data
    out = Tensor(np.concatenate((np.take(xd, src.index, axis=-2),
                                 np.take(xd, dst.index, axis=-2)), axis=-1))
    if _recording(x):
        w = xd.shape[-1]
        _record(out, ((x, lambda g: _dot(dst.member, g[..., w:]) + _dot(src.member, g[..., :w])),))
    return out


def pair_mean(x: Tensor) -> Tensor:
    """The mean of the two halves of x's 2P rows: (..., 2P, k) -> (..., P, k),
    row r the mean of rows r and P + r. An odd row count raises
    ``ShapeMismatch``. Each half's gradient is ``g * 0.5``."""
    xd = x.data
    if xd.ndim < 2 or xd.shape[-2] % 2:
        raise ShapeMismatch(f"pair_mean needs an even number of rows, got shape {xd.shape}")
    p = xd.shape[-2] // 2
    out = Tensor((xd[..., :p, :] + xd[..., p:, :]) * 0.5)
    if _recording(x):
        def grad(g):
            # + 0.0 turns -0.0 into +0.0, as summing each half with the
            # other half's zero gradient does
            half = g * 0.5 + 0.0
            return np.concatenate((half, half), axis=-2)

        _record(out, ((x, grad),))
    return out


# ---------------------------------------------------------------------------
# ReLU stacks
#
# ``relu_stack`` runs a whole ReLU stack (an MLP, a GCN stack, a
# complete-graph network) as one node. At n <= 45 rows and widths <= 64 a
# layer's products take a few microseconds, about what a node costs in
# Tensor and op-call overhead, so a layer of separate nodes (neighbour map,
# two affines, ReLU) would spend much of its time on that overhead.
#
# Every layer is (W, Wn, b) with a W, in one of three forms:
#   dense          h @ W + b                      (no prop, Wn None)
#   propagated     (prop @ h) @ W + b             (prop given, Wn None)
#   complete-graph h @ W + N(h) @ Wn + b          (no prop, Wn given)
# A GCN layer propagates, then transforms (Kipf & Welling), so a GCN stack
# is a stack of dense layers on prop @ h and needs no weight of its own;
# its backward pass carries g to h as prop^T (g W^T).
#
# At these sizes even the product's dispatch counts. ``a @ b`` goes through
# the ``matmul`` gufunc machinery: on a 2-core Xeon at one BLAS thread, a
# (9, 64) @ (64, 64) product takes 2.15 us that way and 1.55 us as
# ``a.dot(b)``, the same BLAS call with the same bits. So every 2-D product
# in this module goes through ``_dot``. A stack adds each bias, and a folded
# layer's column-sum term, in place into the fresh product, in the order of
# ``h @ W + (colsum(h) @ Wq + b)``; off the tape it keeps no per-layer
# arrays for a backward pass.
#
# A complete-graph layer's neighbour map is the mean over the other rows,
# N(h) = (colsum(h) - h) / (n - 1). The layer h @ W + N(h) @ Wn + b is
# then h @ Weff + (colsum(h) @ Wq + b), with Wq = Wn / (n - 1) and
# Weff = W - Wq: one (n, w) product and one row product, where the mean
# would take two full products and three passes over h.
# The backward pass carries g to h by the same identity,
# dh = g Weff^T + colsum(g) Wq^T. dWn is N(h)^T g, with N(h) rebuilt from
# the column sum the forward pass kept: at n <= 45 rows that is cheaper
# than the equal (outer(colsum h, colsum g) - h^T g) / (n - 1), whose three
# passes run over the (w, w') weight shape. The fold moves values by
# rounding only; against a long-double reference it adds no cancellation.
# One row has no neighbours, and its layer is h @ W + b.
#
# A stack runs from a plan: per layer the arrays (W or Weff, Wq or None, b),
# resolved and shape-checked from the layers for one row count and input
# width. Outside ``frozen_params()`` a call makes its plan, two passes over
# the weights of each folded layer. Inside the block each plan is kept per
# (layer sequence, row count) until the block ends: a network that runs
# 5 to 40 times on each molecule of a ``generate_molecules`` call, which
# runs in one block, resolves and folds its layers once per row count.
# ``prop`` is read when the plan runs, so graphs of one size share a plan.


_PLANS: dict | None = None


@contextmanager
def frozen_params():
    """A block in which no parameter changes, for sampling loops.

    ``relu_stack`` keeps its plan, each layer's arrays with complete-graph
    layers folded, per (layer sequence, row count) until the block ends,
    also on an exception; the values are the same bits as outside it. A
    layer sequence is keyed by identity, so a network passes the same one
    on every call. Entering the block while a tape records raises
    RuntimeError, and so does opening a tape inside it. A parameter changed
    in place or rebound inside the block is not seen there; one changed
    between two blocks is. A block inside a block shares the outer block's
    plans.
    """
    global _PLANS
    if _ACTIVE_TAPE is not None:
        raise RuntimeError("frozen_params while a tape is recording")
    if _PLANS is not None:
        yield
        return
    _PLANS = {}
    try:
        yield
    finally:
        _PLANS = None


def _plan(layers, shape: tuple[int, ...], propagated: bool) -> tuple:
    """Each layer as (ws, wq, b) arrays for an input of ``shape``: ws is W,
    or Weff on a complete-graph layer over n > 1 rows, whose Wq is wq."""
    n = shape[-2]
    h_shape = shape
    steps = []
    for i, (W, Wn, b) in enumerate(layers):
        wd, wn, bd = None if W is None else W.data, None if Wn is None else Wn.data, b.data
        if (wd is None or wd.ndim != 2 or wd.shape[0] != h_shape[-1] or bd.shape != (wd.shape[1],)
                or not (wn is None or (not propagated and wn.shape == wd.shape))):
            shapes = [None if a is None else a.shape for a in (wd, wn)]
            raise ShapeMismatch(f"relu_stack layer {i} on {h_shape}: W, Wn {shapes}, b {bd.shape}")
        if wn is None or n == 1:
            steps.append((wd, None, bd))
        else:
            wq = wn * (1.0 / (n - 1))
            steps.append((wd - wq, wq, bd))
        h_shape = (*h_shape[:-1], wd.shape[1])
    return tuple(steps)


def relu_stack(x: Tensor, layers, prop: np.ndarray | None = None) -> Tensor:
    """A ReLU stack on the graph of x's rows, as one tape node.

    Each layer is ``(W, Wn, b)`` with W always given. With a constant
    (n, n) ``prop`` every layer propagates first, mapping h to
    ``(prop @ h) @ W + b``, and has no Wn. With ``prop`` None a layer maps
    h to ``h @ W + N(h) @ Wn + b``, where ``N(h)`` is each row's mean over
    the other rows (zeros for one row); Wn None makes it a dense layer.
    ReLU runs between layers, not after the last; a ReLU's gradient is 0 at
    inputs <= 0 and NaN stays NaN. Off the tape x may be a (B, n, w) batch
    of graphs of one size, each entry run as that graph alone.

    A layer whose W does not take its input's width, or whose Wn or b does
    not fit W, raises ``ShapeMismatch``; with ``affine``'s, this is the only
    width check of the ``gnn`` networks.

    The value has the same bits taped, untaped and inside
    ``frozen_params``, where the plan is kept. Dense stacks, ``prop``
    stacks and one-row stacks have, in the value and every gradient, the
    bits of the same stack built from product, ``affine`` and ``relu``
    nodes. A complete-graph layer on more rows runs folded (see the
    section comment) and matches that stack to rounding.
    """
    xd = x.data
    if xd.ndim < 2:
        raise ShapeMismatch(f"relu_stack expects rows of features, got shape {xd.shape}")
    if not layers:
        raise EmptyInput("relu_stack needs at least one layer")
    n = xd.shape[-2]
    if prop is not None and np.shape(prop) != (n, n):
        raise ShapeMismatch(f"relu_stack: prop {np.shape(prop)} for {n} rows")
    plans = _PLANS
    if plans is None:
        plan = _plan(layers, xd.shape, prop is not None)
    else:
        key = (id(layers), xd.shape[-2:], prop is None)
        hit = plans.get(key)
        if hit is None:
            plan = _plan(layers, xd.shape, prop is not None)
            plans[key] = (layers, plan)  # holding the layers keeps their id unused
        else:
            plan = hit[1]
    # off the tape nothing is kept for a backward pass: sampling loops run here
    taped = _ACTIVE_TAPE is not None
    kept = []  # per layer (input, lhs, colsum) on a tape
    # ``_dot``'s choice, made once: on a 2-D x every product is 2-D
    dot = np.ndarray.dot if xd.ndim == 2 else np.matmul
    h = xd
    last = len(plan) - 1
    for i, (ws, wq, bd) in enumerate(plan):
        # the product is lhs @ ws: lhs is prop @ h on a prop stack
        lhs = h if prop is None else dot(prop, h)
        act = dot(lhs, ws)
        if wq is None:
            colsum = None
            act += bd
        else:  # act + (colsum h @ Wq + b), summed into the fresh products
            colsum = np.add.reduce(h, axis=-2, keepdims=True)
            extra = dot(colsum, wq)
            extra += bd
            act += extra
        if i < last:
            np.maximum(act, 0.0, out=act)
        if taped:
            kept.append((h, lhs, colsum))
        h = act
    out = Tensor(h)
    if not taped:
        return out
    params = [t for layer in layers for t in layer]
    if not _recording(x, *(t for t in params if t is not None)):
        return out
    _require_2d("relu_stack", xd)
    x_attached = x.trainable or _ACTIVE_TAPE.produced(x)
    cache = [None, None]

    def node_grads(g_out):
        # backward hands every pair of a node the same g: compute once
        if cache[0] is g_out:
            return cache[1]
        grads = [None] * (1 + len(params))
        g = g_out
        for i in range(last, -1, -1):
            ws, wq, bd = plan[i]
            h_in, lhs, colsum = kept[i]
            if i < last:  # the ReLU after layer i; its output is layer i + 1's input
                g = g * (kept[i + 1][0] > 0.0)
            grads[1 + 3 * i] = _dot(lhs.T, g)
            if wq is not None:  # N(h) from the column sum the forward kept
                grads[2 + 3 * i] = _dot(((colsum - h_in) / (n - 1)).T, g)
            elif layers[i][1] is not None:  # one row: Wn multiplies zeros
                grads[2 + 3 * i] = np.zeros(layers[i][1].data.shape)
            gs = grads[3 + 3 * i] = _unbroadcast(g, bd.shape)
            if i == 0 and not x_attached:
                break
            g = _dot(g, ws.T)
            if wq is not None:
                g += _dot(gs, wq.T)
            if prop is not None:
                g = _dot(prop.T, g)
        grads[0] = g  # x's gradient, read only when x is attached
        cache[0], cache[1] = g_out, grads
        return grads

    _record(out, [(t, lambda g, k=k: node_grads(g)[k])
                  for k, t in enumerate([x, *params]) if t is not None])
    return out


# ---------------------------------------------------------------------------
# segment aggregation (message passing substrate)
#
# A SegmentPlan maps each row of a message array to a segment id in [0, num)
# and builds two dense operators on first use, so once per cached edge index.
# ``member``, the (num, len) 0/1 matrix, makes a segment sum and the gradient
# of a gather one product each. ``table`` lists each segment's rows in row
# order, padded to the largest segment K with the segment's first row, so
# min and max reduce along one axis of a (K, num, w) array; the padding
# changes neither the extreme nor which row attains it first. Graphs here
# are small (at most 9 atoms; the largest, the 45-node pair-node graph, has
# 144 edges), and at that size a dense product or one axis reduction is
# several times cheaper than sorting the rows and reducing each segment.
#
# Empty segments (isolated nodes) aggregate to 0. Min and max send their
# gradient to the first row, in row order, that attains the extreme. The std
# is the two-pass form (from sums of squares it cancels catastrophically for
# near-equal rows), and its gradient is 0 unless std > 1e-12 (1 + |mean|):
# equal values can pick up a ~1e-16 std from the rounding of their mean.


class SegmentPlan:
    """Dense aggregation operators for ``index``, an array of segment ids
    in [0, num), one per row. The operators are built on first use, so a
    plan that only gathers off the tape builds none of them."""

    def __init__(self, seg, num: int):
        self.index = np.asarray(seg, dtype=np.intp)
        self.num = num
        self.counts = np.bincount(self.index, minlength=num).astype(np.float64)
        self.inv_counts_col = (1.0 / np.maximum(self.counts, 1.0))[:, None]
        self.empty = np.flatnonzero(self.counts == 0)

    def __len__(self) -> int:
        return len(self.index)

    @cached_property
    def member(self) -> np.ndarray:
        """(num, len) 0/1 matrix: member[s, r] = 1 when row r is in segment s.
        Read-only."""
        member = np.zeros((self.num, len(self.index)))
        member[self.index, np.arange(len(self.index))] = 1.0
        member.flags.writeable = False
        return member

    @cached_property
    def rank(self) -> np.ndarray:
        """Each row's position within its segment, counting in row order."""
        order = np.argsort(self.index, kind="stable")
        counts = self.counts.astype(np.intp)
        starts = np.cumsum(counts) - counts
        rank = np.empty(len(self.index), dtype=np.intp)
        rank[order] = np.arange(len(self.index)) - starts[self.index[order]]
        return rank

    @cached_property
    def table(self) -> np.ndarray:
        """(K, num) rows of each segment in row order, padded with its first
        row. Read-only."""
        heads = self.rank == 0
        first = np.zeros(self.num, dtype=np.intp)
        first[self.index[heads]] = np.flatnonzero(heads)
        table = np.repeat(first[None, :], int(self.counts.max(initial=0)), axis=0)
        table[self.rank, self.index] = np.arange(len(self.index))
        table.flags.writeable = False
        return table

    @cached_property
    def slot(self) -> np.ndarray:
        """Each row's position in the flattened (K, num) table."""
        return self.rank * self.num + self.index


def segment_mean(x: Tensor, plan: SegmentPlan) -> Tensor:
    """Mean of the rows of x in each segment: (len, w) -> (num, w)."""
    out = Tensor(_dot(plan.member, x.data) * plan.inv_counts_col)
    if _recording(x):
        _record(out, ((x, lambda g: _dot(plan.member.T, g * plan.inv_counts_col)),))
    return out


def pna_aggregate(x: Tensor, src_plan: SegmentPlan, dst_plan: SegmentPlan) -> Tensor:
    """Principal neighbourhood aggregation as one node: (n, w) -> (n, 5w + 1),
    or (B, n, w) -> (B, n, 5w + 1) off the tape.

    Each row of the output is [x, mean, min, max, std, log(d + 1)], where
    the statistics run over the messages ``x[src_plan.index]`` that arrive
    at that row by ``dst_plan`` and ``d`` is its in-degree. The std is the
    population std. Rows with no messages get zeros for all four.
    """
    xd = x.data
    *batch, n, w = xd.shape
    # np.take returns the gathered rows C-ordered; a fancy index on axis -2
    # of a batch puts the gathered axis outermost in memory, and every
    # later pass over a batch entry then strides
    msgs = np.take(xd, src_plan.index, axis=-2)
    inv = dst_plan.inv_counts_col
    mean = _dot(dst_plan.member, msgs) * inv
    vals = np.take(msgs, dst_plan.table, axis=-2)
    centered = msgs - np.take(mean, dst_plan.index, axis=-2)
    std = np.sqrt(_dot(dst_plan.member, centered * centered) * inv)
    out = np.empty((*batch, n, 5 * w + 1))
    out[..., :w] = xd
    out[..., w:2 * w] = mean
    out[..., 2 * w:3 * w] = vals.min(axis=-3, initial=np.inf)
    out[..., 3 * w:4 * w] = vals.max(axis=-3, initial=-np.inf)
    out[..., dst_plan.empty, 2 * w:4 * w] = 0.0
    out[..., 4 * w:5 * w] = std
    out[..., 5 * w] = np.log1p(dst_plan.counts)
    result = Tensor(out)
    if not _recording(x):
        return result
    _require_2d("pna_aggregate", xd)

    def grad(g):
        if not len(dst_plan):  # no messages: the statistics are constants
            return g[:, :w]
        live = std > 1e-12 * (1.0 + np.abs(mean))
        factor = np.where(live, g[:, 4 * w:5 * w] * inv / np.where(live, std, 1.0), 0.0)
        d_msgs = (g[:, w:2 * w] * inv)[dst_plan.index] + factor[dst_plan.index] * centered
        rows, cols = np.arange(n)[:, None], np.arange(w)
        d_slots = np.zeros(vals.shape)
        d_slots[vals.argmin(axis=0), rows, cols] = g[:, 2 * w:3 * w]
        d_slots[vals.argmax(axis=0), rows, cols] += g[:, 3 * w:4 * w]
        d_msgs += d_slots.reshape(-1, w)[dst_plan.slot]
        return g[:, :w] + _dot(src_plan.member, d_msgs)

    _record(result, ((x, grad),))
    return result


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
    if _recording(a, b):
        _record(out, ((a, lambda g: g * 2.0 * diff / n),
                      (b, lambda g: g * -2.0 * diff / n)))
    return out


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax, over the feature axis -1."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)
    if not _recording(x):
        return out

    def grad(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
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
    if not _recording(logits):
        return out
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
    """Orthonormal DCT-II basis: row k is the k-th cosine mode. Cached,
    read-only."""
    if n < 1:
        raise EmptyInput("DCT of empty vector")
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0] *= np.sqrt(0.5)
    mat.flags.writeable = False
    return mat
