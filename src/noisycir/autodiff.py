"""Minimal reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D numpy array wrapped in a Var that lives on a Tape.
A value enters a tape only through Tape.const, which makes it a 2-D
float64 array; every other Var is an op's output. Ops record a backward
closure; Tape.backward replays them in reverse recording order.
Single-threaded per tape by design.

A const is data: it has no gradient and is not on the tape's node list,
backward closures skip the arithmetic that would feed it, and an op on
data alone yields data and records no closure. Gradients start at the
parameters that mlp_forward reads from a ParamStore.

A forward pass computes values only. Gradient buffers are allocated by
Tape.backward, and work that only the gradient needs (argmax routing, ReLU
masks, softmax probabilities) runs inside the backward closures, so a tape
that is never replayed costs no more than its forward values. Until
backward runs, every Var.grad is None. Each backward fills every node's
gradient afresh.

mlp_forward records a two-layer perceptron as one fused node: it reads the
columns of its inputs side by side and its weights from a ParamStore, and a
single closure back-propagates through both layers and the ReLU, hands each
input its column block and adds the weights' gradients straight into the
store. So concatenation, parameters and hidden activations get no tape nodes
of their own, and a second backward adds to the store again. Given row
segments, it also max-pools its output per segment and adds a data base: the
whole WCB block, and with two inputs the whole fusion block.
masked_loss is the whole objective, the views' label-masked means summed.

A ParamStore keeps all parameters in one contiguous buffer and all
gradients in another; params[name] and grads[name] are reshaped views into
them, so zeroing the gradients and an optimizer update each touch one array.

Graph lifetime: a tape, its Vars and their closures point at each other; a
Tape used as a context manager cuts those links when the block ends, so
reference counting frees the graph. nce_rows takes its values from array
functions, cosine_values then xent_values, which also work over stacks of
batches; its backward folds the softmax gradient into the cosine's, so the
similarity matrix gets no node and no gradient buffer.

grad_check compares the tape's gradient of every entry of flat_params with a
central difference, as two flat vectors, at a fixed step and tolerances; an
entry whose difference is not finite fails. FAULT_OPS names the ops the tape
records, and each op's backward has one fault hook, at its top:
set_backward_fault, a test hook, corrupts the backward of one of them, which
grad_check must then catch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

_NORM_EPS = 1e-12

# Test hook: when set to one of FAULT_OPS, that op's backward multiplies its
# gradient by a wrong factor so gradient checks must fail.
FAULT_OPS = ("slice_rows", "nce_rows", "masked_loss", "mlp_forward")
_FAULT_OP: str | None = None


def set_backward_fault(op_name: str | None) -> None:
    global _FAULT_OP
    _FAULT_OP = op_name


def _fault(op_name: str, g: np.ndarray) -> np.ndarray:
    if _FAULT_OP == op_name:
        return g * 1.01
    return g


class Var:
    """A matrix value plus its gradient slot on a tape (None until backward, and for data)."""

    __slots__ = ("value", "grad", "tape", "_backward", "data")

    def __init__(self, tape: "Tape", value: np.ndarray, data: bool = False):
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = None
        self.data = data
        if not data:
            tape._nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def scalar(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"expected scalar, got shape {self.shape}")
        return float(self.value[0, 0])


class Tape:
    """Records ops in order; replays them backward for gradients."""

    def __init__(self):
        self._nodes: list[Var] = []

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        for node in self._nodes:   # cut tape <-> node <-> closure cycles
            node.tape = node._backward = None
        self._nodes.clear()

    def const(self, value) -> Var:
        """A data leaf holding value as a C-contiguous 2-D float64 array."""
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ShapeError(f"Var must be 2-D, got shape {value.shape}")
        return Var(self, value, data=True)

    def backward(self, loss: Var) -> None:
        """Replay the tape; mlp_forward nodes add into their stores."""
        if loss.tape is not self:
            raise ShapeError("loss does not belong to this tape")
        if loss.value.size != 1:
            raise ShapeError("backward requires a scalar loss")
        for node in self._nodes:
            node.grad = np.zeros(node.value.shape)
        if loss.data:  # a loss of data alone: every gradient is zero
            return
        loss.grad[...] = 1.0
        for node in reversed(self._nodes):
            if node._backward is not None:
                node._backward()


class ParamStore:
    """Named trainable matrices with gradient accumulators.

    Parameters live in one contiguous buffer, flat_params, and gradients in
    flat_grads; params[name] and grads[name] are views into them. Adding a
    parameter rebuilds both buffers and every view, so arrays taken out of
    the store before its last add no longer alias it.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.flat_params = np.zeros(0)
        self.flat_grads = np.zeros(0)

    def add(self, name: str, value: np.ndarray) -> None:
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ShapeError(f"parameter {name} must be 2-D")
        values = {**self.params, name: value}
        grads = {**self.grads, name: np.zeros(value.shape)}
        self.flat_params = np.concatenate([v.reshape(-1) for v in values.values()])
        self.flat_grads = np.concatenate([grads[n].reshape(-1) for n in values])
        pos = 0
        for n, v in values.items():
            sl = slice(pos, pos + v.size)
            self.params[n] = self.flat_params[sl].reshape(v.shape)
            self.grads[n] = self.flat_grads[sl].reshape(v.shape)
            pos += v.size

    def init_mlp(self, name: str, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator) -> None:
        """Two-layer perceptron parameters: linear -> ReLU -> linear, He-initialized."""
        s1, s2 = np.sqrt(2.0 / in_dim), np.sqrt(2.0 / hidden)
        self.add(f"{name}.W1", rng.standard_normal((in_dim, hidden)) * s1)
        self.add(f"{name}.b1", np.zeros((1, hidden)))
        self.add(f"{name}.W2", rng.standard_normal((hidden, out_dim)) * s2)
        self.add(f"{name}.b2", np.zeros((1, out_dim)))

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def names(self) -> list[str]:
        return list(self.params.keys())


def cosine_values(q: np.ndarray, t: np.ndarray):
    """All-pairs cosines over the last two axes, out[..., i, j] = cos(q_i, t_j),
    then (unit rows, row norms) of q and of t. A row is divided by
    max(||x||, _NORM_EPS), so a zero row has cosine 0 with every row."""
    units = []
    for x in (q, t):
        norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), _NORM_EPS)
        units.append((x / norms, norms))
    return units[0][0] @ np.swapaxes(units[1][0], -1, -2), *units


def xent_values(sims: np.ndarray, tau: float):
    """Per-row softmax cross-entropy against the diagonal, over the last two
    axes: (losses (..., B, 1), exponentials, their row sums)."""
    z = sims / tau
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return -(np.diagonal(z, 0, -2, -1)[..., None] - m - np.log(s)), e, s


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ShapeError("operands live on different tapes")
    return tape


def _record(out: Var, bw) -> Var:
    """Attach bw as out's backward, unless out is data: an op on data alone."""
    if not out.data:
        out._backward = bw
    return out


def slice_rows(a: Var, start: int, stop: int) -> Var:
    out = Var(a.tape, a.value[start:stop], a.data)

    def bw():
        a.grad[start:stop] += _fault("slice_rows", out.grad)

    return _record(out, bw)


def nce_rows(q: Var, t: Var, tau: float) -> Var:
    """Per-row InfoNCE over in-batch targets: row i yields
    -log softmax(cos(q_i, t_j) / tau over j)[i], with the row max subtracted
    for stability. Output shape (B, 1)."""
    if q.shape != t.shape:
        raise ShapeError(f"nce_rows {q.shape} vs {t.shape}")
    if tau <= 0:
        raise ConfigError("temperature must be positive")
    sims, (qh, qn), (th, tn) = cosine_values(q.value, t.value)
    losses, e, s = xent_values(sims, tau)
    out = Var(_same_tape(q, t), losses, q.data and t.data)

    def bw():
        g = _fault("nce_rows", out.grad)
        g = g * (e / s - np.eye(len(e))) / tau  # the gradient of the cosines
        # a clamped row maps as x / eps, which has no tangent projection
        if not q.data:
            dqh = g @ th
            q.grad += (dqh - (qn > _NORM_EPS) * (dqh * qh).sum(axis=1, keepdims=True) * qh) / qn
        if not t.data:
            dth = g.T @ qh
            t.grad += (dth - (tn > _NORM_EPS) * (dth * th).sum(axis=1, keepdims=True) * th) / tn

    return _record(out, bw)


def masked_loss(vecs: list[Var], weights) -> Var:
    """Sum, in list order, of (1/B) * sum_i weights[i] * v[i] over the (B, 1)
    columns v, for constant weights: the label-masked objective."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    b = w.shape[0]
    if any(v.shape != (b, 1) for v in vecs):
        raise ShapeError(f"masked_loss on shapes {[v.shape for v in vecs]} with {b} weights")
    terms = [float(v.value[:, 0] @ w) / b for v in vecs]
    out = Var(_same_tape(*vecs), np.array([[sum(terms[1:], terms[0])]]),
              all(v.data for v in vecs))

    def bw():
        g = _fault("masked_loss", out.grad[0, 0])
        for v in vecs:
            if not v.data:
                v.grad[:, 0] += g * w / b

    return _record(out, bw)


def mlp_forward(xs: list[Var], store: ParamStore, name: str, segments: int = 0,
                base: Var | None = None) -> Var:
    """Two-layer perceptron: linear -> ReLU -> linear, parameters from store,
    over the columns of xs side by side (inputs of one row count). With
    segments, the column-wise max over that many equal row segments (ties to
    the lowest row) plus base, a data leaf of the pooled shape. One tape node;
    its backward routes a pooled gradient to the argmax rows and adds the
    parameters' gradients into store.grads."""
    w1, b1, w2, b2 = (store.params[f"{name}.{p}"] for p in ("W1", "b1", "W2", "b2"))
    gw1, gb1, gw2, gb2 = (store.grads[f"{name}.{p}"] for p in ("W1", "b1", "W2", "b2"))
    if any(a.shape[0] != xs[0].shape[0] for a in xs):
        raise ShapeError(f"MLP {name}: inputs of unequal row counts {[a.shape for a in xs]}")
    x = xs[0].value if len(xs) == 1 else np.concatenate([a.value for a in xs], axis=1)
    if x.shape[1] != w1.shape[0]:
        raise ShapeError(f"MLP {name}: input width {x.shape[1]} != {w1.shape[0]}")
    tape = _same_tape(*xs)
    h = x @ w1
    np.maximum(np.add(h, b1, out=h), 0.0, out=h)  # bias and ReLU in place
    y = h @ w2
    y += b2
    if segments:
        rows, cols = y.shape
        if rows % segments != 0:
            raise ShapeError(f"{rows} rows not divisible into {segments} segments")
        if base is None or not base.data or base.shape != (segments, cols):
            raise ShapeError(f"MLP {name}: base must be data of shape {(segments, cols)}")
        v = y.reshape(segments, rows // segments, cols)
        out = Var(tape, v.max(axis=1) + base.value)
    else:
        out = Var(tape, y)  # never data: the parameters take gradients

    def bw():
        g = _fault("mlp_forward", out.grad)
        if segments:  # route each pooled entry to its argmax row
            row_idx = np.argmax(v, axis=1) + v.shape[1] * np.arange(segments)[:, None]
            routed = np.zeros(y.shape)
            routed[row_idx, np.arange(y.shape[1])] += g
            g = routed
        gb2[...] += g.sum(axis=0, keepdims=True)
        gw2[...] += h.T @ g
        g = (g @ w2.T) * (h > 0.0)
        gb1[...] += g.sum(axis=0, keepdims=True)
        if not all(a.data for a in xs):
            gx, start = g @ w1.T, 0
            for a in xs:
                if not a.data:
                    a.grad += gx[:, start:start + a.shape[1]]
                start += a.shape[1]
        gw1[...] += x.T @ g

    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    max_abs_error: float
    worst_param: str
    n_entries: int


_STEP = 1e-6       # central-difference step
_TOL = 1e-5        # relative tolerance
_ABS_FLOOR = 1e-6  # gradients below this are judged absolutely
_ABS_TOL = 1e-8    # absolute tolerance


def grad_check(f, store: ParamStore) -> GradCheckReport:
    """Compare tape gradients of scalar f(store) against central differences.

    The tape's gradient and the central difference of every entry of
    store.flat_params, in flat order, fill two vectors, which are then
    compared entry by entry. An entry passes absolutely when the discrepancy is
    within _ABS_TOL (this covers zero gradients and entries below _ABS_FLOOR,
    whose quotient would be dominated by finite-difference roundoff); all other
    entries must meet the relative tolerance _TOL, and only those feed the
    reported relative error. An entry whose tape gradient or central difference
    is not finite fails, and is reported as the relative error nan.
    """
    store.zero_grads()
    out = f(store)
    with out.tape:  # every tape is closed, so reference counting frees it
        if not np.isfinite(out.value).all():
            raise NumericalError("gradient check target evaluated non-finite")
        out.tape.backward(out)
    ana = store.flat_grads.copy()
    flat, num = store.flat_params, np.empty(ana.size)
    for j, orig in enumerate(flat.tolist()):
        flat[j] = orig + _STEP
        with (out := f(store)).tape:
            f_hi = out.scalar()
        flat[j] = orig - _STEP
        with (out := f(store)).tape:
            num[j] = (f_hi - out.scalar()) / (2.0 * _STEP)
        flat[j] = orig

    with np.errstate(all="ignore"):  # a non-finite difference is nan or inf, and fails
        diff = np.abs(ana - num)
        denom = np.maximum(np.abs(ana), np.abs(num))  # nan if either is
        absolute = (diff <= _ABS_TOL) | (denom < _ABS_FLOOR)
        err = np.divide(diff, denom, out=diff.copy(), where=~absolute)
    rel = np.where(absolute, 0.0, err)  # a relative error is never 0
    max_rel = float(rel.max(initial=0.0))
    sizes = [p.size for p in store.params.values()]
    return GradCheckReport(
        passed=bool(np.all(err <= np.where(absolute, _ABS_TOL, _TOL))),
        max_rel_error=max_rel,
        max_abs_error=float(np.where(absolute, err, 0.0).max(initial=0.0)),
        worst_param=str(np.repeat(list(store.params), sizes)[rel.argmax()]) if max_rel else "",
        n_entries=err.size)
