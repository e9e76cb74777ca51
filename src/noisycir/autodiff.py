"""Minimal reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D numpy array wrapped in a Var that lives on a Tape.
Ops record a backward closure; Tape.backward replays them in reverse
recording order. Single-threaded per tape by design.

A forward pass computes values only. Gradient buffers are allocated by
Tape.backward, and work that only the gradient needs (argmax routing, ReLU
masks, softmax probabilities) runs inside the backward closures, so a tape
that is never replayed costs no more than its forward values. Until
backward runs, every Var.grad is None.

mlp_forward records a two-layer perceptron as one fused node: a single
closure back-propagates through both layers and the ReLU, so the hidden
activations get no tape nodes or gradient buffers of their own.

A ParamStore keeps all parameters in one contiguous buffer and all
gradients in another; params[name] and grads[name] are reshaped views into
them, so zeroing the gradients and an optimizer update each touch one array.

Graph lifetime: a tape, its Vars and their closures point at each other; a
Tape used as a context manager cuts those links when the block ends, so
reference counting frees the graph. The taped ops take their values from
array functions (mlp_values; cosine_values and xent_values, which also work
over stacks of batches).

grad_check compares every parameter entry's tape gradient with a central
difference, at a fixed step and tolerances. set_backward_fault, a test hook,
corrupts the backward of one op named in FAULT_OPS, which grad_check must
then catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError

_NORM_EPS = 1e-12

# Test hook: when set to one of FAULT_OPS, that op's backward multiplies its
# gradient by a wrong factor so gradient checks must fail.
FAULT_OPS = ("add", "maxpool_segments", "concat_cols", "slice_rows", "cosine_matrix",
             "softmax_xent_rows", "masked_mean", "matmul", "relu")
_FAULT_OP: str | None = None


def set_backward_fault(op_name: str | None) -> None:
    global _FAULT_OP
    _FAULT_OP = op_name


def _fault(op_name: str, g: np.ndarray) -> np.ndarray:
    if _FAULT_OP == op_name:
        return g * 1.01
    return g


class Var:
    """A matrix value plus its gradient slot on a tape (None until backward)."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, tape: "Tape", value: np.ndarray):
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ShapeError(f"Var must be 2-D, got shape {value.shape}")
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = None
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
        self._params: dict[tuple[int, str], tuple["ParamStore", str, Var]] = {}

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        for node in self._nodes:   # cut tape <-> node <-> closure cycles
            node.tape = node._backward = None
        self._nodes.clear()
        self._params.clear()

    def const(self, value) -> Var:
        return Var(self, value)

    def param(self, store: "ParamStore", name: str) -> Var:
        """Var bound to a named parameter; cached so reuse shares gradients."""
        key = (id(store), name)
        if key not in self._params:
            self._params[key] = (store, name, Var(self, store.params[name]))
        return self._params[key][2]

    def backward(self, loss: Var) -> None:
        if loss.tape is not self:
            raise ShapeError("loss does not belong to this tape")
        if loss.value.size != 1:
            raise ShapeError("backward requires a scalar loss")
        for node in self._nodes:
            node.grad = np.zeros(node.value.shape)
        loss.grad[...] = 1.0
        for node in reversed(self._nodes):
            if node._backward is not None:
                node._backward()

    def accumulate_grads(self) -> None:
        """Add this tape's parameter gradients into their stores."""
        for store, name, var in self._params.values():
            store.grads[name] += var.grad


class ParamStore:
    """Named trainable matrices with gradient accumulators and group tags.

    Parameters live in one contiguous buffer, flat_params, and gradients in
    flat_grads; params[name] and grads[name] are views into them. Adding a
    parameter rebuilds both buffers and every view, so arrays taken out of
    the store before its last add no longer alias it.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.groups: dict[str, str] = {}
        self.slices: dict[str, slice] = {}
        self.flat_params = np.zeros(0)
        self.flat_grads = np.zeros(0)

    def add(self, name: str, value: np.ndarray, group: str = "other") -> None:
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
            self.slices[n] = sl
            self.params[n] = self.flat_params[sl].reshape(v.shape)
            self.grads[n] = self.flat_grads[sl].reshape(v.shape)
            pos += v.size
        self.groups[name] = group

    def init_mlp(self, name: str, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator, group: str = "other") -> None:
        """Two-layer perceptron parameters: linear -> ReLU -> linear, He-initialized."""
        s1, s2 = np.sqrt(2.0 / in_dim), np.sqrt(2.0 / hidden)
        self.add(f"{name}.W1", rng.standard_normal((in_dim, hidden)) * s1, group)
        self.add(f"{name}.b1", np.zeros((1, hidden)), group)
        self.add(f"{name}.W2", rng.standard_normal((hidden, out_dim)) * s2, group)
        self.add(f"{name}.b2", np.zeros((1, out_dim)), group)

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def names(self) -> list[str]:
        return list(self.params.keys())


def mlp_values(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
               b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear -> ReLU -> linear: (output, hidden activations)."""
    h = np.maximum(x @ w1 + b1, 0.0)
    return h @ w2 + b2, h


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


def add(a: Var, b: Var) -> Var:
    """Elementwise add; b may be a (1, n) row bias broadcast over a's rows."""
    tape = _same_tape(a, b)
    if a.shape == b.shape:
        bias = False
    elif b.shape == (1, a.shape[1]):
        bias = True
    else:
        raise ShapeError(f"add {a.shape} + {b.shape}")
    out = Var(tape, a.value + b.value)

    def bw():
        g = _fault("add", out.grad)
        a.grad += g
        if bias:
            b.grad += g.sum(axis=0, keepdims=True)
        else:
            b.grad += g

    out._backward = bw
    return out


def maxpool_segments(a: Var, n_segments: int) -> Var:
    """Max over rows within each of n equal-height row segments.

    Ties break to the lowest row index.
    """
    rows, cols = a.shape
    if rows % n_segments != 0:
        raise ShapeError(f"{rows} rows not divisible into {n_segments} segments")
    seg = rows // n_segments
    v = a.value.reshape(n_segments, seg, cols)
    out = Var(a.tape, v.max(axis=1))

    def bw():
        g = _fault("maxpool_segments", out.grad)
        idx = np.argmax(v, axis=1)  # (n_segments, cols)
        row_idx = idx + seg * np.arange(n_segments)[:, None]
        # Each (row, column) pair occurs once, so a plain scatter-add suffices.
        a.grad[row_idx, np.arange(cols)] += g

    out._backward = bw
    return out


def concat_cols(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols {a.shape} | {b.shape}")
    na = a.shape[1]
    out = Var(tape, np.concatenate([a.value, b.value], axis=1))

    def bw():
        g = _fault("concat_cols", out.grad)
        a.grad += g[:, :na]
        b.grad += g[:, na:]

    out._backward = bw
    return out


def slice_rows(a: Var, start: int, stop: int) -> Var:
    out = Var(a.tape, a.value[start:stop])

    def bw():
        a.grad[start:stop] += _fault("slice_rows", out.grad)

    out._backward = bw
    return out


def cosine_matrix(q: Var, t: Var) -> Var:
    """All-pairs cosine similarities: out[i, j] = cos(q_i, t_j)."""
    tape = _same_tape(q, t)
    if q.shape[1] != t.shape[1]:
        raise ShapeError(f"cosine_matrix widths {q.shape} vs {t.shape}")
    sims, (qh, qn), (th, tn) = cosine_values(q.value, t.value)
    out = Var(tape, sims)

    def bw():
        g = _fault("cosine_matrix", out.grad)
        dqh = g @ th
        dth = g.T @ qh
        # a clamped row maps as x / eps, which has no tangent projection
        q.grad += (dqh - (qn > _NORM_EPS) * (dqh * qh).sum(axis=1, keepdims=True) * qh) / qn
        t.grad += (dth - (tn > _NORM_EPS) * (dth * th).sum(axis=1, keepdims=True) * th) / tn

    out._backward = bw
    return out


def softmax_xent_rows(sims: Var, tau: float) -> Var:
    """Per-row temperature-scaled softmax cross-entropy against the diagonal.

    Row i yields -log softmax(sims[i] / tau)[i], computed with the row-max
    subtracted for stability. Output shape (B, 1).
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    b = sims.shape[0]
    if sims.shape != (b, b):
        raise ShapeError(f"softmax_xent_rows expects square matrix, got {sims.shape}")
    losses, e, s = xent_values(sims.value, tau)
    out = Var(sims.tape, losses)

    def bw():
        g = _fault("softmax_xent_rows", out.grad)
        d = e / s - np.eye(b)
        sims.grad += g * d / tau

    out._backward = bw
    return out


def masked_mean(v: Var, weights: np.ndarray) -> Var:
    """(1/B) * sum_i weights[i] * v[i] for a (B, 1) column and constant weights."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    b = v.shape[0]
    if v.shape[1] != 1 or w.shape[0] != b:
        raise ShapeError(f"masked_mean on shape {v.shape} with {w.shape[0]} weights")
    out = Var(v.tape, np.array([[float(v.value[:, 0] @ w) / b]]))

    def bw():
        g = _fault("masked_mean", out.grad[0, 0])
        v.grad[:, 0] += g * w / b

    out._backward = bw
    return out


def mlp_forward(x: Var, store: ParamStore, name: str) -> Var:
    """Two-layer perceptron: linear -> ReLU -> linear, parameters from store.

    Recorded as one tape node. Its backward applies the fault hooks of the
    add, matmul and relu ops it stands for, in the order the composed ops
    would run them.
    """
    w1 = x.tape.param(store, f"{name}.W1")
    b1 = x.tape.param(store, f"{name}.b1")
    w2 = x.tape.param(store, f"{name}.W2")
    b2 = x.tape.param(store, f"{name}.b2")
    if x.shape[1] != w1.shape[0]:
        raise ShapeError(f"MLP {name}: input width {x.shape[1]} != {w1.shape[0]}")
    y, h = mlp_values(x.value, w1.value, b1.value, w2.value, b2.value)
    out = Var(x.tape, y)

    def bw():
        g = _fault("add", out.grad)
        b2.grad += g.sum(axis=0, keepdims=True)
        g = _fault("matmul", g)
        dh = g @ w2.value.T
        w2.grad += h.T @ g
        g = _fault("relu", dh) * (h > 0.0)
        g = _fault("add", g)
        b1.grad += g.sum(axis=0, keepdims=True)
        g = _fault("matmul", g)
        x.grad += g @ w1.value.T
        w1.grad += x.value.T @ g

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
    group_worst: dict[str, float] = field(default_factory=dict)


_STEP = 1e-6       # central-difference step
_TOL = 1e-5        # relative tolerance
_ABS_FLOOR = 1e-6  # gradients below this are judged absolutely
_ABS_TOL = 1e-8    # absolute tolerance


def grad_check(f, store: ParamStore) -> GradCheckReport:
    """Compare tape gradients of scalar f(store) against central differences.

    An entry passes absolutely when the discrepancy is within _ABS_TOL (this
    covers zero gradients and entries below _ABS_FLOOR, whose quotient would
    be dominated by finite-difference roundoff); all other entries must meet
    the relative tolerance _TOL, and only those feed the reported relative error.
    """
    store.zero_grads()
    out = f(store)
    with out.tape:  # every tape is closed, so reference counting frees it
        if not np.isfinite(out.value).all():
            raise NumericalError("gradient check target evaluated non-finite")
        out.tape.backward(out)
        out.tape.accumulate_grads()
    analytic = {k: v.copy() for k, v in store.grads.items()}

    max_rel = 0.0
    max_abs = 0.0
    worst = ""
    n = 0
    group_worst: dict[str, float] = {}
    ok = True
    for name, p in store.params.items():
        flat = p.reshape(-1)
        aflat = analytic[name].reshape(-1)
        pw = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _STEP
            with (out := f(store)).tape:
                f_hi = out.scalar()
            flat[j] = orig - _STEP
            with (out := f(store)).tape:
                f_lo = out.scalar()
            flat[j] = orig
            num = (f_hi - f_lo) / (2.0 * _STEP)
            ana = aflat[j]
            denom = max(abs(ana), abs(num))
            diff = abs(ana - num)
            n += 1
            if diff <= _ABS_TOL or denom < _ABS_FLOOR:  # judged absolutely
                err = diff
                ok = ok and diff <= _ABS_TOL
                max_abs = max(max_abs, err)
            else:
                err = diff / denom
                if err > _TOL:
                    ok = False
                if err > max_rel:
                    max_rel, worst = err, name
            pw = max(pw, err)
        grp = store.groups[name]
        group_worst[grp] = max(group_worst.get(grp, 0.0), pw)
    return GradCheckReport(passed=ok, max_rel_error=max_rel, max_abs_error=max_abs,
                           worst_param=worst, n_entries=n,
                           group_worst=group_worst)
