"""Reference implementations the tests compare the package against.

The composed autodiff ops below are the op-by-op building blocks the fused
mlp_forward and the batched pooling and similarity ops replaced; no code in
the package calls them. Each keeps its fault hook, so gradient-check tests
can plant a fault in it.

taped_epoch_losses is the trainer's epoch-scope loss pass as it ran before
its losses were stacked: one forward_batch and one nce_per_sample per chunk.
"""

import numpy as np

from noisycir import trainer
from noisycir.autodiff import _NORM_EPS, Tape, Var, _fault, _same_tape
from noisycir.errors import DegenerateInputError, ShapeError
from noisycir.evaluation import cosine_similarity_matrix, recall_from_similarity
from noisycir.fusion import nce_per_sample

def matmul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} x {b.shape}")
    out = Var(tape, a.value @ b.value)

    def bw():
        g = _fault("matmul", out.grad)
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._backward = bw
    return out


def relu(a: Var) -> Var:
    out = Var(a.tape, np.maximum(a.value, 0.0))

    def bw():
        a.grad += _fault("relu", out.grad) * (a.value > 0.0)

    out._backward = bw
    return out


def emul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"emul {a.shape} * {b.shape}")
    out = Var(tape, a.value * b.value)

    def bw():
        g = _fault("emul", out.grad)
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = bw
    return out


def maxpool_rows(a: Var) -> Var:
    """Column-wise max over rows; gradient routes to the first argmax row."""
    if a.shape[0] < 1:
        raise ShapeError("maxpool_rows on empty matrix")
    idx = np.argmax(a.value, axis=0)
    cols = np.arange(a.shape[1])
    out = Var(a.tape, a.value[idx, cols].reshape(1, -1))

    def bw():
        g = _fault("maxpool_rows", out.grad)
        np.add.at(a.grad, (idx, cols), g[0])

    out._backward = bw
    return out


def vsum(a: Var) -> Var:
    out = Var(a.tape, np.array([[a.value.sum()]]))

    def bw():
        a.grad += _fault("vsum", out.grad[0, 0])

    out._backward = bw
    return out


def cosine(u: Var, v: Var) -> Var:
    """Cosine similarity of two (1, d) vectors; raises on zero-norm input."""
    tape = _same_tape(u, v)
    if u.shape != v.shape or u.shape[0] != 1:
        raise ShapeError(f"cosine {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u.value))
    nv = float(np.linalg.norm(v.value))
    if nu < _NORM_EPS or nv < _NORM_EPS:
        raise DegenerateInputError("cosine of (near-)zero-norm vector")
    c = float(np.dot(u.value[0], v.value[0])) / (nu * nv)
    out = Var(tape, np.array([[c]]))

    def bw():
        g = _fault("cosine", out.grad[0, 0])
        u.grad += g * (v.value / (nu * nv) - c * u.value / (nu * nu))
        v.grad += g * (u.value / (nu * nv) - c * v.value / (nv * nv))

    out._backward = bw
    return out


def recall_at_k(queries: np.ndarray, gallery: np.ndarray, k: int) -> float:
    """Fraction of queries whose index-aligned target ranks in the top k."""
    q = np.asarray(queries)
    g = np.asarray(gallery)
    if q.shape != g.shape:
        raise ShapeError("queries and gallery must align one-to-one")
    return recall_from_similarity(cosine_similarity_matrix(q, g), k)


def taped_epoch_losses(store, samples, train_idx, config) -> list[np.ndarray]:
    """Per-view detached losses over train_idx, one taped forward per chunk."""
    per_chunk = []
    for chunk in trainer._batches(np.asarray(train_idx), config.batch_size,
                                  fold_tail=True):
        views = trainer.forward_batch(Tape(), store, [samples[i] for i in chunk],
                                      config.enable_wcb)
        per_chunk.append([nce_per_sample(q, t, config.temperature).value[:, 0]
                          for q, t in views.pairs()])
    return [np.concatenate(view) for view in zip(*per_chunk)]

