"""Minimal reverse-mode differentiation over 2-D float64 arrays.

The op set is small and closed: matmul, same-shape add, scalar multiply
(by a python float, or per-column by a 1xn node), SiLU, sigmoid, abs,
sin, clip-from-above, softmax cross-entropy, a quadratic row-space
penalty, and a frozen weight plus coefficient-weighted frozen low-rank
terms applied to one input (`lowrank_sum`). Every op here is covered by
finite-difference checks in the test suite; do not add ops without
extending those checks.

Each op builds its node from (parent, vjp) pairs: a vjp (vector-Jacobian
product) maps the node's gradient to that parent's share. A node keeps
only the pairs whose parent needs a gradient, so backward() computes no
gradient that would be thrown away, and graph-free callers (inside
`no_grad()`) build no graph at all. Values are immutable after
construction; gradients are accumulated only inside a single backward()
call, which visits each node exactly once in reverse topological order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from .errors import NonScalarLoss, ShapeMismatch

_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Within the block, nodes derived from other nodes need no gradient."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class DiffNode:
    """One value in the computation graph plus its reverse-pass record.

    `parents` holds only the inputs that need a gradient, in argument
    order, and `vjps[i]` maps this node's gradient to `parents[i]`'s
    share. A node that needs no gradient keeps neither, so it does not
    keep its inputs alive.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, inputs: tuple = (), requires_grad: bool = False):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        if v.ndim != 2:
            raise ShapeMismatch(f"nodes are 2-D, got shape {v.shape}")
        self.value = v
        self.grad: Optional[np.ndarray] = None
        kept = [pair for pair in inputs if pair[0].requires_grad] if _grad_enabled else ()
        self.requires_grad = requires_grad or bool(kept)
        self.parents, self.vjps = zip(*kept) if kept else ((), ())

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


def parameter(value) -> DiffNode:
    """Trainable leaf."""
    return DiffNode(value, requires_grad=True)


def constant(value) -> DiffNode:
    """Non-trainable leaf."""
    return DiffNode(value)


def backward(loss: DiffNode) -> None:
    """Populate .grad with d(loss)/d(node) for every reachable node.

    Gradients from any previous backward pass are discarded first, so
    persistent parameter leaves can be reused across training steps.
    """
    if loss.value.shape != (1, 1):
        raise NonScalarLoss(f"loss must be 1x1, got shape {loss.value.shape}")
    order: list[DiffNode] = []
    seen: set[int] = set()
    stack: list[tuple[DiffNode, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        for p, vjp in zip(node.parents, node.vjps):
            g = vjp(node.grad)
            # Never in place: add's vjp hands the same array to both parents.
            p.grad = g if p.grad is None else p.grad + g


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    return DiffNode(
        a.value @ b.value,
        ((a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)),
    )


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    """Elementwise sum of two same-shape nodes."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")
    return DiffNode(a.value + b.value, ((a, lambda g: g), (b, lambda g: g)))


def smul(c: float, a: DiffNode) -> DiffNode:
    """Multiply by a python float."""
    c = float(c)
    return DiffNode(c * a.value, ((a, lambda g: c * g),))


def scale_columns(s: DiffNode, a: DiffNode) -> DiffNode:
    """Column j of a scaled by s[0, j]; both receive gradients."""
    if s.shape != (1, a.shape[1]):
        raise ShapeMismatch(f"scale_columns {s.shape} * {a.shape}")
    return DiffNode(
        s.value * a.value,
        (
            (s, lambda g: np.sum(g * a.value, axis=0, keepdims=True)),
            (a, lambda g: s.value * g),
        ),
    )


def lowrank_sum(
    h: DiffNode,
    weight: np.ndarray,
    terms: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> DiffNode:
    """weight @ h plus a * (up @ (down @ h)) for each constant (a, up, down)
    in `terms`, added in order; only h receives a gradient.

    Value and gradient are bit-identical to the same sum built from
    matmul, scale_columns and add nodes over constants: each product and
    each sum is written as those ops write it.
    """
    if h.shape[0] != weight.shape[1]:
        raise ShapeMismatch(f"lowrank_sum weight {weight.shape} @ h {h.shape}")
    out = weight @ h.value
    for a, up, down in terms:
        if up.shape != (out.shape[0], down.shape[0]) or down.shape[1] != h.shape[0]:
            raise ShapeMismatch(f"lowrank_sum {up.shape} @ {down.shape} @ {h.shape}")
        if a.shape != (1, h.shape[1]):
            raise ShapeMismatch(f"lowrank_sum coefficient {a.shape} vs {out.shape}")
        out = out + a * (up @ (down @ h.value))

    def vjp(g: np.ndarray) -> np.ndarray:
        dh = weight.T @ g
        for a, up, down in terms:
            dh = dh + down.T @ (up.T @ (a * g))
        return dh

    return DiffNode(out, ((h, vjp),))


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for x below about -709, which gives the
    # right limit 0; only the warning is silenced.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: DiffNode) -> DiffNode:
    v = _logistic(a.value)
    return DiffNode(v, ((a, lambda g: g * v * (1.0 - v)),))


def silu(a: DiffNode) -> DiffNode:
    sig = _logistic(a.value)
    # d/dx x*sigma(x) = sigma(x) (1 + x (1 - sigma(x)))
    return DiffNode(
        a.value * sig, ((a, lambda g: g * sig * (1.0 + a.value * (1.0 - sig))),)
    )


def absval(a: DiffNode) -> DiffNode:
    return DiffNode(np.abs(a.value), ((a, lambda g: g * np.sign(a.value)),))


def sine(a: DiffNode) -> DiffNode:
    return DiffNode(np.sin(a.value), ((a, lambda g: g * np.cos(a.value)),))


def clip_upper(a: DiffNode, hi: float) -> DiffNode:
    """min(a, hi) elementwise; gradient passes only where a < hi."""
    hi = float(hi)
    mask = a.value < hi
    return DiffNode(np.minimum(a.value, hi), ((a, lambda g: g * mask),))


def softmax_cross_entropy(logits: DiffNode, labels: np.ndarray) -> DiffNode:
    """Mean negative log-likelihood of integer labels under column softmax.

    logits: (C, n); labels: n integer class ids. Returns a 1x1 node.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes, n = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} vs batch {n}")
    if n == 0:
        raise ShapeMismatch("empty batch")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeMismatch("label id outside logit range")
    shifted = logits.value - logits.value.max(axis=0, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=0, keepdims=True)
    cols = np.arange(n)
    nll = -(shifted[labels, cols] - np.log(expv.sum(axis=0)))

    def vjp(g: np.ndarray) -> np.ndarray:
        dprobs = probs.copy()
        dprobs[labels, cols] -= 1.0
        return g[0, 0] * dprobs / n

    return DiffNode(np.array([[nll.mean()]]), ((logits, vjp),))


def row_space_penalty(x: DiffNode, s: np.ndarray) -> DiffNode:
    """tr(X S X^T) for a constant symmetric PSD S; gradient is 2 X S.

    With S the summed Gram matrix of old adapter rows, this is the squared
    Frobenius overlap between the rows of X and every old row space.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (x.shape[1], x.shape[1]):
        raise ShapeMismatch(f"penalty metric {s.shape} vs rows of dim {x.shape[1]}")
    xs = x.value @ s
    value = np.array([[float(np.sum(xs * x.value))]])
    return DiffNode(value, ((x, lambda g: g[0, 0] * 2.0 * xs),))
