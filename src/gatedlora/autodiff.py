"""Minimal reverse-mode differentiation over 2-D float64 arrays.

The op set is small and closed: matmul, transpose, add (same shape or
column bias), scalar multiply (by a python float, or per-column by a 1xn
node), SiLU, sigmoid, abs, sin, clip-from-above, softmax cross-entropy,
and a quadratic row-space penalty. Every op here is covered by
finite-difference checks in the test suite; do not add ops without
extending those checks.

Values are immutable after construction; gradients are accumulated only
inside a single backward() call, which visits each node exactly once in
reverse topological order. A node that needs no gradient keeps neither
its parents nor its reverse-pass closure, so graph-free callers (inside
`no_grad()`) build no graph at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

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
    """One value in the computation graph plus its reverse-pass record."""

    __slots__ = ("value", "grad", "parents", "requires_grad", "_push")

    def __init__(
        self,
        value,
        parents: tuple = (),
        push: Optional[Callable[["DiffNode"], None]] = None,
        requires_grad: bool = False,
    ):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        if v.ndim != 2:
            raise ShapeMismatch(f"nodes are 2-D, got shape {v.shape}")
        self.value = v
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in parents)
        )
        # backward() never visits a node that needs no gradient, so such a
        # node need not keep its inputs alive.
        self.parents = parents if self.requires_grad else ()
        self._push = push if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def T(self) -> "DiffNode":
        return transpose(self)


def parameter(value) -> DiffNode:
    """Trainable leaf."""
    return DiffNode(value, requires_grad=True)


def constant(value) -> DiffNode:
    """Non-trainable leaf."""
    return DiffNode(value)


def _accum(node: DiffNode, g: np.ndarray) -> None:
    if node.requires_grad:
        node.grad += g


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
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    for node in order:
        node.grad = np.zeros_like(node.value)
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._push is not None:
            node._push(node)


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")

    def push(out: DiffNode) -> None:
        _accum(a, out.grad @ b.value.T)
        _accum(b, a.value.T @ out.grad)

    return DiffNode(a.value @ b.value, (a, b), push)


def transpose(a: DiffNode) -> DiffNode:
    """(m, n) -> (n, m)."""

    def push(out: DiffNode) -> None:
        _accum(a, out.grad.T)

    return DiffNode(a.value.T, (a,), push)


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    """Elementwise sum; b may also be a (m,1) bias added to every column."""
    if a.shape == b.shape:
        def push(out: DiffNode) -> None:
            _accum(a, out.grad)
            _accum(b, out.grad)
        return DiffNode(a.value + b.value, (a, b), push)
    if b.shape == (a.shape[0], 1):
        def push(out: DiffNode) -> None:
            _accum(a, out.grad)
            _accum(b, out.grad.sum(axis=1, keepdims=True))
        return DiffNode(a.value + b.value, (a, b), push)
    raise ShapeMismatch(f"add {a.shape} + {b.shape}")


def smul(c: float, a: DiffNode) -> DiffNode:
    """Multiply by a python float."""
    c = float(c)

    def push(out: DiffNode) -> None:
        _accum(a, c * out.grad)

    return DiffNode(c * a.value, (a,), push)


def scale_columns(s: DiffNode, a: DiffNode) -> DiffNode:
    """Column j of a scaled by s[0, j]; both receive gradients."""
    if s.shape != (1, a.shape[1]):
        raise ShapeMismatch(f"scale_columns {s.shape} * {a.shape}")

    def push(out: DiffNode) -> None:
        _accum(s, np.sum(out.grad * a.value, axis=0, keepdims=True))
        _accum(a, s.value * out.grad)

    return DiffNode(s.value * a.value, (s, a), push)


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for x below about -709, which gives the
    # right limit 0; only the warning is silenced.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: DiffNode) -> DiffNode:
    v = _logistic(a.value)

    def push(out: DiffNode) -> None:
        _accum(a, out.grad * v * (1.0 - v))

    return DiffNode(v, (a,), push)


def silu(a: DiffNode) -> DiffNode:
    sig = _logistic(a.value)
    v = a.value * sig

    def push(out: DiffNode) -> None:
        # d/dx x*sigma(x) = sigma(x) (1 + x (1 - sigma(x)))
        _accum(a, out.grad * sig * (1.0 + a.value * (1.0 - sig)))

    return DiffNode(v, (a,), push)


def absval(a: DiffNode) -> DiffNode:
    def push(out: DiffNode) -> None:
        _accum(a, out.grad * np.sign(a.value))

    return DiffNode(np.abs(a.value), (a,), push)


def sine(a: DiffNode) -> DiffNode:
    def push(out: DiffNode) -> None:
        _accum(a, out.grad * np.cos(a.value))

    return DiffNode(np.sin(a.value), (a,), push)


def clip_upper(a: DiffNode, hi: float) -> DiffNode:
    """min(a, hi) elementwise; gradient passes only where a < hi."""
    hi = float(hi)
    mask = a.value < hi

    def push(out: DiffNode) -> None:
        _accum(a, out.grad * mask)

    return DiffNode(np.minimum(a.value, hi), (a,), push)


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
    value = np.array([[nll.mean()]])

    def push(out: DiffNode) -> None:
        g = probs.copy()
        g[labels, cols] -= 1.0
        _accum(logits, out.grad[0, 0] * g / n)

    return DiffNode(value, (logits,), push)


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

    def push(out: DiffNode) -> None:
        _accum(x, out.grad[0, 0] * 2.0 * xs)

    return DiffNode(value, (x,), push)
