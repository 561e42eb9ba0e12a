"""A minimal reverse-mode graph over 2-D float64 arrays: the oracle of the
package's hand-written backward passes.

The package trains through explicit kernels (`gatedlora.autodiff`), each
replaying the IEEE operations of a chain of elementary nodes. This module
keeps those nodes (matmul, same-shape add, SiLU, sigmoid, abs, scalar and
per-column scale, softmax cross-entropy and the unweighted row-space
penalty) and the engine that differentiates them, written independently
of the package's kernels, so that a model built node by node here gives
the gradients every kernel and every training step must equal byte for
byte.

Each op builds its node from (parent, vjp) pairs: a vjp (vector-Jacobian
product) maps the node's gradient to that parent's share. A node keeps
only the pairs whose parent needs a gradient (`needs_grad`), and none
inside `no_grad()`. What trains is decided by type, as in the package: a
`Param` is a trainable leaf, so the package's weights take part as they
are and `backward` sets their `.grad`; a constant leaf (`constant`) and a
node built from no trainable parent need none. Gradients accumulate only
inside a single backward(), which visits each node once in reverse
topological order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from gatedlora.autodiff import Param
from gatedlora.errors import IdOutOfRange, ShapeMismatch


class NonScalarLoss(Exception):
    """backward() was called on a node that is not 1x1."""


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
    share.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, inputs: tuple = ()):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeMismatch(f"nodes are 2-D, got shape {v.shape}")
        self.value = v
        self.grad: Optional[np.ndarray] = None
        kept = [pair for pair in inputs if needs_grad(pair[0])] if _grad_enabled else ()
        self.requires_grad = bool(kept)
        self.parents, self.vjps = zip(*kept) if kept else ((), ())

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape


def needs_grad(node) -> bool:
    """A `Param` needs a gradient by its type; a node when it was built,
    outside `no_grad()`, from a parent that needs one."""
    return isinstance(node, Param) or (isinstance(node, DiffNode) and node.requires_grad)


def parameter(value) -> Param:
    """Trainable leaf: the package's own weight type."""
    return Param(value)


def constant(value) -> DiffNode:
    """Non-trainable leaf."""
    return DiffNode(value)


def parents(node) -> tuple:
    """The recorded parents of a node; a leaf has none."""
    return getattr(node, "parents", ())


def backward(loss: DiffNode) -> None:
    """Populate .grad with d(loss)/d(node) for every reachable node.

    Gradients from any previous backward pass are discarded first, so
    persistent parameter leaves can be reused across training steps.
    """
    if loss.value.shape != (1, 1):
        raise NonScalarLoss(f"loss must be 1x1, got shape {loss.value.shape}")
    order: list = []
    seen: set[int] = set()
    stack: list = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in parents(node):
            stack.append((p, False))
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        for p, vjp in zip(parents(node), getattr(node, "vjps", ())):
            g = vjp(node.grad)
            # Never in place: add's vjp hands the same array to both parents.
            p.grad = g if p.grad is None else p.grad + g


def matmul(a, b) -> DiffNode:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
    return DiffNode(
        a.value @ b.value,
        ((a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g)),
    )


def add(a, b) -> DiffNode:
    """Elementwise sum of two same-shape nodes."""
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"add {a.value.shape} + {b.value.shape}")
    return DiffNode(a.value + b.value, ((a, lambda g: g), (b, lambda g: g)))


def _logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(a) -> DiffNode:
    sig = _logistic(a.value)
    # d/dx x*sigma(x) = sigma(x) (1 + x (1 - sigma(x)))
    return DiffNode(
        a.value * sig, ((a, lambda g: g * sig * (1.0 + a.value * (1.0 - sig))),)
    )


def sigmoid(a) -> DiffNode:
    v = _logistic(a.value)
    return DiffNode(v, ((a, lambda g: g * v * (1.0 - v)),))


def absval(a) -> DiffNode:
    return DiffNode(np.abs(a.value), ((a, lambda g: g * np.sign(a.value)),))


def smul(c, a) -> DiffNode:
    """Multiply by a python float."""
    c = float(c)
    return DiffNode(c * a.value, ((a, lambda g: c * g),))


def scale_columns(s, a) -> DiffNode:
    """Column j of a scaled by s[0, j]; both receive gradients. A constant
    s of a's shape scales a entry by entry."""
    return DiffNode(
        s.value * a.value,
        (
            (s, lambda g: np.sum(g * a.value, axis=0, keepdims=True)),
            (a, lambda g: s.value * g),
        ),
    )


def softmax_cross_entropy(logits, labels: np.ndarray) -> DiffNode:
    """Mean negative log-likelihood of integer labels under column softmax.

    logits: (C, n); labels: n integer class ids. Returns a 1x1 node.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes, n = logits.value.shape
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} vs batch {n}")
    if n == 0:
        raise ShapeMismatch("empty batch")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise IdOutOfRange("label id outside logit range")
    shifted = logits.value - logits.value.max(axis=0, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=0, keepdims=True)
    probs = expv / denom
    cols = np.arange(n)
    nll = -(shifted[labels, cols] - np.log(denom[0]))

    def vjp(g: np.ndarray) -> np.ndarray:
        dprobs = probs.copy()
        dprobs[labels, cols] -= 1.0
        return g[0, 0] * dprobs / n

    return DiffNode(np.array([[nll.mean()]]), ((logits, vjp),))


def row_space_penalty(x, s: np.ndarray) -> DiffNode:
    """tr(X S X^T) for a constant symmetric S, as a 1x1 node; gradient
    2 X S."""
    if s.shape != (x.value.shape[1],) * 2:
        raise ShapeMismatch(f"penalty metric {s.shape} vs rows of dim {x.value.shape[1]}")
    xs = x.value @ s
    value = np.array([[float(np.sum(xs * x.value))]])
    return DiffNode(value, ((x, lambda g: g[0, 0] * 2.0 * xs),))


def nodes(node) -> list:
    """Every node reachable from `node` through recorded parents, `node`
    included: the nodes a backward pass from it visits."""
    seen = {}
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(parents(n))
    return list(seen.values())
