"""Minimal reverse-mode differentiation over 2-D float64 arrays.

The op set is small and closed: matmul, same-shape add, SiLU, softmax
cross-entropy, a weighted quadratic row-space penalty, a whole gate
network with its squash given by the caller (`gate_mlp`), one
coefficient-weighted low-rank branch added to a running sum
(`add_branch`), and a frozen weight plus k coefficient-weighted frozen
low-rank terms applied to one input (`lowrank_sum`), the terms passed as
stacked (k, ...) arrays so their products batch. Every op here is
covered by finite-difference checks in the test suite; do not add ops
without extending those checks.

The three fused ops each stand for a chain of elementwise and matmul
steps. Their values and gradients replay, in the same order, the IEEE
operations of that chain, so a model built from them gives the same
bytes as one built step by step; the tests hold each to such a chain.

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

from .errors import NonFinite, NonScalarLoss, ShapeMismatch

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


def _once(chain):
    """`chain(g)` computed once per upstream gradient: a fused node's vjps
    each read their parent's share of one backward pass through its chain
    (backward() hands every vjp of a node the same array)."""
    last: list = [None, None]

    def shares(g: np.ndarray):
        if last[0] is not g:
            last[:] = g, chain(g)
        return last[1]

    return shares


# Most bytes of one of `lowrank_sum`'s batched (c, rows, n) temporaries:
# 8 terms of a 64-row layer at 32 columns, 1 at 256.
_CHUNK_BYTES = 128 * 1024


def _accumulate(total: np.ndarray, terms: np.ndarray) -> None:
    """total += each term of a (c, m, n) stack in order, or += one (m, n)
    term."""
    if terms.ndim == 2:
        total += terms
    else:
        for term in terms:
            total += term


def lowrank_sum(
    h: DiffNode,
    weight: np.ndarray,
    coeffs: np.ndarray,
    ups: np.ndarray,
    downs: np.ndarray,
) -> DiffNode:
    """weight @ h plus coeffs[i] * (ups[i] @ (downs[i] @ h)) for each of k
    stacked constant terms, added in order: coeffs is (k, 1, n), ups is
    (k, m, r) and downs is (k, r, d). Only h receives a gradient.

    Value and gradient are bit-identical to the same sum built from
    `add_branch` nodes over constants: each product and each sum is the
    one those take, in the same order. One batched matmul takes every
    downs[i] @ h. The wider products go in chunks of c terms, as many as
    keep a (c, max(m, d), n) array within `_CHUNK_BYTES`: one batched
    matmul takes a chunk's ups[i] @ (...) (and, in the gradient, its
    products with ups[i].T and with downs[i].T); a chunk of one term, as
    at 256 columns, takes the plain 2-D products of a per-term loop. numpy
    runs each slice of a batched matmul as the 2-D product it stands for,
    so every chunk size gives the same bytes. Both sums accumulate in
    place into a buffer made here, so no node value moves.
    """
    if h.shape[0] != weight.shape[1]:
        raise ShapeMismatch(f"lowrank_sum weight {weight.shape} @ h {h.shape}")
    k = len(ups)
    if (
        ups.ndim != 3
        or downs.shape != (k, ups.shape[2], h.shape[0])
        or ups.shape[1] != weight.shape[0]
    ):
        raise ShapeMismatch(f"lowrank_sum {ups.shape} @ {downs.shape} @ {h.shape}")
    if coeffs.shape != (k, 1, h.shape[1]):
        raise ShapeMismatch(
            f"lowrank_sum coefficients {coeffs.shape} for {k} terms on {h.shape}"
        )
    step = max(1, _CHUNK_BYTES // (8 * max(weight.shape) * max(h.shape[1], 1)))
    # Chunks of one term index 2-D terms: plain products, without the
    # batched call's overhead.
    chunks = range(k) if step == 1 else [slice(i, i + step) for i in range(0, k, step)]
    out = weight @ h.value
    zs = np.matmul(downs, h.value)
    for part in chunks:
        terms = np.matmul(ups[part], zs[part])
        terms *= coeffs[part]
        _accumulate(out, terms)

    def vjp(g: np.ndarray) -> np.ndarray:
        dh = weight.T @ g
        for part in chunks:
            pulled = np.matmul(ups[part].swapaxes(-1, -2), coeffs[part] * g)
            _accumulate(dh, np.matmul(downs[part].swapaxes(-1, -2), pulled))
        return dh

    return DiffNode(out, ((h, vjp),))


def add_branch(
    out: DiffNode,
    coeff: DiffNode | np.ndarray,
    up: DiffNode,
    down: DiffNode | None,
    h: DiffNode,
) -> DiffNode:
    """out + coeff * (up @ (down @ h)), coeff (1, n) scaling each column:
    one low-rank branch added to a running sum. `coeff` is a node, or an
    array when it needs no gradient. With `down` None, h is the branch's
    down-product itself, a node of its own.

    Value and gradients are bit-identical to add(out, coeff * up(down h))
    built from matmul, per-column scale and add nodes: the same products,
    the same elementwise steps, in that chain's order. The products its
    backward pass shares (coeff * g and up.T @ (coeff * g)) are taken once,
    the second only when down or h needs a gradient.
    """
    a = coeff.value if isinstance(coeff, DiffNode) else np.asarray(coeff)
    rank = h.shape[0] if down is None else down.shape[0]
    if (
        (down is not None and down.shape[1] != h.shape[0])
        or up.shape[1] != rank
        or out.shape != (up.shape[0], h.shape[1])
        or a.shape != (1, h.shape[1])
    ):
        inner = f"{h.shape}" if down is None else f"{down.shape} @ {h.shape}"
        raise ShapeMismatch(f"add_branch {out.shape} + {a.shape} * {up.shape} @ {inner}")
    z = h.value if down is None else down.value @ h.value
    contrib = up.value @ z
    value = a * contrib
    value += out.value

    pull = h.requires_grad or (down is not None and down.requires_grad)

    def chain(g: np.ndarray) -> tuple:
        scaled = a * g
        return scaled, up.value.T @ scaled if pull else None

    shares = _once(chain)
    inputs = [(out, lambda g: g)]
    if isinstance(coeff, DiffNode):
        inputs.append((coeff, lambda g: np.sum(g * contrib, axis=0, keepdims=True)))
    inputs.append((up, lambda g: shares(g)[0] @ z.T))
    if down is None:
        inputs.append((h, lambda g: shares(g)[1]))
    else:
        inputs += [
            (down, lambda g: shares(g)[1] @ h.value.T),
            (h, lambda g: down.value.T @ shares(g)[1]),
        ]
    return DiffNode(value, inputs)


def _logistic(x: np.ndarray) -> np.ndarray:
    # Callers silence overflow: exp(-x) overflows to inf for x below about
    # -709, which gives the right limit 0.
    return 1.0 / (1.0 + np.exp(-x))


def silu(a: DiffNode) -> DiffNode:
    with np.errstate(over="ignore"):
        sig = _logistic(a.value)
    # d/dx x*sigma(x) = sigma(x) (1 + x (1 - sigma(x)))
    return DiffNode(
        a.value * sig, ((a, lambda g: g * sig * (1.0 + a.value * (1.0 - sig))),)
    )


def gate_mlp(
    x: DiffNode, weights: list[DiffNode], squash
) -> tuple[DiffNode, list[np.ndarray]]:
    """A gate network on x as one (1, n) node, plus the input of each of
    its layers: every weight but the last a SiLU layer, then the (1, d)
    final row, its sigmoid v and `squash(v)`, which returns the gate row
    and the map of the row's gradient back to v (see `GateFn.squash`).
    NonFinite if the final row's output has NaN or Inf entries.

    Value and gradients are bit-identical to the network built from
    matmul, SiLU and sigmoid nodes and the squash's own nodes: the same
    products and elementwise steps, in that chain's order. The chain's
    backward pass runs once, serves every weight that trains, and x when
    it needs a gradient, and stops below the lowest of them.
    """
    rows = x.shape[0]
    for w in weights:
        if w.shape[1] != rows:
            raise ShapeMismatch(f"gate layer {w.shape} on inputs of dim {rows}")
        rows = w.shape[0]
    if rows != 1:
        raise ShapeMismatch(f"gate's final layer maps to {rows} rows, not 1")
    trace = [x.value]
    acts = []  # (pre-activation, its sigmoid) of each SiLU layer
    with np.errstate(over="ignore"):
        for w in weights[:-1]:
            z = w.value @ trace[-1]
            sig = _logistic(z)
            acts.append((z, sig))
            trace.append(z * sig)
        pre = weights[-1].value @ trace[-1]
        if not np.isfinite(pre).all():
            raise NonFinite("gate input has NaN or Inf entries")
        v = _logistic(pre)
        gate, squash_vjp = squash(v)
    needs = [p.requires_grad for p in (x, *weights)]

    def chain(g: np.ndarray) -> list:
        g = squash_vjp(g)
        g = g * v * (1.0 - v)
        grads = [None] * len(needs)  # x's, then each weight's
        for i in range(len(weights) - 1, -1, -1):
            if needs[i + 1]:
                grads[i + 1] = g @ trace[i].T
            if not any(needs[: i + 1]):
                break
            g = weights[i].value.T @ g
            if i:
                z, sig = acts[i - 1]
                g = g * sig * (1.0 + z * (1.0 - sig))
        else:
            grads[0] = g
        return grads

    shares = _once(chain)
    inputs = [(x, lambda g: shares(g)[0])]
    inputs += [(w, lambda g, i=i: shares(g)[i]) for i, w in enumerate(weights, 1)]
    return DiffNode(gate, inputs), trace


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
    denom = expv.sum(axis=0, keepdims=True)
    probs = expv / denom
    cols = np.arange(n)
    nll = -(shifted[labels, cols] - np.log(denom[0]))

    def vjp(g: np.ndarray) -> np.ndarray:
        dprobs = probs.copy()
        dprobs[labels, cols] -= 1.0
        return g[0, 0] * dprobs / n

    return DiffNode(np.array([[nll.mean()]]), ((logits, vjp),))


def row_space_penalty(x: DiffNode, s: np.ndarray, lam: float) -> DiffNode:
    """lam * tr(X S X^T) for a constant symmetric PSD S; gradient 2 lam X S.

    With S the summed Gram matrix of old adapter rows, tr(X S X^T) is the
    squared Frobenius overlap between the rows of X and every old row
    space. Value and gradient are bit-identical to lam times the unweighted
    penalty as a scalar-multiply node: the gradient is (lam g) 2 X S, in
    that order.
    """
    lam = float(lam)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (x.shape[1], x.shape[1]):
        raise ShapeMismatch(f"penalty metric {s.shape} vs rows of dim {x.shape[1]}")
    xs = x.value @ s
    value = lam * np.array([[float(np.sum(xs * x.value))]])
    return DiffNode(value, ((x, lambda g: (lam * g)[0, 0] * 2.0 * xs),))
