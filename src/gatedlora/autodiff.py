"""Forward and backward kernels of the model's training step, over 2-D
float64 arrays.

Training differentiates one fixed computation, and each layer writes its
backward pass out by hand from the kernels here (`GatingModule.backward`,
`AdaptedLinear.backward`, `ToyBackbone.backward`); no graph is recorded.
The kernels are: a whole gate network with its squash given by the caller
(`gate_mlp`), one coefficient-weighted low-rank branch added to a running
sum (`add_branch`), a frozen weight plus k coefficient-weighted frozen
low-rank terms applied to one input (`lowrank_sum`), the terms' ups side
by side and their downs stacked so that all k take one product each way,
SiLU, and the gradients of softmax cross-entropy and of a weighted
quadratic row-space penalty.
A forward kernel returns its value and what its backward kernel reads;
a backward kernel (`*_vjp`, a vector-Jacobian product) maps the output's
gradient to the shares its callers read and never writes into that
gradient, which callers hand on to other kernels. The loss value itself
is never formed: training reads only its gradient.

Each kernel replays, in the same order, the IEEE operations of the chain
of elementary reverse-mode graph nodes it stands for (matmul, add,
per-column scale, SiLU, sigmoid, abs and scalar-multiply nodes), so the
layers' backward passes give the gradients such a graph gives, byte for
byte. The test suite keeps that graph as the oracle (`tests/graph.py`),
holds every kernel to its chain and to finite differences, and every
training step's gradients to the oracle's; do not add a kernel without
extending those checks.

Trainable weights are `Param` leaves: the optimizer reads their `.grad`,
which a backward pass sets. Holding a weight as a `Param` is what makes it
train; a fixed weight is a plain array (an InfLoRA branch's designed
`down`) or sits where no backward pass or optimizer reaches it (a layer's
stacks, a run's frozen gates). No kernel takes a flag for what trains.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IdOutOfRange, NonFinite, ShapeMismatch


class Param:
    """A trainable weight: its value and the gradient the last backward
    pass set on it."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeMismatch(f"weights are 2-D, got shape {v.shape}")
        self.value = v
        self.grad: Optional[np.ndarray] = None


def _logistic(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for x below about -709, which gives the
    # right limit 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * sigmoid(a), and the sigmoid, which `silu_vjp` reads."""
    sig = _logistic(a)
    return a * sig, sig


def silu_vjp(g: np.ndarray, a: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """a's gradient for the output gradient g of `silu(a)`, whose sigmoid
    is sig."""
    # d/dx x*sigma(x) = sigma(x) (1 + x (1 - sigma(x)))
    return g * sig * (1.0 + a * (1.0 - sig))


def lowrank_sum(
    h: np.ndarray,
    weight: np.ndarray,
    coeffs: np.ndarray,
    ups: np.ndarray,
    downs: np.ndarray,
) -> np.ndarray:
    """weight @ h + ups @ (A * (downs @ h)): the frozen weight plus k
    coefficient-weighted constant rank-r terms, whose ups sit side by side
    in the (m, k r) `ups` and whose downs are stacked in the (k r, d)
    `downs`. coeffs is (k, 1, n), and A repeats row i of it r times: term
    i's r rows of downs @ h are scaled by it, in place through a (k, r, n)
    view, so no (k r, n) array of coefficients is made. With no term it
    is weight @ h alone. `lowrank_sum_vjp` gives h's gradient.

    Value and gradient are bit-identical to the chain
    add(matmul(weight, h), matmul(ups, scale_columns(A, matmul(downs, h))))
    of elementary nodes; to a sum of per-term `add_branch` chains, which
    scale after the up-product and add term by term, only to rounding.
    """
    k = len(coeffs)
    kr = downs.shape[0]
    if h.shape[0] != weight.shape[1]:
        raise ShapeMismatch(f"lowrank_sum weight {weight.shape} @ h {h.shape}")
    if ups.shape != (weight.shape[0], kr) or downs.shape[1] != h.shape[0]:
        raise ShapeMismatch(f"lowrank_sum {ups.shape} @ {downs.shape} @ {h.shape}")
    if coeffs.shape != (k, 1, h.shape[1]) or (kr % k if k else kr):
        raise ShapeMismatch(
            f"lowrank_sum coefficients {coeffs.shape} for rank {kr} on {h.shape}"
        )
    out = weight @ h
    if k:
        out += _terms(h, coeffs, ups, downs)
    return out


def _terms(
    h: np.ndarray, coeffs: np.ndarray, ups: np.ndarray, downs: np.ndarray
) -> np.ndarray:
    """ups @ (A * (downs @ h)), the k terms `lowrank_sum` adds to
    weight @ h, in a new array: the chain
    matmul(ups, scale_columns(A, matmul(downs, h))). Its callers pass
    shapes `lowrank_sum` would accept."""
    z = downs @ h
    _scale_terms(z, coeffs)
    return ups @ z


def _scale_terms(z: np.ndarray, coeffs: np.ndarray) -> None:
    """Scale each of the k blocks of r rows of a (k r, n) array, in place,
    by its (1, n) row of the (k, 1, n) coeffs."""
    k = len(coeffs)
    view = z.reshape(k, -1, z.shape[1])
    view *= coeffs


def lowrank_sum_vjp(
    g: np.ndarray,
    weight: np.ndarray,
    coeffs: np.ndarray,
    ups: np.ndarray,
    downs: np.ndarray,
) -> np.ndarray:
    """h's gradient for `lowrank_sum`'s output gradient g:
    weight.T @ g + downs.T @ (A * (ups.T @ g))."""
    dh = weight.T @ g
    if len(coeffs):
        pulled = ups.T @ g
        _scale_terms(pulled, coeffs)
        dh += downs.T @ pulled
    return dh


def add_branch(
    out: np.ndarray, coeff: np.ndarray, up: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """out + coeff * (up @ z), coeff (1, n) scaling each column: one
    low-rank branch, its down-product z = down @ h given, added to a
    running sum. Returns the sum in a new array and up @ z, which
    `add_branch_vjp` reads.

    The value is bit-identical to add(out, scale_columns(coeff, up @ z))
    built from matmul, per-column scale and add nodes.
    """
    if (
        up.shape[1] != z.shape[0]
        or out.shape != (up.shape[0], z.shape[1])
        or coeff.shape != (1, z.shape[1])
    ):
        raise ShapeMismatch(
            f"add_branch {out.shape} + {coeff.shape} * {up.shape} @ {z.shape}"
        )
    contrib = up @ z
    value = coeff * contrib
    value += out
    return value, contrib


def add_branch_vjp(
    g: np.ndarray, coeff: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """up's share of `add_branch`'s output gradient g, (coeff * g) @ z.T,
    and coeff * g itself, the gradient of up @ z, in the order of the add,
    scale and matmul chain. The other shares are the chain's one-line
    products, which a caller takes only when it reads them: z's is
    up.T @ (coeff * g), the coefficient's the column sums of
    g * (up @ z) and the running sum's g itself."""
    scaled = coeff * g
    return scaled @ z.T, scaled


class GateCache(NamedTuple):
    """What `gate_mlp_vjp` reads of a gate forward: the weights it ran, the
    input of every layer (`trace`), each SiLU layer's pre-activation and
    its sigmoid, the final sigmoid v and the squash's map of the gate
    row's gradient back to v."""

    weights: list
    trace: list
    acts: list
    v: np.ndarray
    squash_vjp: Callable


def gate_mlp(
    x: np.ndarray, weights: list[np.ndarray], squash
) -> tuple[np.ndarray, GateCache]:
    """A gate network on x as its (1, n) gate row: every weight but the
    last a SiLU layer, then the (1, d) final row, its sigmoid v and
    `squash(v)`, which returns the gate row and the map of the row's
    gradient back to v (see `GateFn.squash`). NonFinite if the final row's
    output has NaN or Inf entries.

    The row is bit-identical to the network built from matmul, SiLU and
    sigmoid nodes and the squash's own nodes: the same products and
    elementwise steps, in that chain's order.
    """
    rows = x.shape[0]
    for w in weights:
        if w.shape[1] != rows:
            raise ShapeMismatch(f"gate layer {w.shape} on inputs of dim {rows}")
        rows = w.shape[0]
    if rows != 1:
        raise ShapeMismatch(f"gate's final layer maps to {rows} rows, not 1")
    trace = [x]
    acts = []  # (pre-activation, its sigmoid) of each SiLU layer
    for w in weights[:-1]:
        z = w @ trace[-1]
        h, sig = silu(z)
        acts.append((z, sig))
        trace.append(h)
    pre = weights[-1] @ trace[-1]
    if not np.isfinite(pre).all():
        raise NonFinite("gate input has NaN or Inf entries")
    v = _logistic(pre)
    gate, squash_vjp = squash(v)
    return gate, GateCache(weights, trace, acts, v, squash_vjp)


def gate_mlp_vjp(g: np.ndarray, cache: GateCache) -> list[np.ndarray]:
    """Every weight's gradient for the gate row's gradient g, in layer
    order. The chain's backward pass runs once, in its order, and stops at
    the first layer: the gate's input takes no gradient."""
    weights, trace, acts, v, squash_vjp = cache
    g = squash_vjp(g)
    g = g * v * (1.0 - v)
    grads = [g @ trace[-1].T]
    for i in range(len(weights) - 1, 0, -1):
        g = weights[i].T @ g
        g = silu_vjp(g, *acts[i - 1])
        grads.append(g @ trace[i - 1].T)
    return grads[::-1]


def softmax_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient, with respect to the (C, n) logits, of the mean negative
    log-likelihood of n integer labels under column softmax:
    (softmax - onehot) / n, the bytes the loss node's backward pass gives
    from a unit loss gradient."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[1]
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels shape {labels.shape} vs batch {n}")
    if n == 0:
        raise ShapeMismatch("empty batch")
    if labels.min() < 0 or labels.max() >= logits.shape[0]:
        raise IdOutOfRange("label id outside logit range")
    expv = np.exp(logits - logits.max(axis=0, keepdims=True))
    probs = expv / expv.sum(axis=0, keepdims=True)
    probs[labels, np.arange(n)] -= 1.0
    probs /= n
    return probs


def row_space_penalty_grad(x: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """Gradient 2 lam X S of lam * tr(X S X^T), for a constant symmetric
    PSD S.

    With S the summed Gram matrix of old adapter rows, tr(X S X^T) is the
    squared Frobenius overlap between the rows of X and every old row
    space. Bit-identical to the backward pass of lam times the unweighted
    penalty node from a unit loss gradient: (lam * 2) X S, in that order.
    """
    lam = float(lam)
    if s.shape != (x.shape[1], x.shape[1]):
        raise ShapeMismatch(f"penalty metric {s.shape} vs rows of dim {x.shape[1]}")
    return lam * 2.0 * (x @ s)
