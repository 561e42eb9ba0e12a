"""Expandable low-rank branches over frozen linear weights.

Each task gets its own (down, up) pair. While its task trains, the pair
is the layer's one trainable `LoraBranch`; when the task ends the layer
freezes it, moving both halves to the end of the stacks that hold every
frozen branch. Branches are combined through per-sample integration
coefficients. Branch update strategies differ only in what the new
branch's row basis looks like and which half is trainable: plain
expansion tunes both halves, the penalty strategy adds a row-space
orthogonality loss against old branches, and the designed strategy picks
the row basis orthogonal to old-task input spans and holds it fixed, a
plain array rather than a `Param`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Param
from .errors import NoFreeSubspace, ShapeMismatch
# sym_eig is not called here; bench/check_spans.py still binds adapter.sym_eig.
from .numerics import Mat, Rng, gaussian_init, sym_eig
from .subspace import Factorization, project_out

BRANCH_INIT_STD = 0.02


class LoraBranch:
    """One low-rank pair: up (d_out x r), a `Param`, and down (r x d_in), a
    `Param` or, fixed, a plain array (InfLoRA's designed rows)."""

    def __init__(self, up: Mat, down: Param | Mat):
        self.up = Param(up.copy())
        self.down = down
        if up.shape[1] != self.down_value.shape[0]:
            raise ShapeMismatch(f"rank mismatch: up {up.shape}, down {self.down_value.shape}")
        self.rank = up.shape[1]

    @property
    def down_value(self) -> Mat:
        return self.down.value if isinstance(self.down, Param) else self.down

    def trainable_params(self) -> list[Param]:
        return [p for p in (self.up, self.down) if isinstance(p, Param)]


class LayerCache(NamedTuple):
    """What `AdaptedLinear.backward` reads of a forward: the input h; the
    frozen branches' (coefficients, ups, downs), as `autodiff.lowrank_sum`
    took them; and, when the layer has a trainable branch, its
    (coefficient, branch, down @ h, up @ down @ h), else None. `live` is
    True when that coefficient is the live one."""

    h: np.ndarray
    fused: tuple
    term: tuple | None
    live: bool


class AdaptedLinear:
    """Frozen weight plus a stack of low-rank branches, all of one rank:
    the frozen ones as `autodiff.lowrank_sum` takes them, their ups
    side by side in `ups` (m x K r) and their downs stacked in `downs`
    (K r x d), oldest first, and at most one trainable `branch` after
    them. `freeze` is the only way a branch joins the stacks.

    `forward` is `frozen_part`, W h plus the frozen branches' terms, then
    `add_trainable`, which adds the trainable branch. A caller that holds
    the frozen part already (a pool's memo of the first adapted layer,
    kept up to date with `frozen_terms`) calls `add_trainable` alone."""

    def __init__(self, weight: Mat):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.frozen_count = 0
        self.ups = np.empty((self.out_dim, 0))
        self.downs = np.empty((0, self.in_dim))
        self.branch: LoraBranch | None = None

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def n_branches(self) -> int:
        return self.frozen_count + (self.branch is not None)

    @property
    def rank(self) -> int | None:
        """The rank of every branch of the layer; None before the first."""
        if self.branch is not None:
            return self.branch.rank
        return len(self.downs) // self.frozen_count if self.frozen_count else None

    def freeze(self) -> None:
        """Append the trainable branch's up and down, byte for byte, to
        `ups` and `downs`, leaving no trainable branch; nothing when there
        is none."""
        if self.branch is None:
            return
        self.ups = np.concatenate([self.ups, self.branch.up.value], axis=1)
        self.downs = np.concatenate([self.downs, self.branch.down_value])
        self.frozen_count += 1
        self.branch = None

    def frozen_part(self, fixed: np.ndarray, h: np.ndarray) -> np.ndarray:
        """W h plus the K frozen branches' terms, each weighted by its row
        of `fixed[:K]`: one `autodiff.lowrank_sum` over `ups` and `downs`.
        ShapeMismatch when `fixed` has fewer than K rows."""
        k = self.frozen_count
        if len(fixed) < k:
            raise ShapeMismatch(f"{len(fixed)} fixed coefficients for {k} frozen branches")
        return ad.lowrank_sum(h, self.weight, fixed[:k], self.ups, self.downs)

    def frozen_terms(self, j: int, fixed: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The terms of frozen branches j to K - 1 alone, weighted by
        `fixed[j:K]`: the product `autodiff.lowrank_sum` fuses, over their
        blocks of `ups` and `downs` only, with no W h. A sum that holds the
        first j branches' terms gains the rest by adding it."""
        r = self.rank
        return ad._terms(h, fixed[j : self.frozen_count], self.ups[:, j * r :], self.downs[j * r :])

    def forward(
        self, fixed: np.ndarray, live: np.ndarray | None, h: np.ndarray
    ) -> tuple[np.ndarray, LayerCache]:
        """W h + sum_i a_i * up_i(down_i h) over every branch, and the cache
        `backward` reads: `frozen_part`, then `add_trainable`.

        `fixed`, a (j, 1, n) array, holds the coefficients of the first j
        branches, which take no gradient; `live`, unless None, is the (1, n)
        coefficient of the trainable branch, whose gradient `backward`
        returns. Every frozen branch takes a row of `fixed`.
        """
        return self.add_trainable(self.frozen_part(fixed, h), fixed, live, h)

    def add_trainable(
        self,
        frozen: np.ndarray,
        fixed: np.ndarray,
        live: np.ndarray | None,
        h: np.ndarray,
    ) -> tuple[np.ndarray, LayerCache]:
        """The layer's output on h given `frozen`, W h plus the frozen
        branches' terms (`frozen_part`, or a pool's memo of it), and the
        cache `backward` reads. The trainable branch, if any, is one
        `autodiff.add_branch` onto `frozen`, its coefficient `live` or,
        without one, `fixed[K]`; without it the output is `frozen` itself.
        The coefficients are those `forward` takes.
        """
        k = self.frozen_count
        n_coeffs = len(fixed) + (live is not None)
        if len(fixed) < k or n_coeffs != self.n_branches:
            raise ShapeMismatch(
                f"{len(fixed)} fixed and {int(live is not None)} live coefficients "
                f"for {k} frozen and {self.n_branches - k} trainable branches"
            )
        out, term = frozen, None
        if self.branch is not None:
            a = fixed[k] if live is None else live
            z = self.branch.down_value @ h
            out, contrib = ad.add_branch(frozen, a, self.branch.up.value, z)
            term = (a, self.branch, z, contrib)
        return out, LayerCache(h, (fixed[:k], self.ups, self.downs), term, live is not None)

    def backward(
        self, cache: LayerCache, g: np.ndarray, input_grad: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Backward pass of `forward` for the output gradient g: sets `.grad`
        on the trainable branch's `Param` halves and returns the gradients
        of h (when `input_grad`; None otherwise) and of the live
        coefficient (None without one).

        The frozen branches' share is `autodiff.lowrank_sum_vjp`'s and the
        trainable branch's `autodiff.add_branch_vjp`'s, plus the
        coefficient's only when it is live and the down-product's only when
        down is a `Param` or h takes one. h adds the frozen share and then
        the trainable branch's.
        """
        h, fused, term, live = cache
        dh = ad.lowrank_sum_vjp(g, self.weight, *fused) if input_grad else None
        if term is None:
            return dh, None
        a, branch, z, contrib = term
        dlive = (g * contrib).sum(axis=0, keepdims=True) if live else None
        branch.up.grad, scaled = ad.add_branch_vjp(g, a, z)
        trains = isinstance(branch.down, Param)
        if trains or input_grad:
            dz = branch.up.value.T @ scaled
        if trains:
            branch.down.grad = dz @ h.T
        if input_grad:
            dh += branch.down_value.T @ dz
        return dh, dlive


def olora_gram(layer: AdaptedLinear) -> Mat | None:
    """Sum of down^T down over the layer's frozen branches, the row blocks
    of `downs`, in stack order; None when there is none. They stay frozen
    while the trainable branch trains, so one Gram matrix serves a whole
    task; the penalty's gradient against it is
    `autodiff.row_space_penalty_grad`."""
    if not layer.frozen_count:
        return None
    gram = np.zeros((layer.in_dim,) * 2)
    for down in np.vsplit(layer.downs, layer.frozen_count):
        gram += down.T @ down
    return gram


def inflora_design(f: Factorization, r: int) -> Mat:
    """Row basis for a new branch, orthogonal to the protected input span.

    f is the new task's input h_new factored against the protected basis
    (`subspace.factor`, `f.basis`). Rows are the top-r principal directions
    of the column covariance of h_new after projecting off that basis,
    orthonormalized after the protected basis by one complete QR. If the
    new inputs do not span r clean directions, the remaining rows come
    deterministically from the QR's orthonormal basis of the complement;
    NoFreeSubspace if the complement is smaller than r.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    grad_space = f.basis
    dim = grad_space.dim
    if dim - grad_space.rank < r:
        raise NoFreeSubspace(
            f"complement has {dim - grad_space.rank} dims, need {r}"
        )
    floor = 1e-10 * max(1.0, float(f.evals[0]))
    lead = f.evecs[:, :r][:, f.evals[:r] > floor]
    known = np.column_stack([grad_space.basis, project_out(grad_space, lead)])
    q, _ = np.linalg.qr(known, mode="complete")
    return q[:, grad_space.rank : grad_space.rank + r].T.copy()


def expand_branch(
    layer: AdaptedLinear,
    r: int,
    rng: Rng,
    *,
    designed_down: Mat | None = None,
) -> LoraBranch:
    """Freeze the layer's trainable branch, if any (`AdaptedLinear.freeze`),
    and give it a fresh trainable one of the rank its branches have
    (ShapeMismatch otherwise, before the layer changes).

    The up half starts at zero so the layer's outputs are unchanged by
    expansion. With designed_down the down half is a copy of it, a plain
    array that never trains; otherwise it is a Gaussian `Param`.
    """
    if r < 1 or r > min(layer.in_dim, layer.out_dim):
        raise ValueError(f"rank {r} invalid for layer {layer.weight.shape}")
    if layer.rank not in (None, r):
        raise ShapeMismatch(f"rank {r} differs from the layer's branches' rank {layer.rank}")
    if designed_down is not None and designed_down.shape != (r, layer.in_dim):
        raise ShapeMismatch(f"designed rows {designed_down.shape} vs ({r}, {layer.in_dim})")
    layer.freeze()
    if designed_down is None:
        down = Param(gaussian_init(rng, r, layer.in_dim, BRANCH_INIT_STD))
    else:
        down = designed_down.copy()
    layer.branch = LoraBranch(np.zeros((layer.out_dim, r)), down)
    return layer.branch
