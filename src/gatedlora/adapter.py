"""Expandable low-rank branches over frozen linear weights.

Each task gets its own (down, up) pair; finished branches are frozen and
the live one is combined with them through per-sample integration
coefficients. Branch update strategies differ only in what the new
branch's row basis looks like and which half is trainable: plain
expansion tunes both halves, the penalty strategy adds a row-space
orthogonality loss against old branches, and the designed strategy picks
the row basis orthogonal to old-task input spans and freezes it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Param
from .errors import NoFreeSubspace, ShapeMismatch
from .numerics import Mat, Rng, gaussian_init, sym_eig
from .subspace import SubspaceBasis, project_out

BRANCH_INIT_STD = 0.02


class LoraBranch:
    """One low-rank pair: up (d_out x r, zeros) and down (r x d_in, Gaussian)."""

    def __init__(self, up: Mat, down: Mat, *, train_down: bool = True):
        if up.shape[1] != down.shape[0]:
            raise ShapeMismatch(f"rank mismatch: up {up.shape}, down {down.shape}")
        self.rank = up.shape[1]
        self.up = Param(up.copy())
        self.down = Param(down.copy())
        self.down.requires_grad = train_down

    @property
    def frozen(self) -> bool:
        """True once neither half trains; read from `requires_grad`, the
        flag the optimizer and the backward passes go by."""
        return not (self.up.requires_grad or self.down.requires_grad)

    def freeze(self) -> None:
        self.up.requires_grad = False
        self.down.requires_grad = False

    def trainable_params(self) -> list[Param]:
        return [p for p in (self.up, self.down) if p.requires_grad]


class LayerCache(NamedTuple):
    """What `AdaptedLinear.backward` reads of a forward: the input h; the
    frozen part's (coefficients, ups, downs), as `autodiff.lowrank_sum`
    took them; and, for each branch added after it, (coefficient, branch,
    down @ h, up @ down @ h). `live` is True when the last of those
    branches is weighted by the live coefficient."""

    h: np.ndarray
    fused: tuple
    terms: list
    live: bool


class AdaptedLinear:
    """Frozen weight plus an ordered stack of low-rank branches, all of one
    rank."""

    def __init__(self, weight: Mat):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.branches: list[LoraBranch] = []
        # (K, ups, downs): the ups (m, K r) side by side and the downs
        # (K r, d) stacked of the first K branches, all frozen:
        # `lowrank_sum`'s form of any k <= K of them.
        self._frozen = (0, np.empty((self.out_dim, 0)), np.empty((0, self.in_dim)))

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def _frozen_part(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """ups (m, k r) and downs (k r, d) of the first k branches, which
        must be frozen. Frozen values never change and branches are only
        appended, so the arrays are rebuilt only when k outgrows them. They
        then hold those values: each branch's up and down are rebound to
        their views, equal byte for byte, so the layer does not keep them
        twice."""
        built, ups, downs = self._frozen
        if k > built:
            lead = self.branches[:k]
            ups = np.concatenate([b.up.value for b in lead], axis=1)
            downs = np.concatenate([b.down.value for b in lead])
            for b, up, down in zip(lead, np.hsplit(ups, k), np.vsplit(downs, k)):
                b.up.value, b.down.value = up, down
            self._frozen = (k, ups, downs)
        kr = k * self.branches[0].rank if k else 0
        return ups[:, :kr], downs[:kr]

    def forward(
        self, fixed: np.ndarray, live: np.ndarray | None, h: np.ndarray
    ) -> tuple[np.ndarray, LayerCache]:
        """W h + sum_i a_i * up_i(down_i h) over every branch, and the cache
        `backward` reads.

        `fixed`, a (j, 1, n) array, holds the coefficients of the first j
        branches, which take no gradient; `live`, unless None, is the (1, n)
        coefficient of branch j, the last, whose gradient `backward`
        returns.

        W h and the leading branches that are frozen and weighted by a row
        of `fixed` are one `autodiff.lowrank_sum` over `fixed[:k]` and
        `_frozen_part`; the search for them starts past the branches it
        already holds. Every later branch is one `autodiff.add_branch`, its
        coefficient a row of `fixed` or `live`, added in stack order.
        """
        n_coeffs = len(fixed) + (live is not None)
        if n_coeffs != len(self.branches):
            raise ShapeMismatch(f"{n_coeffs} coefficients for {len(self.branches)} branches")
        k = min(self._frozen[0], len(fixed))
        while k < len(fixed) and self.branches[k].frozen:
            k += 1
        fused = (fixed[:k], *self._frozen_part(k))
        out = ad.lowrank_sum(h, self.weight, *fused)
        coeffs = list(fixed[k:]) + ([] if live is None else [live])
        terms = []
        for a_i, branch in zip(coeffs, self.branches[k:]):
            if branch.down.value.shape[1] != h.shape[0]:
                raise ShapeMismatch(f"branch down {branch.down.value.shape} @ h {h.shape}")
            z = branch.down.value @ h
            out, contrib = ad.add_branch(out, a_i, branch.up.value, z)
            terms.append((a_i, branch, z, contrib))
        return out, LayerCache(h, fused, terms, live is not None)

    def backward(
        self, cache: LayerCache, g: np.ndarray, input_grad: bool
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Backward pass of `forward` for the output gradient g: sets `.grad`
        on the trainable halves of its branches and returns the gradients of
        h (when `input_grad`; None otherwise) and of the live coefficient
        (None without one).

        Each branch's shares are `autodiff.add_branch_vjp`'s and the frozen
        part's `autodiff.lowrank_sum_vjp`'s. h adds the frozen part's share
        and then each branch's in stack order.
        """
        h, fused, terms, live = cache
        dh = ad.lowrank_sum_vjp(g, self.weight, *fused) if input_grad else None
        dlive = None
        for i, (a_i, branch, z, contrib) in enumerate(terms):
            up, down = branch.up, branch.down
            is_live = live and i == len(terms) - 1
            da, dup, dz = ad.add_branch_vjp(
                g, a_i, up.value, z, contrib,
                (is_live, up.requires_grad, down.requires_grad or input_grad),
            )
            if is_live:
                dlive = da
            if up.requires_grad:
                up.grad = dup
            if down.requires_grad:
                down.grad = dz @ h.T
            if input_grad:
                dh += down.value.T @ dz
        return dh, dlive


def olora_gram(branches: list[LoraBranch]) -> Mat | None:
    """Sum of down^T down over every branch but the newest, in stack order;
    None when there is no older branch. The older branches stay frozen while
    the newest trains, so one Gram matrix serves a whole task; the penalty's
    gradient against it is `autodiff.row_space_penalty_grad`."""
    if len(branches) <= 1:
        return None
    gram = np.zeros((branches[0].down.value.shape[1],) * 2)
    for old in branches[:-1]:
        gram += old.down.value.T @ old.down.value
    return gram


def inflora_design(h_new: Mat, grad_space: SubspaceBasis, r: int) -> Mat:
    """Row basis for a new branch, orthogonal to the protected input span.

    Rows are the top-r principal directions of the column covariance of
    h_new after projecting off grad_space, orthonormalized after the
    protected basis by one complete QR. If the new inputs do not span r
    clean directions, the remaining rows come deterministically from the
    QR's orthonormal basis of the complement; NoFreeSubspace if the
    complement is smaller than r.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    dim = grad_space.dim
    if dim - grad_space.rank < r:
        raise NoFreeSubspace(
            f"complement has {dim - grad_space.rank} dims, need {r}"
        )
    residual = project_out(grad_space, np.asarray(h_new, dtype=np.float64))
    evals, evecs = sym_eig(residual @ residual.T)
    floor = 1e-10 * max(1.0, float(evals[0]))
    lead = evecs[:, :r][:, evals[:r] > floor]
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
    """Freeze existing branches and append a fresh trainable one of the
    rank they have (ShapeMismatch otherwise).

    The up half starts at zero so the stack's outputs are unchanged by
    expansion. With designed_down the down half is fixed (only the up
    half trains); otherwise it is Gaussian and trainable.
    """
    if r < 1 or r > min(layer.in_dim, layer.out_dim):
        raise ValueError(f"rank {r} invalid for layer {layer.weight.shape}")
    if layer.branches and r != layer.branches[0].rank:
        raise ShapeMismatch(
            f"rank {r} differs from the layer's branches' rank {layer.branches[0].rank}"
        )
    for branch in layer.branches:
        branch.freeze()
    up = np.zeros((layer.out_dim, r))
    if designed_down is not None:
        if designed_down.shape != (r, layer.in_dim):
            raise ShapeMismatch(
                f"designed rows {designed_down.shape} vs ({r}, {layer.in_dim})"
            )
        branch = LoraBranch(up, designed_down, train_down=False)
    else:
        down = gaussian_init(rng, r, layer.in_dim, BRANCH_INIT_STD)
        branch = LoraBranch(up, down)
    layer.branches.append(branch)
    return branch
