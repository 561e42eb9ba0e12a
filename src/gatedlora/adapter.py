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

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
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
        self.up = ad.parameter(up.copy())
        self.down = ad.parameter(down.copy())
        self.down.requires_grad = train_down
        self.frozen = False

    def freeze(self) -> None:
        self.frozen = True
        self.up.requires_grad = False
        self.down.requires_grad = False

    def trainable_params(self) -> list[DiffNode]:
        return [p for p in (self.up, self.down) if p.requires_grad]

    def delta(self) -> Mat:
        return self.up.value @ self.down.value


class AdaptedLinear:
    """Frozen weight plus an ordered stack of low-rank branches."""

    def __init__(self, weight: Mat):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.branches: list[LoraBranch] = []

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def forward_node(self, coeffs: list[DiffNode], h: DiffNode) -> DiffNode:
        if len(coeffs) != len(self.branches):
            raise ShapeMismatch(
                f"{len(coeffs)} coefficients for {len(self.branches)} branches"
            )
        out = ad.matmul(ad.constant(self.weight), h)
        for a_i, branch in zip(coeffs, self.branches):
            contrib = ad.matmul(branch.up, ad.matmul(branch.down, h))
            out = ad.add(out, ad.scale_columns(a_i, contrib))
        return out


def integrate(branches: list[LoraBranch], coeffs: list[float]) -> Mat:
    """Coefficient-weighted sum of branch products; zero matrix when empty."""
    if len(coeffs) != len(branches):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(branches)} branches")
    for a_i in coeffs:
        if not 0.0 <= a_i <= 1.0:
            raise ValueError(f"integration coefficient {a_i} outside [0, 1]")
    if not branches:
        raise ShapeMismatch("integrate needs at least one branch for its shape")
    total = np.zeros((branches[0].up.value.shape[0], branches[0].down.value.shape[1]))
    for a_i, branch in zip(coeffs, branches):
        total += a_i * branch.delta()
    return total


def adapted_forward(layer: AdaptedLinear, coeffs: list[float], h: Mat) -> Mat:
    """W h plus the coefficient-weighted branch contributions."""
    rows = [ad.constant(np.full((1, h.shape[1]), a)) for a in coeffs]
    with ad.no_grad():
        out = layer.forward_node(rows, ad.constant(h))
    return out.value


def olora_penalty(branches: list[LoraBranch], lam: float) -> float:
    """lam * sum of squared row-space overlaps of the newest branch with
    every frozen one; zero when the row spaces are mutually orthogonal."""
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if len(branches) <= 1:
        return 0.0
    new = branches[-1].down.value
    total = 0.0
    for old in branches[:-1]:
        overlap = old.down.value @ new.T
        total += float(np.sum(overlap * overlap))
    return lam * total


def olora_penalty_node(branches: list[LoraBranch], lam: float) -> DiffNode | None:
    """Differentiable version of olora_penalty; None when inapplicable."""
    if len(branches) <= 1 or lam == 0.0:
        return None
    gram = np.zeros((branches[0].down.value.shape[1],) * 2)
    for old in branches[:-1]:
        gram += old.down.value.T @ old.down.value
    return ad.smul(lam, ad.row_space_penalty(branches[-1].down, gram))


def inflora_design(h_new: Mat, grad_space: SubspaceBasis, r: int) -> Mat:
    """Row basis for a new branch, orthogonal to the protected input span.

    Rows are the top-r principal directions of the column covariance of
    h_new after projecting off grad_space. If the new inputs do not span
    r clean directions, the basis is completed deterministically from the
    coordinate axes; NoFreeSubspace if the complement is smaller than r.
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
    rows: list[np.ndarray] = []
    floor = 1e-10 * max(1.0, float(evals[0]) if evals.size else 1.0)
    for j in range(evecs.shape[1]):
        if len(rows) == r or evals[j] <= floor:
            break
        v = evecs[:, j].copy()
        # Re-project: eigenvectors of near-zero eigenvalues may leak into
        # the protected span.
        v = project_out(grad_space, v.reshape(-1, 1)).ravel()
        for u in rows:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        rows.append(v / norm)
    axis = 0
    while len(rows) < r and axis < dim:
        v = np.zeros(dim)
        v[axis] = 1.0
        axis += 1
        v = project_out(grad_space, v.reshape(-1, 1)).ravel()
        for u in rows:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm < 1e-6:
            continue
        rows.append(v / norm)
    if len(rows) < r:
        raise NoFreeSubspace(f"could only assemble {len(rows)} of {r} directions")
    return np.stack(rows)


def expand_branch(
    layer: AdaptedLinear,
    r: int,
    rng: Rng,
    *,
    designed_down: Mat | None = None,
) -> LoraBranch:
    """Freeze existing branches and append a fresh trainable one.

    The up half starts at zero so the stack's outputs are unchanged by
    expansion. With designed_down the down half is fixed (only the up
    half trains); otherwise it is Gaussian and trainable.
    """
    if r < 1 or r > min(layer.in_dim, layer.out_dim):
        raise ValueError(f"rank {r} invalid for layer {layer.weight.shape}")
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
