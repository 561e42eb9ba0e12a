"""Gradient projection memory: orthonormal bases of observed layer inputs.

Each layer keeps a basis whose columns approximately span everything that
layer has seen from completed tasks. `factor` projects an input off a
basis's span and eigendecomposes the residual covariance. Growing the
basis (`extend`) appends the leading directions of that factorization
until an energy-capture threshold is met; a QR orthonormalizes the
appended directions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, ThresholdUnreachable
from .numerics import Mat, sym_eig

# Residual eigenvalues below this fraction of the largest are numerical
# noise and never admitted as basis directions.
_EIG_FLOOR = 1e-12


class SubspaceBasis:
    """Orthonormal basis (d x k columns) of a subspace of R^d; k may be 0."""

    def __init__(self, dim: int, basis: Mat | None = None):
        self.dim = int(dim)
        if basis is None:
            basis = np.zeros((self.dim, 0))
        basis = np.asarray(basis, dtype=np.float64)
        if basis.shape[0] != self.dim:
            raise DimMismatch(f"basis has {basis.shape[0]} rows, expected {self.dim}")
        if basis.shape[1] > self.dim:
            raise DimMismatch("more basis columns than ambient dimensions")
        self.basis = basis

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def orthonormality_defect(self) -> float:
        k = self.rank
        if k == 0:
            return 0.0
        return float(np.max(np.abs(self.basis.T @ self.basis - np.eye(k))))


class Factorization(NamedTuple):
    """The factorization of an input h against a basis M (`basis`): the
    eigenvalues (descending) and eigenvectors of the residual covariance
    R R^T, R = h - M M^T h, as `sym_eig` returns them, and the energy sums
    ||h||_F^2 (`total_sq`) and ||h||_F^2 - ||R||_F^2 (`captured_sq`, the
    energy inside span(M))."""

    basis: SubspaceBasis
    evals: np.ndarray
    evecs: Mat
    total_sq: float
    captured_sq: float


def project_out(m: SubspaceBasis, x: Mat) -> Mat:
    """Component of the columns of x orthogonal to span(m): x - M M^T x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != m.dim:
        raise DimMismatch(f"input has {x.shape[0]} rows, basis dim is {m.dim}")
    if m.rank == 0:
        return x.copy()
    return x - m.basis @ (m.basis.T @ x)


def factor(m: SubspaceBasis, h: Mat) -> Factorization:
    """Factor the columns of h against m: project them off span(m) and
    eigendecompose the residual covariance. DimMismatch (from
    `project_out`) if h does not have m's dimension; NonFinite (from
    `sym_eig`) if the covariance holds NaN or Inf."""
    h = np.asarray(h, dtype=np.float64)
    residual = project_out(m, h)
    total_sq = float(np.sum(h * h))
    captured_sq = total_sq - float(np.sum(residual * residual))
    return Factorization(m, *sym_eig(residual @ residual.T), total_sq, captured_sq)


def choose_rank(
    eigs: np.ndarray, captured_sq: float, total_sq: float, eps: float
) -> int:
    """Minimal number of leading residual eigenvalues needed so that

        sum(top-u eigs) + captured_sq >= eps * total_sq.

    eigs are the descending eigenvalues of the residual covariance; their
    partial sums equal the squared Frobenius norm of the rank-u residual
    approximation.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    eigs = np.maximum(np.asarray(eigs, dtype=np.float64), 0.0)
    target = eps * total_sq
    # Absolute slack so eps = 1 with exactly-representable inputs succeeds
    # despite rounding in the eigenvalue sums.
    slack = 1e-9 * max(1.0, total_sq)
    acc = float(captured_sq)
    if acc >= target - slack:
        return 0
    for u, lam in enumerate(eigs, start=1):
        acc += float(lam)
        if acc >= target - slack:
            return u
    raise ThresholdUnreachable(
        f"captured {acc:.6g} of required {target:.6g}; inputs are inconsistent"
    )


def extend(f: Factorization, eps: float) -> SubspaceBasis:
    """Grow the basis of the factorization f (`f.basis`) to capture an eps
    fraction of the energy of its input, into a new basis; the old one is
    left as it was.

    Appends the top-u eigenvectors of the residual covariance, u chosen by
    choose_rank. Existing columns are preserved as a prefix; the new
    columns are projected off them once more and orthonormalized by a QR,
    which keeps the orthonormality defect small across many extensions.
    """
    m = f.basis
    evals, evecs = np.maximum(f.evals, 0.0), f.evecs
    if evals.size and evals[0] > 0:
        keep = evals >= _EIG_FLOOR * evals[0]
        evals, evecs = evals[keep], evecs[:, keep]
    else:
        evals, evecs = evals[:0], evecs[:, :0]
    u = choose_rank(evals, f.captured_sq, f.total_sq, eps)
    if u == 0:
        return SubspaceBasis(m.dim, m.basis.copy())
    added, _ = np.linalg.qr(project_out(m, evecs[:, :u]))
    return SubspaceBasis(m.dim, np.column_stack([m.basis, added]))


class SubspaceMemory:
    """One input-space basis per network layer, grown between tasks."""

    def __init__(self, layer_dims: list[int], eps: float):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.eps = float(eps)
        self.layers = [SubspaceBasis(d) for d in layer_dims]

    @property
    def layer_dims(self) -> list[int]:
        return [b.dim for b in self.layers]

    def extend_all(self, factors: list[Factorization]) -> None:
        """Grow every layer basis by the factorization of that layer's input
        against it (`factor`). Before any layer grows, DimMismatch if there
        is not one factorization per layer and ValueError if one is against
        another basis than its layer's."""
        if len(factors) != len(self.layers):
            raise DimMismatch(f"{len(factors)} factorizations vs {len(self.layers)} bases")
        for i, (f, basis) in enumerate(zip(factors, self.layers)):
            if f.basis is not basis:
                raise ValueError(f"layer {i}'s factorization is against another basis")
        self.layers = [extend(f, self.eps) for f in factors]
