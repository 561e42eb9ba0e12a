"""Gradient projection memory: orthonormal bases of observed layer inputs.

Each layer keeps a basis whose columns approximately span everything that
layer has seen from completed tasks. Growing the basis projects new
inputs off the current span, eigendecomposes the residual covariance and
appends the leading directions until an energy-capture threshold is met;
a QR orthonormalizes the appended directions.
"""

from __future__ import annotations

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


def project_out(m: SubspaceBasis, x: Mat) -> Mat:
    """Component of the columns of x orthogonal to span(m): x - M M^T x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != m.dim:
        raise DimMismatch(f"input has {x.shape[0]} rows, basis dim is {m.dim}")
    if m.rank == 0:
        return x.copy()
    return x - m.basis @ (m.basis.T @ x)


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


def extend(m: SubspaceBasis, h: Mat, eps: float) -> SubspaceBasis:
    """Grow the basis to capture an eps fraction of the energy of h.

    Projects h off the current span, eigendecomposes the residual
    covariance and appends the top-u eigenvectors, u chosen by
    choose_rank. Existing columns are preserved as a prefix; the new
    columns are projected off them once more and orthonormalized by a QR,
    which keeps the orthonormality defect small across many extensions.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != m.dim:
        raise DimMismatch(f"inputs have {h.shape[0]} rows, basis dim is {m.dim}")
    if h.shape[1] == 0:
        return SubspaceBasis(m.dim, m.basis.copy())
    residual = project_out(m, h)
    total_sq = float(np.sum(h * h))
    captured_sq = total_sq - float(np.sum(residual * residual))
    evals, evecs = sym_eig(residual @ residual.T)
    evals = np.maximum(evals, 0.0)
    if evals.size and evals[0] > 0:
        keep = evals >= _EIG_FLOOR * evals[0]
        evals, evecs = evals[keep], evecs[:, keep]
    else:
        evals, evecs = evals[:0], evecs[:, :0]
    u = choose_rank(evals, captured_sq, total_sq, eps)
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

    def extend_all(self, inputs_per_layer: list[Mat]) -> None:
        """Grow every layer basis with that layer's observed input columns."""
        if len(inputs_per_layer) != len(self.layers):
            raise DimMismatch(
                f"{len(inputs_per_layer)} trace layers vs {len(self.layers)} bases"
            )
        self.layers = [
            extend(basis, h, self.eps)
            for basis, h in zip(self.layers, inputs_per_layer)
        ]
