"""Gradient projection memory: orthonormal bases of observed layer inputs.

Each layer keeps a basis whose columns approximately span everything that
layer has seen from completed tasks. Growing the basis projects new
inputs off the current span, eigendecomposes the residual covariance and
appends the leading directions until an energy-capture threshold is met;
a QR orthonormalizes the appended directions.

A basis never changes in place; growing it makes a new one. So what was
computed against a basis stays true of it, and the basis remembers it for
the last input it factored: the eigendecomposition of that input's
residual with its energy sums, and the basis that input grew it into.
An input factored against one basis more than once, by the InfLoRA
design (`adapter.inflora_design`) and by `extend`, or by two memories
that hold one basis object, is projected and eigendecomposed once; two
memories that grow one basis with one input at one eps end up holding
one new basis. The memo lives on the basis and goes with it; nothing is
kept at module level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatch, ThresholdUnreachable
from .numerics import Mat, sym_eig

# Residual eigenvalues below this fraction of the largest are numerical
# noise and never admitted as basis directions.
_EIG_FLOOR = 1e-12


class Factorization(NamedTuple):
    """An input h factored against a basis M: the eigenvalues (descending)
    and eigenvectors of the residual covariance R R^T, R = h - M M^T h, as
    `sym_eig` returns them, and the energy sums ||h||_F^2 (`total_sq`) and
    ||h||_F^2 - ||R||_F^2 (`captured_sq`, the energy inside span(M))."""

    evals: np.ndarray
    evecs: Mat
    total_sq: float
    captured_sq: float


class SubspaceBasis:
    """Orthonormal basis (d x k columns) of a subspace of R^d; k may be 0.

    A basis never changes in place (`extend` returns a new one), so it
    can remember work done against it. It keeps the factorization of the
    last input recorded on it (`record`, read back by `factored`) and the
    basis that `extend` grew from that input, with the eps it grew at.
    Both are keyed by the input's content, its shape and bytes; a new
    input replaces them.
    """

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
        self._factored: tuple[Mat, Factorization] | None = None  # (input, its factors)
        self._grown: tuple[float, SubspaceBasis] | None = None  # (eps, extend's result)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def orthonormality_defect(self) -> float:
        k = self.rank
        if k == 0:
            return 0.0
        return float(np.max(np.abs(self.basis.T @ self.basis - np.eye(k))))

    def factored(self, h: Mat) -> Factorization | None:
        """The factorization last recorded, if it was recorded for an input
        of h's shape and bytes; None otherwise."""
        if self._factored is not None:
            seen, factors = self._factored
            if seen.shape == h.shape and np.array_equal(seen, h):
                return factors
        return None

    def record(self, h: Mat, residual: Mat, eig: tuple[np.ndarray, Mat]) -> Factorization:
        """Remember h's factorization, from its residual off the span
        (`project_out`) and the `sym_eig` of the residual's covariance, in
        place of the last input's, and forget what that input grew the
        basis into. Returns the factorization."""
        total_sq = float(np.sum(h * h))
        factors = Factorization(*eig, total_sq, total_sq - float(np.sum(residual * residual)))
        self._factored = (h.copy(), factors)
        self._grown = None
        return factors


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
    """Grow the basis to capture an eps fraction of the energy of h, into a
    new basis; m is left as it was.

    Projects h off the current span, eigendecomposes the residual
    covariance and appends the top-u eigenvectors, u chosen by
    choose_rank. Existing columns are preserved as a prefix; the new
    columns are projected off them once more and orthonormalized by a QR,
    which keeps the orthonormality defect small across many extensions.

    The factorization comes from m's memo when h is the input m last
    factored (`SubspaceBasis.factored`), and is recorded there otherwise.
    When m was already grown from h at this eps, that basis object itself
    is returned: an input and eps grow a basis once.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != m.dim:
        raise DimMismatch(f"inputs have {h.shape[0]} rows, basis dim is {m.dim}")
    if h.shape[1] == 0:
        return SubspaceBasis(m.dim, m.basis.copy())
    factors = m.factored(h)
    if factors is None:
        residual = project_out(m, h)
        factors = m.record(h, residual, sym_eig(residual @ residual.T))
    elif m._grown is not None and m._grown[0] == eps:
        return m._grown[1]
    evals, evecs = np.maximum(factors.evals, 0.0), factors.evecs
    if evals.size and evals[0] > 0:
        keep = evals >= _EIG_FLOOR * evals[0]
        evals, evecs = evals[keep], evecs[:, keep]
    else:
        evals, evecs = evals[:0], evecs[:, :0]
    u = choose_rank(evals, factors.captured_sq, factors.total_sq, eps)
    if u == 0:
        grown = SubspaceBasis(m.dim, m.basis.copy())
    else:
        added, _ = np.linalg.qr(project_out(m, evecs[:, :u]))
        grown = SubspaceBasis(m.dim, np.column_stack([m.basis, added]))
    m._grown = (eps, grown)
    return grown


class SubspaceMemory:
    """One input-space basis per network layer, grown between tasks. Two
    memories may hold one basis object (`continual.ContinualState` starts
    two so): growing one replaces its layer with a new basis and leaves the
    other's as it was."""

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
