"""Dense float64 linear algebra and deterministic random generation.

Matrices are plain 2-D float64 numpy arrays (row-major). All public
operations are deterministic functions of their inputs plus an explicit
`Rng`; there is no global random state anywhere in the package.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import NonFinite, NonSymmetric

# Alias used throughout the package for 2-D float64 arrays.
Mat = np.ndarray

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic random stream (PCG64) with stable child derivation.

    Identical seeds produce identical streams on every platform. Children
    are derived by hashing (seed, tag), so independent components of a run
    can draw from independent streams without any ordering coupling.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "Rng":
        digest = hashlib.blake2b(
            f"{self.seed}:{tag}".encode(), digest_size=8
        ).digest()
        return Rng(int.from_bytes(digest, "little"))

    def normal(self, rows: int, cols: int, std: float = 1.0) -> Mat:
        return self._gen.normal(0.0, std, size=(rows, cols))

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n integers uniform in [low, high)."""
        return self._gen.integers(low, high, size=n)

    def uniform(self, n: int) -> np.ndarray:
        return self._gen.uniform(0.0, 1.0, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def gaussian_init(rng: Rng, rows: int, cols: int, std: float) -> Mat:
    """i.i.d. N(0, std^2) matrix drawn from the given deterministic stream."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    return rng.normal(rows, cols, std)


def require_finite(m: Mat, what: str = "matrix") -> None:
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains NaN or Inf")


def sym_eig(mat: Mat) -> tuple[np.ndarray, Mat]:
    """Eigendecomposition of a symmetric matrix by LAPACK's symmetric
    solver (`np.linalg.eigh`).

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and eigenvectors as orthonormal columns, so that
    mat == eigenvectors @ diag(eigenvalues) @ eigenvectors.T to within
    float64 rounding. The sign of each eigenvector is whatever LAPACK
    returns.
    """
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {a.shape}")
    require_finite(a, "sym_eig input")
    if a.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-10 * scale:
        raise NonSymmetric("matrix is not symmetric within 1e-10 (scaled)")
    evals, evecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-evals, kind="stable")
    return evals[order], evecs[:, order]
