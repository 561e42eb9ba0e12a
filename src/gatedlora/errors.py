"""Exception types shared across the package."""


class GatedLoraError(Exception):
    """Base class for all package errors."""


class NonFinite(GatedLoraError):
    """A matrix contains NaN or Inf entries."""


class NonSymmetric(GatedLoraError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class ShapeMismatch(GatedLoraError):
    """Operands have incompatible shapes."""


class DimMismatch(GatedLoraError):
    """A basis or projection was applied to a vector of the wrong dimension."""


class ThresholdUnreachable(GatedLoraError):
    """The energy-capture criterion cannot be satisfied even with every eigenvalue."""


class EmptyInput(GatedLoraError):
    """An operation that needs at least one element received none."""


class IdOutOfRange(GatedLoraError):
    """A token or class id falls outside the configured range."""


class WindowOverlap(GatedLoraError):
    """The per-task vocabulary windows do not fit in the vocabulary."""


class NoFreeSubspace(GatedLoraError):
    """The orthogonal complement of the protected subspace is too small."""


class OrderViolation(GatedLoraError):
    """Tasks must be learned strictly in sequence order."""


class IncompleteMatrix(GatedLoraError):
    """The accuracy matrix is missing entries needed by a metric."""


class SingleTask(GatedLoraError):
    """Forgetting is undefined for a single task."""


class UnknownPreset(GatedLoraError):
    """Unrecognized architecture preset name."""

