"""Continual learning with gated integration of expandable low-rank
adapter branches.

Module map:
  errors     exception types shared across the package
  numerics   dense float64 linear algebra, deterministic RNG, LAPACK eig
  autodiff   minimal reverse-mode engine over 2-D arrays
  subspace   gradient projection memory (orthonormal input bases)
  gating     per-task gate networks and the orthogonality constraints
  adapter    expandable low-rank branches and update strategies
  model      toy frozen backbone, synthetic tasks, file ingestion
  optim      AdamW with a per-parameter delta transform hook
  params     trainable-parameter accounting for known architectures
  continual  per-task orchestration and metrics
"""

__version__ = "0.1.0"
