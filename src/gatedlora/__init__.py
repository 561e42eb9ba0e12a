"""Continual learning with gated integration of expandable low-rank
adapter branches.

Module map:
  errors     exception types shared across the package
  numerics   dense float64 linear algebra, deterministic RNG, LAPACK eig
  autodiff   forward and backward kernels of the training step
  subspace   gradient projection memory (orthonormal input bases)
  gating     per-task gate networks and the orthogonality constraints
  adapter    expandable low-rank branches and update strategies
  model      toy frozen backbone, synthetic tasks
  optim      one-pass AdamW over flat moments, per-parameter delta hook
  params     trainable-parameter accounting for known architectures
  continual  per-task orchestration and metrics
"""

__version__ = "0.1.0"
