"""Per-task gating networks producing integration coefficients in [0, 1].

A gating module is a small SiLU MLP whose final layer maps to a scalar,
squashed into [0, 1] by a gate function with f(0) = 0. The new module for
task t starts with its first layers copied from the previous module,
which is frozen from then on, and its final layer projected orthogonal
to the stored input subspace, which pins its output to exactly 0 on
anything old tasks produced. Updates are projected the same way so the
pin survives training.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
from .errors import DimMismatch, NonFinite, ShapeMismatch
from .numerics import Mat, Rng, gaussian_init
from .subspace import SubspaceBasis, SubspaceMemory, project_out


class GateFn(enum.Enum):
    """Scalar squashing functions R -> [0, 1].

    All but SIGMOID satisfy f(0) = 0; SIGMOID exists only for the ablation
    that removes the initialization constraints.
    """

    ABS_SIGMOID = "abs_sigmoid"  # |2*sigmoid(b) - 1|
    CLAMP_ABS = "clamp_abs"      # min(|b|, 1)
    ABS_SINE = "abs_sine"        # |sin(pi*b/2)|
    SIGMOID = "sigmoid"          # ablation only; f(0) = 0.5

    def scalar(self, b: float) -> float:
        """Scalar reference form of `apply`, kept for tests to compare against."""
        if not math.isfinite(b):
            raise NonFinite(f"gate input {b!r}")
        if self is GateFn.ABS_SIGMOID:
            # |2*sigmoid(b) - 1| written in terms of |b| so the even
            # symmetry holds bit-exactly.
            e = math.exp(-abs(b))
            return (1.0 - e) / (1.0 + e)
        if self is GateFn.CLAMP_ABS:
            return min(abs(b), 1.0)
        if self is GateFn.ABS_SINE:
            return abs(math.sin(math.pi * b / 2.0))
        # Two branches so that exp never overflows.
        if b < 0:
            e = math.exp(b)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(-b))

    def apply(self, b: DiffNode) -> DiffNode:
        """Differentiable application to a (1, n) pre-gate node."""
        if self is GateFn.ABS_SIGMOID:
            ones = ad.constant(np.ones(b.shape))
            return ad.absval(ad.add(ad.smul(2.0, ad.sigmoid(b)), ad.smul(-1.0, ones)))
        if self is GateFn.CLAMP_ABS:
            return ad.clip_upper(ad.absval(b), 1.0)
        if self is GateFn.ABS_SINE:
            return ad.absval(ad.sine(ad.smul(math.pi / 2.0, b)))
        return ad.sigmoid(b)


def gating_layer_shapes(embed_dim: int, hidden: int, depth: int) -> list[tuple[int, int]]:
    """Weight shapes for a gate MLP with `depth` hidden layers.

    Hidden layers alternate (hidden x d) and (d x hidden); the final layer
    is a row vector over whatever the last hidden layer emits.
    """
    shapes = []
    in_dim = embed_dim
    for layer in range(depth):
        out_dim = hidden if layer % 2 == 0 else embed_dim
        shapes.append((out_dim, in_dim))
        in_dim = out_dim
    shapes.append((1, in_dim))
    return shapes


class GatingModule:
    """SiLU MLP with a scalar gate head; weights live as autodiff leaves."""

    def __init__(self, weights: list[Mat], gate: GateFn):
        for prev, nxt in zip(weights, weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ShapeMismatch(
                    f"layer shapes do not chain: {prev.shape} -> {nxt.shape}"
                )
        if weights[-1].shape[0] != 1:
            raise ShapeMismatch("final gate layer must map to a scalar")
        self.params = [ad.parameter(w.copy()) for w in weights]
        self.gate = gate

    @property
    def input_dims(self) -> list[int]:
        """Input dimension of every layer, hidden plus final."""
        return [p.value.shape[1] for p in self.params]

    @property
    def frozen(self) -> bool:
        """True once no weight trains; read from `requires_grad`, the flag
        the optimizer and autodiff go by."""
        return not any(p.requires_grad for p in self.params)

    def freeze(self) -> None:
        for p in self.params:
            p.requires_grad = False

    def forward_node(self, pooled: DiffNode) -> tuple[DiffNode, list[Mat]]:
        """Gate output (1, n) node plus the input trace of every layer."""
        if pooled.shape[0] != self.input_dims[0]:
            raise ShapeMismatch(
                f"pooled input dim {pooled.shape[0]} vs {self.input_dims[0]}"
            )
        h = pooled
        trace = [h.value]
        for p in self.params[:-1]:
            h = ad.silu(ad.matmul(p, h))
            trace.append(h.value)
        pre = ad.matmul(self.params[-1], h)
        if not np.isfinite(pre.value).all():
            raise NonFinite("gate input has NaN or Inf entries")
        return self.gate.apply(pre), trace

    def forward_values(self, pooled: Mat) -> tuple[np.ndarray, list[Mat]]:
        """Graph-free forward; returns the (n,) gate row and the trace."""
        with ad.no_grad():
            out, trace = self.forward_node(ad.constant(pooled))
        return out.value[0], trace


def init_new_gating(
    prev: GatingModule | None,
    memory: SubspaceMemory,
    rng: Rng,
    *,
    shapes: list[tuple[int, int]],
    gate: GateFn,
    init_std: float = 0.02,
    project_final: bool = True,
) -> GatingModule:
    """Freeze the previous task's gate module and build the new task's.

    Hidden layers are copied from the previous module (Gaussian for the
    first task); the final row is drawn Gaussian and then, unless
    disabled for ablation, projected off the stored input subspace so the
    module outputs exactly 0 on old-task activations.
    """
    expected_dims = [s[1] for s in shapes]
    if memory.layer_dims != expected_dims:
        raise DimMismatch(
            f"memory layer dims {memory.layer_dims} vs module {expected_dims}"
        )
    if prev is not None:
        prev_shapes = [p.value.shape for p in prev.params]
        if prev_shapes != list(shapes):
            raise DimMismatch(f"previous module shapes {prev_shapes} vs {shapes}")
        prev.freeze()
        weights = [p.value.copy() for p in prev.params[:-1]]
    else:
        weights = [gaussian_init(rng, *s, init_std) for s in shapes[:-1]]
    final = gaussian_init(rng, *shapes[-1], init_std)
    if project_final:
        final = project_out(memory.layers[-1], final.T).T
    return GatingModule(weights + [final], gate)


def constrain_update(delta: Mat, basis: SubspaceBasis) -> Mat:
    """Project each row of a proposed weight update off span(basis).

    Guarantees (update @ p) = 0 for any input p in the protected span, so
    the layer's response to old-task activations cannot move.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape[1] != basis.dim:
        raise DimMismatch(
            f"update has {delta.shape[1]} columns, basis dim is {basis.dim}"
        )
    return project_out(basis, delta.T).T
