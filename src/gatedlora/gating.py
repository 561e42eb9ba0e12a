"""Per-task gating networks producing integration coefficients in [0, 1].

A gating module is a small SiLU MLP whose final layer maps to a scalar,
squashed into [0, 1] by a gate function with f(0) = 0. The new module for
task t starts with its first layers copied from the previous module and
its final layer projected orthogonal to the stored input subspace, which
pins its output to exactly 0 on anything old tasks produced. Updates are
projected the same way so the pin survives training. Which module trains
is the run's to say (`ContinualState.gate`).
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Param
from .errors import DimMismatch, NonFinite, ShapeMismatch
from .numerics import Mat, Rng, gaussian_init
from .subspace import SubspaceBasis, SubspaceMemory, project_out


class GateFn(enum.Enum):
    """Scalar squashing functions R -> [0, 1].

    ABS_SIGMOID satisfies f(0) = 0; SIGMOID exists only for the ablations
    that remove the initialization constraints.
    """

    ABS_SIGMOID = "abs_sigmoid"  # |2*sigmoid(b) - 1|
    SIGMOID = "sigmoid"          # ablation only; f(0) = 0.5

    def squash(self, v: np.ndarray) -> tuple[np.ndarray, Callable]:
        """The gate row for v = sigmoid(b), and the map of its gradient back
        to v's: the squash `autodiff.gate_mlp` applies. ABS_SIGMOID takes
        |2 v - 1| and maps g to 2 (g sign(2 v - 1)), the steps of abs, add
        and scalar-multiply nodes in their chain's order."""
        if self is GateFn.SIGMOID:
            return v, lambda g: g
        u = 2.0 * v - 1.0
        return np.abs(u), lambda g: 2.0 * (g * np.sign(u))

    def scalar(self, b: float) -> float:
        """Scalar reference form of the squash `GatingModule.forward`
        applies, kept for tests to compare against."""
        if not math.isfinite(b):
            raise NonFinite(f"gate input {b!r}")
        if self is GateFn.ABS_SIGMOID:
            # |2*sigmoid(b) - 1| written in terms of |b| so the even
            # symmetry holds bit-exactly.
            e = math.exp(-abs(b))
            return (1.0 - e) / (1.0 + e)
        # Two branches so that exp never overflows.
        if b < 0:
            e = math.exp(b)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(-b))


def gating_layer_shapes(embed_dim: int, hidden: int) -> list[tuple[int, int]]:
    """Weight shapes of a gate MLP: a (hidden x d) and a (d x hidden)
    hidden layer, then the final row vector over d."""
    return [(hidden, embed_dim), (embed_dim, hidden), (1, embed_dim)]


class GatingModule:
    """SiLU MLP with a scalar gate head; its weights are `Param` leaves."""

    def __init__(self, weights: list[Mat], gate: GateFn):
        for prev, nxt in zip(weights, weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ShapeMismatch(
                    f"layer shapes do not chain: {prev.shape} -> {nxt.shape}"
                )
        if weights[-1].shape[0] != 1:
            raise ShapeMismatch("final gate layer must map to a scalar")
        self.params = [Param(w.copy()) for w in weights]
        self.gate = gate

    @property
    def input_dims(self) -> list[int]:
        """Input dimension of every layer, hidden plus final."""
        return [p.value.shape[1] for p in self.params]

    def forward(self, pooled: Mat) -> tuple[np.ndarray, ad.GateCache]:
        """Gate row (1, n) on a pooled batch, and the cache `backward` reads,
        whose `trace` holds the input of every layer. The whole module, SiLU
        layers, final row and squash, is one `autodiff.gate_mlp`, with
        `GateFn.squash`."""
        if pooled.shape[0] != self.input_dims[0]:
            raise ShapeMismatch(
                f"pooled input dim {pooled.shape[0]} vs {self.input_dims[0]}"
            )
        return ad.gate_mlp(pooled, [p.value for p in self.params], self.gate.squash)

    def backward(self, cache: ad.GateCache, g: np.ndarray) -> None:
        """Backward pass of `forward` for the gate row's gradient g: sets
        `.grad` on every weight (`autodiff.gate_mlp_vjp`). Only the run's
        training gate is ever passed back through. The pooled input takes
        no gradient."""
        for p, grad in zip(self.params, ad.gate_mlp_vjp(g, cache)):
            p.grad = grad

    # Nothing in src calls this; bench/check_spans.py binds it by name.
    def forward_values(self, pooled: Mat) -> tuple[np.ndarray, list[Mat]]:
        """The (n,) gate row and the input of every layer, from `forward`.
        The gate memory reads the task-end forward's trace instead
        (`continual.learn_task`)."""
        row, cache = self.forward(pooled)
        return row[0], cache.trace


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
    """Build the new task's gate module; `prev`, the previous task's, is
    left as it was.

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
        weights = [p.value for p in prev.params[:-1]]
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
