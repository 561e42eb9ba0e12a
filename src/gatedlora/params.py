"""Trainable-parameter accounting for known architectures.

Counts are exact integers: adapter parameters per task are summed over
every adapted weight site, and the gate network adds its layer sizes
when gated integration is on. Strategies that tune both low-rank halves
(seq/inc/olora) count d_out*r + r*d_in per site; the designed-row
strategy (inflora) freezes the down half and counts d_out*r only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownPreset

BRANCH_STRATEGIES = ("seq", "inc", "olora", "inflora")


@dataclass(frozen=True)
class ArchSpec:
    """Adapted-site shapes as (count, d_out, d_in) groups plus gate dims."""

    name: str
    sites: tuple[tuple[int, int, int], ...]
    embed_dim: int
    gate_hidden: int


PRESETS: dict[str, ArchSpec] = {
    # 24 encoder + 24 decoder self-attention + 24 cross-attention blocks,
    # query and value each: 144 adapted weights.
    "t5-large": ArchSpec("t5-large", ((144, 1024, 1024),), 1024, 100),
    "t5-xl": ArchSpec("t5-xl", ((144, 4096, 1024),), 1024, 100),
    # 32 blocks, query and value each: 64 adapted weights.
    "llama-2-7b": ArchSpec("llama-2-7b", ((64, 4096, 4096),), 4096, 50),
    # 40 blocks: 80 adapted weights.
    "llama-2-13b": ArchSpec("llama-2-13b", ((80, 5120, 5120),), 5120, 50),
    # 32 blocks; value projection is narrower than query.
    "llama-3-8b": ArchSpec(
        "llama-3-8b", ((32, 4096, 4096), (32, 1024, 4096)), 4096, 50
    ),
    # The desk-scale backbone in this package: two adapted hidden layers.
    "toy": ArchSpec("toy", ((2, 64, 64),), 64, 32),
}


def gate_param_count(arch: ArchSpec) -> int:
    from .gating import gating_layer_shapes

    shapes = gating_layer_shapes(arch.embed_dim, arch.gate_hidden)
    return sum(rows * cols for rows, cols in shapes)


def count_trainable_params(
    arch: ArchSpec, strategy: str, r: int, *, gated: bool
) -> int:
    """Exact per-task trainable parameter count."""
    if strategy not in BRANCH_STRATEGIES:
        raise ValueError(f"unknown branch strategy {strategy!r}")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    total = 0
    for count, d_out, d_in in arch.sites:
        per_site = d_out * r if strategy == "inflora" else d_out * r + r * d_in
        total += count * per_site
    if gated:
        total += gate_param_count(arch)
    return total


def preset(name: str) -> ArchSpec:
    key = name.lower()
    if key not in PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[key]
