import pytest

from gatedlora.errors import UnknownPreset
from gatedlora.gating import gating_layer_shapes
from gatedlora.params import count_trainable_params, gate_param_count, preset

# llama-3-8b: 32 query sites of (4096 x 4096) and 32 value sites of
# (1024 x 4096); its gate has hidden width 50 over 4096 dims.
LLAMA3_QUERY = 32 * (4096 * 8 + 8 * 4096)  # 2 097 152 at rank 8
LLAMA3_VALUE = 32 * (1024 * 8 + 8 * 4096)  # 1 310 720 at rank 8
LLAMA3_GATE = 50 * 4096 + 4096 * 50 + 4096  # 413 696


def test_two_group_preset_by_hand():
    arch = preset("llama-3-8b")
    assert count_trainable_params(arch, "olora", 8, gated=False) == LLAMA3_QUERY + LLAMA3_VALUE
    assert count_trainable_params(arch, "olora", 8, gated=True) == (
        LLAMA3_QUERY + LLAMA3_VALUE + LLAMA3_GATE
    )
    assert count_trainable_params(arch, "inc", 1, gated=False) == (
        32 * (4096 + 4096) + 32 * (1024 + 4096)
    )


def test_inflora_counts_only_the_up_half():
    # The designed down half is frozen: d_out * r per site.
    arch = preset("llama-3-8b")
    want = 32 * 4096 * 8 + 32 * 1024 * 8
    assert count_trainable_params(arch, "inflora", 8, gated=False) == want
    toy = preset("toy")
    assert count_trainable_params(toy, "inflora", 4, gated=False) == 2 * 64 * 4


def test_gate_count_follows_the_gate_shapes():
    for name in ("t5-large", "llama-3-8b", "toy"):
        arch = preset(name)
        shapes = gating_layer_shapes(arch.embed_dim, arch.gate_hidden)
        assert gate_param_count(arch) == sum(rows * cols for rows, cols in shapes)
    assert gate_param_count(preset("llama-3-8b")) == LLAMA3_GATE
    gated = count_trainable_params(preset("toy"), "seq", 2, gated=True)
    plain = count_trainable_params(preset("toy"), "seq", 2, gated=False)
    assert gated - plain == gate_param_count(preset("toy")) == 32 * 64 * 2 + 64


@pytest.mark.parametrize("r", [0, -1])
def test_rank_below_one_rejected(r):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        count_trainable_params(preset("toy"), "olora", r, gated=False)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown branch strategy 'lora'"):
        count_trainable_params(preset("toy"), "lora", 8, gated=False)


def test_preset_name_is_case_insensitive():
    assert preset("LLaMA-3-8B") is preset("llama-3-8b")
    assert preset("T5-XL").name == "t5-xl"
    with pytest.raises(UnknownPreset):
        preset("llama-3-70b")
