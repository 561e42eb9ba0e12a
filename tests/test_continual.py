import numpy as np
import pytest

from gatedlora.continual import (
    AccuracyMatrix,
    ContinualState,
    StrategyConfig,
    compute_ap,
    compute_ft,
    learn_task,
    run_sequence,
)
from gatedlora.errors import IncompleteMatrix, NoFreeSubspace, SingleTask
from gatedlora.model import ToyBackbone, build_task_sequence
from gatedlora.numerics import Rng
from gatedlora.params import count_trainable_params, preset
from gatedlora.subspace import SubspaceBasis

# Three tasks at desk size: a run takes a fraction of a second.
DESK_MODEL = dict(
    vocab_size=24,
    embed_dim=16,
    hidden_dim=16,
    n_tasks=3,
    classes_per_task=2,
    train_per_task=48,
    test_per_task=16,
    window_size=8,
    noise=0.0,
    seq_len_min=4,
    seq_len_max=8,
)


def desk_strategy(branch_strategy, **overrides):
    kw = dict(
        branch_strategy=branch_strategy,
        gating_mode="gain",
        rank=2,
        epochs=3,
        lr=1e-2,
        gate_hidden=8,
        batch_size=16,
    )
    kw.update(overrides)
    return StrategyConfig(**kw)


def desk_state(cfg, seed=0):
    """A fresh state and task sequence, built as run_sequence builds them."""
    mc = DESK_MODEL
    rng = Rng(seed)
    model = ToyBackbone(
        rng.child("model"),
        vocab_size=mc["vocab_size"],
        embed_dim=mc["embed_dim"],
        hidden_dim=mc["hidden_dim"],
        n_classes=mc["n_tasks"] * mc["classes_per_task"],
    )
    sequence = build_task_sequence(
        rng.child("data"),
        n_tasks=mc["n_tasks"],
        classes_per_task=mc["classes_per_task"],
        n_train=mc["train_per_task"],
        n_test=mc["test_per_task"],
        vocab_size=mc["vocab_size"],
        window_size=mc["window_size"],
        noise=mc["noise"],
        embedding=model.embedding,
        seq_len=(mc["seq_len_min"], mc["seq_len_max"]),
    )
    return ContinualState(model, cfg, rng.child("train")), sequence


def task_bytes(state, k):
    """Bytes of task k's branch in every adapted layer and of its gate."""
    parts = []
    for layer in state.model.adapted_layers:
        branch = layer.branches[k]
        parts += [branch.up.value.tobytes(), branch.down.value.tobytes()]
    return parts + [p.value.tobytes() for p in state.bank.modules[k].params]


class TestMetrics:
    def test_hand_matrix(self):
        m = AccuracyMatrix([[80.0], [70.0, 90.0], [60.0, 95.0, 50.0]])
        assert compute_ap(m) == pytest.approx((60 + 95 + 50) / 3)
        # task 0 fell 80 -> 60, task 1 rose 90 -> 95
        assert compute_ft(m) == pytest.approx((20.0 - 5.0) / 2)

    def test_backward_transfer_gives_negative_ft(self):
        m = AccuracyMatrix([[50.0], [60.0, 70.0], [65.0, 80.0, 90.0]])
        # best earlier scores 60 and 70, final 65 and 80
        assert compute_ft(m) == pytest.approx(-7.5)

    def test_single_task_has_no_forgetting(self):
        m = AccuracyMatrix([[75.0]])
        assert compute_ap(m) == 75.0
        with pytest.raises(SingleTask):
            compute_ft(m)

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(IncompleteMatrix):
            compute_ap(AccuracyMatrix())
        with pytest.raises(IncompleteMatrix):
            AccuracyMatrix([[80.0], [70.0]])
        with pytest.raises(IncompleteMatrix):
            AccuracyMatrix([[80.0]]).entry(0, 1)


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_whole_run_invariants(branch_strategy):
    cfg = desk_strategy(branch_strategy)
    state, sequence = desk_state(cfg)
    fingerprint = state.model.frozen_fingerprint()
    # Each task's branches and gate are frozen from the next task on, so
    # their bytes at the end of their own task must survive to the end.
    trained = []
    for task in sequence:
        learn_task(state, task.train)
        trained.append(task_bytes(state, -1))
    assert state.model.frozen_fingerprint() == fingerprint
    for k, before in enumerate(trained[:-1]):
        assert task_bytes(state, k) == before, f"task {k} moved after it was frozen"
    # The optimizer only ever holds the newest task's params, so the bytes
    # above hold even if freezing did nothing; check the freeze itself.
    frozen = [p for module in state.bank.modules[:-1] for p in module.params]
    for layer in state.model.adapted_layers:
        frozen += [p for b in layer.branches[:-1] for p in (b.up, b.down)]
    assert all(not p.requires_grad and p.grad is None for p in frozen)

    first = run_sequence(DESK_MODEL, cfg, 7).summary_dict()
    assert run_sequence(DESK_MODEL, cfg, 7).summary_dict() == first


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_each_dataset_pooled_once(branch_strategy, monkeypatch):
    pooled = []
    pool_batch = ToyBackbone.pool_batch

    def counting(self, dataset, indices=None):
        pooled.append(dataset)
        return pool_batch(self, dataset, indices)

    monkeypatch.setattr(ToyBackbone, "pool_batch", counting)
    run_sequence(DESK_MODEL, desk_strategy(branch_strategy), 0)
    # one train and one test set per task, none of them twice
    assert len(pooled) == 2 * DESK_MODEL["n_tasks"]
    assert len({id(ds) for ds in pooled}) == len(pooled)


def test_inflora_out_of_subspace_names_layer_and_settings():
    cfg = desk_strategy("inflora", rank=3, eps_threshold=0.95)
    state, sequence = desk_state(cfg)
    dim = state.model.adapted_layers[1].in_dim
    state.grad_memory.layers[1] = SubspaceBasis(dim, np.eye(dim))
    with pytest.raises(NoFreeSubspace) as info:
        learn_task(state, sequence.tasks[0].train)
    msg = str(info.value)
    for part in ("task 1", "adapted layer 1", "0 of 16", "rank=3", "eps_threshold=0.95"):
        assert part in msg
    assert isinstance(info.value.__cause__, NoFreeSubspace)
    # raised before anything was expanded or added
    assert all(not layer.branches for layer in state.model.adapted_layers)
    assert len(state.bank) == 0


@pytest.mark.parametrize("branch_strategy", ["seq", "inc", "olora", "inflora"])
def test_run_param_count_matches_toy_preset(branch_strategy):
    # run_sequence counts what the optimizer trains; the toy preset's
    # formula must agree with it.
    model_cfg = dict(
        DESK_MODEL, vocab_size=64, window_size=64, embed_dim=64, hidden_dim=64, n_tasks=1
    )
    mode = "fixed_one" if branch_strategy == "seq" else "no_constraints"
    cfg = StrategyConfig(branch_strategy=branch_strategy, gating_mode=mode, epochs=1)
    result = run_sequence(model_cfg, cfg, 0)
    want = count_trainable_params(preset("toy"), branch_strategy, cfg.rank, gated=cfg.gated)
    assert result.trainable_params == want


def test_sigmoid_gate_fn_rejected():
    # f(0) = 0.5 would break the pin on old-task inputs under "gain"
    with pytest.raises(ValueError, match="gate_fn.*no_init.*no_constraints"):
        StrategyConfig(gate_fn="sigmoid").validate()
    StrategyConfig(gating_mode="no_init").validate()  # selects sigmoid itself
