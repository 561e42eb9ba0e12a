import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora import continual
from gatedlora.continual import (
    AccuracyMatrix,
    ContinualState,
    StrategyConfig,
    compute_ap,
    compute_ft,
    evaluate,
    learn_task,
    run_sequence,
)
from gatedlora.errors import (
    IdOutOfRange,
    IncompleteMatrix,
    NoFreeSubspace,
    OrderViolation,
    SingleTask,
    UnknownPreset,
)
from gatedlora.gating import GatingModule
from gatedlora.model import ToyBackbone, build_task_sequence
from gatedlora.numerics import Rng
from gatedlora.params import count_trainable_params, preset
from gatedlora.subspace import SubspaceBasis

from conftest import branch_sum, coefficient_nodes, graph_size, oracle_forward

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


def fresh_forward(state, pooled):
    """Logits and adapted-layer inputs of the integrated model with every
    gate and branch run fresh on `pooled`, each branch weighted by its gate
    or by 1 when ungated, and each adapted layer summed branch by branch:
    the oracle for `ContinualState.apply`'s memo and for the fused frozen
    part of `AdaptedLinear.forward_node`."""
    if state.cfg.gated:
        coeffs = coefficient_nodes(state.gates, pooled)
    else:
        coeffs = [ad.constant(np.ones((1, pooled.shape[1])))] * state.n_branches
    return oracle_forward(state.model, coeffs, pooled)


def task_bytes(state, k):
    """Bytes of task k's branch in every adapted layer and of its gate."""
    parts = []
    for layer in state.model.adapted_layers:
        branch = layer.branches[k]
        parts += [branch.up.value.tobytes(), branch.down.value.tobytes()]
    return parts + [p.value.tobytes() for p in state.gates[k].params]


def accuracy_matrix(rows):
    m = AccuracyMatrix()
    for row in rows:
        m.add_row(row)
    return m


class TestMetrics:
    def test_hand_matrix(self):
        m = accuracy_matrix([[80.0], [70.0, 90.0], [60.0, 95.0, 50.0]])
        assert compute_ap(m) == pytest.approx((60 + 95 + 50) / 3)
        # task 0 fell 80 -> 60, task 1 rose 90 -> 95
        assert compute_ft(m) == pytest.approx((20.0 - 5.0) / 2)

    def test_backward_transfer_gives_negative_ft(self):
        m = accuracy_matrix([[50.0], [60.0, 70.0], [65.0, 80.0, 90.0]])
        # best earlier scores 60 and 70, final 65 and 80
        assert compute_ft(m) == pytest.approx(-7.5)

    def test_single_task_has_no_forgetting(self):
        m = accuracy_matrix([[75.0]])
        assert compute_ap(m) == 75.0
        with pytest.raises(SingleTask):
            compute_ft(m)

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(IncompleteMatrix):
            compute_ap(AccuracyMatrix())
        with pytest.raises(IncompleteMatrix):
            accuracy_matrix([[80.0], [70.0]])
        with pytest.raises(IncompleteMatrix):
            accuracy_matrix([[80.0]]).entry(0, 1)


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
    frozen = [p for module in state.gates[:-1] for p in module.params]
    for layer in state.model.adapted_layers:
        frozen += [p for b in layer.branches[:-1] for p in (b.up, b.down)]
    assert all(not p.requires_grad and p.grad is None for p in frozen)

    first = run_sequence(DESK_MODEL, cfg, 7).summary_dict()
    assert run_sequence(DESK_MODEL, cfg, 7).summary_dict() == first


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_each_dataset_pooled_once(branch_strategy, monkeypatch):
    pooled = []
    pool_batch = ToyBackbone.pool_batch

    def counting(self, dataset):
        pooled.append(dataset)
        return pool_batch(self, dataset)

    monkeypatch.setattr(ToyBackbone, "pool_batch", counting)
    run_sequence(DESK_MODEL, desk_strategy(branch_strategy), 0)
    # one train and one test set per task, none of them twice
    assert len(pooled) == 2 * DESK_MODEL["n_tasks"]
    assert len({id(ds) for ds in pooled}) == len(pooled)


# olora-fixed_one is ungated with several branches: its prefix sums frozen
# branches with all-ones coefficients. seq-fixed_one never freezes its one
# branch, so its prefix is W x alone.
MEMO_CONFIGS = pytest.mark.parametrize(
    "branch_strategy, gating_mode",
    [("olora", "gain"), ("inflora", "gain"), ("seq", "fixed_one"), ("olora", "fixed_one")],
)


def bytes_of(arrays):
    return [None if a is None else a.tobytes() for a in arrays]


def assert_memo_frozen(state, pool):
    """Only frozen gates and branches are in the pool's memo, and the newest
    gate is not."""
    modules = state.gates
    assert all(m.frozen for m in modules[: len(pool.gate_rows)])
    assert len(pool.gate_rows) == max(len(modules) - 1, 0)
    _, k = pool.prefix
    assert all(b.frozen for b in state.model.adapted_layers[0].branches[:k])


@MEMO_CONFIGS
def test_held_memo_matches_fresh_forward(branch_strategy, gating_mode):
    # After every task, each memoised gate row and first-layer prefix is
    # byte-equal to a fresh forward, the newest gate and branch are not in
    # the memo, and the logits are byte-equal to the oracle's.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    layer = state.model.adapted_layers[0]
    for task in sequence:
        learn_task(state, task.train)
        state.hold(state.model.pool_batch(task.test), task.test.labels)
        evaluate(state)
        for pool in state.held:
            x = ad.constant(pool.pooled)
            with ad.no_grad():
                if cfg.gated:
                    coeffs = coefficient_nodes(state.gates, x)
                else:
                    coeffs = [ad.constant(np.ones((1, x.shape[1])))] * len(layer.branches)
                partial, k = pool.prefix
                prefix = branch_sum(layer, coeffs[:k], x)
                logits, _ = fresh_forward(state, x)
                held, _ = state.apply(pool)
            assert_memo_frozen(state, pool)
            for row, fresh in zip(pool.gate_rows, coeffs):
                assert row.tobytes() == fresh.value.tobytes()
            assert k < len(layer.branches)
            assert partial.value.tobytes() == prefix.value.tobytes()
            assert held.value.tobytes() == logits.value.tobytes()


@MEMO_CONFIGS
def test_training_memo_matches_fresh_forward(branch_strategy, gating_mode, monkeypatch):
    # On every call during a task (training steps, InfLoRA's design and
    # grad-space inputs), what `apply` gives on the training pool's columns
    # is byte-equal to the oracle on the C-ordered batch: logits, layer
    # inputs and, on a training step, each trainable parameter's gradient.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    apply = ContinualState.apply
    steps = []

    def checked(self, pool, idx=None):
        logits, inputs = apply(self, pool, idx)
        if idx is None:
            return logits, inputs
        assert_memo_frozen(self, pool)
        batch = pool.pooled.take(idx, axis=1)
        fresh, fresh_inputs = fresh_forward(self, ad.constant(batch))
        assert inputs[0].flags.c_contiguous
        assert logits.value.tobytes() == fresh.value.tobytes()
        assert bytes_of(inputs) == bytes_of(fresh_inputs)
        if logits.requires_grad:
            params = self.trainable_params()
            grads = []
            for out in (logits, fresh):
                ad.backward(ad.softmax_cross_entropy(out, pool.labels[idx]))
                grads.append(bytes_of(p.grad for p in params))
            assert grads[0] == grads[1]
            steps.append(len(idx))
        return logits, inputs

    monkeypatch.setattr(ContinualState, "apply", checked)
    for task in sequence:
        learn_task(state, task.train)
    n = DESK_MODEL["train_per_task"]
    assert sum(steps) == cfg.epochs * n * DESK_MODEL["n_tasks"]


@pytest.mark.parametrize("gating_mode", ["gain", "no_constraints"])
def test_learn_task_gate_forwards_grow_linearly(gating_mode, monkeypatch):
    # Task t reads its t - 1 frozen gates once on its training pool; only
    # the newest gate runs on each batch, plus once more for its input
    # trace when the gate memory grows: (t - 1) + steps (+ 1), against
    # t * steps (+ 1) if every gate ran on every batch.
    count = [0]
    forward_node = GatingModule.forward_node

    def counting_forward(self, pooled):
        count[0] += 1
        return forward_node(self, pooled)

    monkeypatch.setattr(GatingModule, "forward_node", counting_forward)
    cfg = desk_strategy("olora", gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    steps = cfg.epochs * -(-DESK_MODEL["train_per_task"] // cfg.batch_size)
    trace = 1 if gating_mode == "gain" else 0
    per_task = []
    for task in sequence:
        before = count[0]
        learn_task(state, task.train)
        per_task.append(count[0] - before)
    assert per_task == [t - 1 + steps + trace for t in range(1, len(sequence) + 1)]


@pytest.mark.parametrize("gating_mode", ["gain", "fixed_one"])
def test_training_graph_stays_flat(gating_mode, monkeypatch):
    # Every frozen branch of every adapted layer sits in one node with W h
    # (layer 1's in the memo), so from task 2 on a training loss reaches
    # the same number of nodes however many branches are frozen, against
    # 4 more per frozen branch if each were its own matmul, matmul,
    # scale_columns and add.
    per_task = []
    backward = ad.backward

    def counting_backward(loss):
        per_task[-1].add(graph_size(loss))
        backward(loss)

    def marking_learn_task(state, train):
        per_task.append(set())
        learn_task(state, train)

    monkeypatch.setattr(ad, "backward", counting_backward)
    monkeypatch.setattr(continual, "learn_task", marking_learn_task)
    n_tasks = 6
    model_cfg = dict(DESK_MODEL, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"])
    run_sequence(model_cfg, desk_strategy("olora", gating_mode=gating_mode, epochs=1), 0)
    counts = [sizes.pop() for sizes in per_task if len(sizes) == 1]
    assert len(counts) == n_tasks  # one graph size per task
    assert counts[1:] == [counts[1]] * (n_tasks - 1), counts


def test_evaluate_gate_forwards_grow_linearly(monkeypatch):
    # Each frozen (gate, held pool) pair runs once: after task t, the newest
    # gate runs on all t pools, the gate frozen by task t on the t - 1 older
    # pools, and the t - 1 frozen gates on the new pool: 3t - 2 forwards,
    # against t^2 if every gate ran on every pool.
    count = [0]
    per_evaluate = []
    forward_node = GatingModule.forward_node

    def counting_forward(self, pooled):
        count[0] += 1
        return forward_node(self, pooled)

    def counting_evaluate(state):
        before = count[0]
        row = evaluate(state)
        per_evaluate.append(count[0] - before)
        return row

    monkeypatch.setattr(GatingModule, "forward_node", counting_forward)
    monkeypatch.setattr(continual, "evaluate", counting_evaluate)
    n_tasks = 6
    model_cfg = dict(DESK_MODEL, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"])
    run_sequence(model_cfg, desk_strategy("olora", epochs=1), 0)
    assert per_evaluate == [3 * t - 2 for t in range(1, n_tasks + 1)]


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
    assert not state.gates


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


def test_unknown_preset_named():
    with pytest.raises(UnknownPreset, match="unknown preset 'gpt-5'"):
        preset("gpt-5")


def test_task_out_of_order_rejected():
    state, sequence = desk_state(desk_strategy("olora"))
    with pytest.raises(OrderViolation, match="expected task 0, got 1"):
        learn_task(state, sequence.tasks[1].train)
    assert state.tasks_learned == 0 and not state.gates


def test_sigmoid_gate_fn_rejected():
    # f(0) = 0.5 would break the pin on old-task inputs under "gain"
    with pytest.raises(ValueError, match="gate_fn.*no_init.*no_constraints"):
        StrategyConfig(gate_fn="sigmoid").validate()
    StrategyConfig(gating_mode="no_init").validate()  # selects sigmoid itself


# Every other rule of `StrategyConfig.validate`: (field, bad value, message).
VALIDATE_CASES = [
    ("branch_strategy", "lora", "unknown branch strategy 'lora'"),
    ("gating_mode", "open", "unknown gating mode 'open'"),
    ("branch_strategy", "seq", "single-branch strategy"),
    ("eps_threshold", 0.0, "eps_threshold must be in"),
    ("eps_threshold", 1.5, "eps_threshold must be in"),
    ("lam", -0.1, "lam must be >= 0"),
    ("lr", 0.0, "lr must be finite and > 0"),
    ("lr", -1.0, "lr must be finite and > 0"),
    ("lr", float("nan"), "lr must be finite and > 0"),
    ("lr", float("inf"), "lr must be finite and > 0"),
    ("gate_init_std", 0.0, "gate_init_std must be finite and > 0"),
    ("gate_init_std", float("nan"), "gate_init_std must be finite and > 0"),
    ("rank", 0, "rank must be >= 1"),
    ("epochs", 0, "epochs must be >= 1"),
    ("batch_size", 0, "batch_size must be >= 1"),
    ("gate_hidden", 0, "gate_hidden must be >= 1"),
    ("subspace_samples", 0, "subspace_samples must be >= 1"),
    ("gate_layers", -2, "gate_layers must be a non-negative even"),
    ("gate_layers", 3, "gate_layers must be a non-negative even"),
]


@pytest.mark.parametrize(
    "field, value, message", VALIDATE_CASES, ids=[f"{f}={v}" for f, v, _ in VALIDATE_CASES]
)
def test_validate_rejects_and_names_the_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        StrategyConfig(**{field: value}).validate()


@pytest.mark.parametrize("case", ["label", "task_id"])
def test_bad_prebuilt_sequence_rejected_before_training(case, monkeypatch):
    def no_training(state, train):
        raise AssertionError("learn_task ran")

    monkeypatch.setattr(continual, "learn_task", no_training)
    _, sequence = desk_state(desk_strategy("olora"))
    if case == "label":
        # three tasks of two classes under a four-class head: task 3's
        # labels 4 and 5 have no logit
        model_cfg = dict(DESK_MODEL, n_tasks=2)
        error, message = IdOutOfRange, r"task 2: train label \d is outside the head's 4 classes"
    else:
        sequence.tasks[1].test.task_id = 2
        model_cfg = DESK_MODEL
        error, message = OrderViolation, "task 1: test set has task id 2"
    with pytest.raises(error, match=message):
        run_sequence(model_cfg, desk_strategy("olora"), 0, sequence=sequence)
