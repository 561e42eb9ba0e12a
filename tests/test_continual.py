import inspect
import re
from collections import Counter

import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora import continual
from gatedlora.adapter import AdaptedLinear, LoraBranch
from gatedlora.continual import (
    AccuracyMatrix,
    ContinualState,
    StrategyConfig,
    collect_gate_samples,
    compute_ap,
    compute_ft,
    evaluate,
    learn_task,
    run_sequence,
)
from gatedlora.errors import (
    EmptyInput,
    IdOutOfRange,
    IncompleteMatrix,
    NoFreeSubspace,
    NonFinite,
    OrderViolation,
    ShapeMismatch,
    SingleTask,
    UnknownPreset,
)
from gatedlora.gating import GateFn, GatingModule, gating_layer_shapes
from gatedlora.model import Dataset, ToyBackbone, build_task_sequence
from gatedlora.numerics import Rng, gaussian_init
from gatedlora.optim import AdamW
from gatedlora.params import count_trainable_params, preset
from gatedlora.subspace import SubspaceBasis, extend, factor

import graph as gr
from conftest import (
    EXPANDED,
    coefficient_nodes,
    frozen_chain,
    oracle_forward,
    penalty_chain,
    running_sum,
    sequences,
)

# The oracles read every branch that `learn_task` expands from `EXPANDED`.
pytestmark = pytest.mark.usefixtures("record_branches")

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


def desk_state(cfg, seed=0, **model_overrides):
    """A fresh state and task sequence, built as run_sequence builds them."""
    mc = dict(DESK_MODEL, **model_overrides)
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
    the oracle for `ContinualState.apply`'s memo, for the fused frozen part
    of `AdaptedLinear.forward` and, as a graph, for every backward pass.
    The frozen gates' rows take no gradient; the training gate's, if there
    is one, comes last."""
    if state.cfg.gated:
        with gr.no_grad():
            coeffs = coefficient_nodes(state.gates, pooled)
        if state.gate is not None:
            coeffs += coefficient_nodes([state.gate], pooled)
    else:
        coeffs = [gr.constant(np.ones((1, pooled.shape[1])))] * state.n_branches
    return oracle_forward(state.model, coeffs, pooled)


def task_bytes(state, k):
    """Bytes of task k's frozen branch in every adapted layer, its blocks
    of the layer's `ups` and `downs`, and of its gate."""
    parts = []
    for layer in state.model.adapted_layers:
        up = np.hsplit(layer.ups, layer.frozen_count)[k]
        down = np.vsplit(layer.downs, layer.frozen_count)[k]
        parts += [up.tobytes(), down.tobytes()]
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


def assert_run_invariants(cfg, after_task=lambda state, task: None):
    """Learn the desk sequence task by task, calling `after_task` after
    each, and check that the backbone, every frozen task and a seeded
    summary hold."""
    state, sequence = desk_state(cfg)
    fingerprint = state.model.frozen_fingerprint()
    # Each task's branches and gate are frozen at the end of its own task,
    # so their bytes then must survive to the end.
    trained = []
    for task in sequence:
        learn_task(state, task.train)
        after_task(state, task)
        trained.append(task_bytes(state, -1))
        # The optimizer only ever holds the newest task's params, so the
        # bytes hold even if freezing did nothing; check the freeze itself.
        assert state.gate is None and len(state.gates) == state.tasks_learned
        assert all(layer.branch is None for layer in state.model.adapted_layers)
        assert state.trainable_params() == []
    assert state.model.frozen_fingerprint() == fingerprint
    for k, before in enumerate(trained):
        assert task_bytes(state, k) == before, f"task {k} moved after it was frozen"
    frozen = [p for module in state.gates[:-1] for p in module.params]
    for layer in state.model.adapted_layers:
        frozen += [p for b in EXPANDED[layer][:-1] for p in b.trainable_params()]
    assert all(p.grad is None for p in frozen)

    first = run_sequence(DESK_MODEL, cfg, 7).summary_dict()
    assert run_sequence(DESK_MODEL, cfg, 7).summary_dict() == first


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_whole_run_invariants(branch_strategy):
    assert_run_invariants(desk_strategy(branch_strategy))


def test_task_end_reads_the_whole_pool_once(monkeypatch):
    # Under gated InfLoRA both memories grow after training from one
    # forward over the task's whole training pool: the trained gate runs on
    # those columns once, and each memory's layers grow from that
    # forward's gate trace and adapted-layer inputs.
    forwards = []  # (module, input) of each gate forward
    applied = []  # (columns, cache) of each `ContinualState.apply`
    forward, apply = GatingModule.forward, ContinualState.apply

    def recording_forward(self, pooled):
        forwards.append((self, pooled))
        return forward(self, pooled)

    def recording_apply(self, pool, idx=None):
        logits, cache = apply(self, pool, idx)
        applied.append((idx, cache))
        return logits, cache

    monkeypatch.setattr(GatingModule, "forward", recording_forward)
    monkeypatch.setattr(ContinualState, "apply", recording_apply)
    state, sequence = desk_state(desk_strategy("inflora"))
    memories = (state.gate_memory, state.grad_memory)
    for task in sequence:
        before = [memory.layers for memory in memories]
        learn_task(state, task.train)
        pooled = state.model.pool_batch(task.train)
        whole = [x for module, x in forwards if module is state.gates[-1] and x.shape == pooled.shape]
        assert len(whole) == 1 and whole[0].tobytes() == pooled.tobytes()
        idx, (gate_cache, cache) = applied[-1]
        assert idx is None and gate_cache.trace[0] is whole[0]
        for memory, old, inputs in zip(memories, before, (gate_cache.trace, cache.inputs)):
            assert len(inputs) == len(old) == len(memory.layers)
            for basis, m, h in zip(memory.layers, old, inputs):
                assert_basis_bytes(basis, extend(factor(m, h), memory.eps))
        forwards.clear()
        applied.clear()


def assert_basis_bytes(actual, expected):
    assert actual.basis.shape == expected.basis.shape
    assert actual.basis.tobytes() == expected.basis.tobytes()


@pytest.mark.parametrize(
    "branch_strategy, gating_mode, per_task",
    [
        ("inflora", "gain", 6),
        ("inflora", "no_update", 6),
        ("inflora", "no_init", 6),
        ("inflora", "no_constraints", 3),
        ("inflora", "fixed_one", 3),
        ("olora", "gain", 3),
        ("olora", "no_constraints", 0),
        ("seq", "fixed_one", 0),
    ],
)
def test_eigensolves_per_task(branch_strategy, gating_mode, per_task, eigensolves):
    # One eigensolve per factorization (`subspace.factor`). The gate memory
    # factors its 3 layers' inputs when it grows (any constraint on). Under
    # InfLoRA the gradient memory factors its 2: the first layer's input,
    # the pool, once for both the design and the growth, and the second
    # layer's once for the design and again for the growth, as training
    # moves it.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    memories = {"gate": state.gate_memory, "grad": state.grad_memory}
    grows = {
        "gate": cfg.init_constraints or cfg.update_constraints,
        "grad": branch_strategy == "inflora",
    }
    # The two memories share no basis object, from the start.
    shared = {id(b) for b in state.gate_memory.layers} & {id(b) for b in state.grad_memory.layers}
    assert not shared
    for task in sequence:
        before = {name: memory.layers[0] for name, memory in memories.items()}
        learn_task(state, task.train)
        assert len(eigensolves) == per_task
        pooled = state.model.pool_batch(task.train)
        for name, memory in memories.items():
            if grows[name]:
                grown = extend(factor(before[name], pooled), memory.eps)
                assert_basis_bytes(memory.layers[0], grown)
            else:
                assert memory.layers[0] is before[name]
        assert state.gate_memory.layers[0] is not state.grad_memory.layers[0]
        eigensolves.clear()


def test_no_factorization_outlives_a_run(eigensolves):
    # Two runs on the same prebuilt inputs: anything factored in the first
    # and kept would serve the second, which would then solve fewer problems.
    cfg = desk_strategy("inflora")
    _, sequence = desk_state(cfg, seed=5)
    results = []
    for _ in range(2):
        eigensolves.clear()
        result = run_sequence(DESK_MODEL, cfg, 5, sequence=sequence)
        results.append((len(eigensolves), result.summary_dict(), result.gate_samples))
    # 6 per task, but 2 for the last, which grows no memory.
    assert results[0][0] == 6 * (DESK_MODEL["n_tasks"] - 1) + 2
    assert results[1] == results[0]


# The eigensolves of each task's `learn_task` in a desk run.
LAST_TASK_CONFIGS = pytest.mark.parametrize(
    "branch_strategy, gating_mode, per_task",
    [
        ("inflora", "gain", [6, 6, 2]),
        ("inflora", "fixed_one", [3, 3, 2]),
        ("olora", "gain", [3, 3, 0]),
    ],
)


def recording_learn_task(monkeypatch, eigensolves, grow_last):
    """Make `run_sequence` learn each task through a wrapper that records
    the state and the number of eigensolves each `learn_task` makes; with
    `grow_last`, the memories also grow after the last task, as
    `learn_task` grows them by default."""
    record = {"states": [], "eigensolves": []}

    def wrapper(state, train, *, protect):
        record["states"].append(state)
        before = len(eigensolves)
        learn_task(state, train, protect=protect or grow_last)
        record["eigensolves"].append(len(eigensolves) - before)

    monkeypatch.setattr(continual, "learn_task", wrapper)
    return record


@LAST_TASK_CONFIGS
def test_last_task_grows_no_memory(
    branch_strategy, gating_mode, per_task, eigensolves, monkeypatch
):
    # No task follows a run's last, so nothing is protected after it: of
    # the 6 factorizations a gated InfLoRA task makes, the last task keeps
    # only the design's 2 (the first and second adapted layers' inputs).
    record = recording_learn_task(monkeypatch, eigensolves, grow_last=False)
    run_sequence(DESK_MODEL, desk_strategy(branch_strategy, gating_mode=gating_mode), 0)
    assert record["eigensolves"] == per_task


def run_bytes(result, state):
    """Everything a run returns, with the bytes of every frozen gate and
    of every adapted layer's branch blocks."""
    weights = [p.value.tobytes() for gate in state.gates for p in gate.params]
    for layer in state.model.adapted_layers:
        weights += [layer.ups.tobytes(), layer.downs.tobytes()]
    return result.summary_dict(), result.gate_samples, weights


@LAST_TASK_CONFIGS
def test_last_task_growth_has_no_reader(
    branch_strategy, gating_mode, per_task, eigensolves, monkeypatch
):
    # Growing the memories after the last task too, as after every other
    # task, changes nothing a run returns or keeps trained.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    runs = []
    for grow_last in (False, True):
        record = recording_learn_task(monkeypatch, eigensolves, grow_last)
        result = run_sequence(DESK_MODEL, cfg, 0)
        runs.append((record["eigensolves"], run_bytes(result, record["states"][-1])))
    (skipped, got), (grown, want) = runs
    # The second run's last task grows as its first did.
    assert (skipped, grown) == (per_task, per_task[:-1] + per_task[:1])
    assert got == want


def gained_run(branch_strategy):
    """A gained desk run learned task by task, each test pool held, and
    the gate memory's final-layer rank after each task: gate g was
    projected off, and trained against, the first `ranks[g - 1]` columns
    of that layer's basis (none for gate 0), a prefix of its final basis
    since a basis only appends columns."""
    state, sequence = desk_state(desk_strategy(branch_strategy))
    ranks = []
    for task in sequence:
        learn_task(state, task.train)
        ranks.append(state.gate_memory.layers[-1].rank)
        state.hold(state.model.pool_batch(task.test), task.test.labels)
    return state, ranks


def pinned_pairs(branch_strategy):
    """For every frozen gate g and every older held pool: g's final row w,
    the basis prefix B at g's creation, the final layer's input h on the
    pool, g's gate row on it and the pin bound d u ||w|| ||h||, per column.

    w leaves its task after one projection off B at creation and one per
    training step, each leaving w B at about u ||w||; the check's own
    products round at about d u ||w|| ||h|| (d = 16 at the final layer).
    The worst seen on these runs is 1.4 u ||w|| ||h||."""
    state, ranks = gained_run(branch_strategy)
    basis = state.gate_memory.layers[-1].basis
    u = np.finfo(float).eps / 2
    pairs = []
    for g, gate in enumerate(state.gates[1:], 1):
        b = basis[:, : ranks[g - 1]]
        w = gate.params[-1].value
        for pool in state.held[:g]:
            row, cache = gate.forward(pool.pooled)
            h = cache.trace[-1]
            bound = basis.shape[0] * u * np.linalg.norm(w) * np.linalg.norm(h, axis=0)
            pairs.append((w, b, h, row[0], bound))
    assert len(pairs) == DESK_MODEL["n_tasks"] * (DESK_MODEL["n_tasks"] - 1) // 2
    assert all(b.shape[1] > 0 for _, b, _, _, _ in pairs)
    return pairs


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_frozen_gate_is_blind_to_its_protected_span(branch_strategy):
    # GainLoRA's pin: each gate's final row is projected off the final
    # layer's protected span when the gate is made, and every update to it
    # is projected off that span, so the row reads nothing of an older
    # pool's input that lies inside the span.
    for w, b, h, _, bound in pinned_pairs(branch_strategy):
        inside = w @ (b @ (b.T @ h))
        assert np.all(np.abs(inside[0]) <= bound)


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_frozen_gate_row_is_the_squashed_residual(branch_strategy):
    # So a gate's output on an older pool comes from the input's residual
    # off the span alone: the row equals squash(w (h - B B^T h)) within the
    # pin bound, halved by the squash's slope of at most 1/2, and 8 u for
    # the two squashes' rounding near sigmoid(0) = 1/2.
    u = np.finfo(float).eps / 2
    for w, b, h, row, bound in pinned_pairs(branch_strategy):
        pre = w @ (h - b @ (b.T @ h))
        want = np.array([GateFn.ABS_SIGMOID.scalar(x) for x in pre[0]])
        assert np.all(np.abs(row - want) <= bound / 2 + 8 * u)


def test_diverged_run_names_the_memory_the_layer_and_lr():
    # At lr=1e8 task 0's gate-layer inputs reach 1e105; task 1's gate trace
    # reaches 1.5e213 at gate layer 2, whose covariance overflows to inf.
    # The suite turns numpy's overflow warning into an error, which would
    # stop the run before the factorization that names the layer.
    cfg = desk_strategy("inflora", lr=1e8)
    with np.errstate(over="ignore"), pytest.raises(NonFinite) as info:
        run_sequence(DESK_MODEL, cfg, 0)
    msg = str(info.value)
    for part in ("task 1", "gate memory, gate layer 2", "lr=100000000.0"):
        assert part in msg
    # Past sqrt(float max), about 1.3e154, a square overflows.
    assert float(re.search(r"largest \|entry\| is ([^,]+),", msg).group(1)) > 1.4e154
    assert isinstance(info.value.__cause__, NonFinite)


@pytest.mark.parametrize(
    "branch_strategy, gating_mode, failure",
    [
        # Task 1's step leaves NaN in the one branch's up; nothing factors.
        ("seq", "fixed_one", "task 1: adapted layer 0's up is not finite after training"),
        # Task 1's weights end finite, but task 2's steps overflow a gate.
        ("olora", "no_constraints", "task 2: gate input has NaN or Inf entries"),
    ],
)
def test_diverged_training_names_the_task_and_lr(branch_strategy, gating_mode, failure):
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode, lr=1e8)
    with np.errstate(all="ignore"), pytest.raises(NonFinite) as info:
        run_sequence(DESK_MODEL, cfg, 0)
    msg = str(info.value)
    assert msg.startswith(failure) and "lr=100000000.0" in msg


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


# olora-fixed_one is ungated with several branches: its frozen parts sum
# frozen branches with all-ones coefficients. seq-fixed_one never freezes
# its one branch, so its frozen parts are W x alone.
MEMO_CONFIGS = pytest.mark.parametrize(
    "branch_strategy, gating_mode",
    [("olora", "gain"), ("inflora", "gain"), ("seq", "fixed_one"), ("olora", "fixed_one")],
)


def bytes_of(arrays):
    return [None if a is None else a.tobytes() for a in arrays]


def assert_memo_frozen(state, pool):
    """The pool's memo holds exactly the fixed coefficients: a row for
    each frozen gate, or ones for every branch when ungated."""
    if state.cfg.gated:
        assert len(pool.coeffs) == len(state.gates)
    else:
        ones = np.ones((state.n_branches, 1, pool.pooled.shape[1]))
        assert pool.coeffs.tobytes() == ones.tobytes()


def held_bound(model, coeffs, x, inputs, fresh_inputs):
    """How far a held pool's memo may put the first adapted layer's frozen
    output and the logits from a fresh forward's, entrywise.

    The memo's frozen output adds, in another order, the products a
    fresh `frozen_part` adds: the first read fuses the K branches frozen
    by then, and each of the L later reads adds one more term. A term
    fused at the first read passes through d + 1 + K r + 1 + L roundings
    (down-product, scale, up-product, its add, the later adds), a later
    term through at most d + r + 2 + L, W x through d + 1 + L; with
    K + L = k and r >= 1 each is at most d + k r + 2, the fresh fused
    sum's count. Both are within gamma(d + k r + 2) M of the exact sum,
    gamma(p) = p u / (1 - p u), u = 2^-53, M = |W| |x| + |U| (|A| * (|D|
    |x|)), so they differ by at most 2 gamma(d + k r + 2) M. A held pool's
    first layer adds no trainable branch but under `seq`, which freezes
    none, so there the two outputs are the same W x and the same add.

    Every later layer runs the same operations on both sides, to first
    order in u: SiLU (|silu'| <= 1.1) moves a difference by at most
    1.1 times it and rounds each side's value by at most 5 u of it (the
    exponential within one ulp, the add, the divide and the product); an
    adapted layer of p = d_in + (branches) r + 2 roundings moves it by
    |W| + sum_i |a_i| |up_i| |down_i| and rounds each side by gamma(p) of
    its magnitude; the head moves it by |H| and rounds each side by
    gamma(d_hidden) of |H| times the layer's magnitude. Returns both
    bounds, the first layer's and the logits'."""
    u = np.finfo(np.float64).eps / 2

    def gamma(p):
        return p * u / (1 - p * u)

    def spread(layer, v, count):
        # |W| v plus the first `count` branches, each |a_i| |up_i| (|down_i| v).
        out = np.abs(layer.weight) @ v
        for a, branch in zip(coeffs[:count], EXPANDED.get(layer, [])[:count]):
            out += np.abs(a) * (np.abs(branch.up.value) @ (np.abs(branch.down_value) @ v))
        return out

    first, *rest = model.adapted_layers
    rank = first.rank or 0
    k = first.frozen_count
    frozen = 2 * gamma(first.in_dim + k * rank + 2) * spread(first, np.abs(x), k)
    diff = frozen
    mags = [spread(first, np.abs(x), first.n_branches)] * 2
    for layer, s, s2 in zip(rest, inputs[1:], fresh_inputs[1:]):
        p = layer.in_dim + layer.n_branches * rank + 2
        ds = 1.1 * diff + 5 * u * (np.abs(s) + np.abs(s2))
        mags = [spread(layer, np.abs(v), layer.n_branches) for v in (s, s2)]
        diff = spread(layer, ds, layer.n_branches) + gamma(p) * (mags[0] + mags[1])
    head = np.abs(model.head)
    logits = head @ diff + gamma(model.hidden_dim) * (head @ mags[0] + head @ mags[1])
    return frozen, logits


@MEMO_CONFIGS
def test_held_memo_matches_fresh_forward(branch_strategy, gating_mode):
    # After every task, each memoised gate row is byte-equal to a fresh
    # forward and the memo holds every gate. The first layer's frozen
    # output and the logits are byte-equal to the running-sum oracle
    # (`running_sum`, read once per task as `evaluate` reads the pool),
    # and within `held_bound` of a fresh forward's.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    first = state.model.adapted_layers[0]
    running = []  # per held pool, the oracle's last read
    for task in sequence:
        learn_task(state, task.train)
        state.hold(state.model.pool_batch(task.test), task.test.labels)
        evaluate(state)
        running.append(None)
        for p, pool in enumerate(state.held):
            x = gr.constant(pool.pooled)
            with gr.no_grad():
                if cfg.gated:
                    coeffs = coefficient_nodes(state.gates, x)
                else:
                    coeffs = [gr.constant(np.ones((1, x.shape[1])))] * state.n_branches
                running[p] = running_sum(first, coeffs, x, running[p])
                oracle, _ = oracle_forward(state.model, coeffs, x, running[p][0])
                fresh, fresh_inputs = fresh_forward(state, x)
                fresh_frozen = frozen_chain(first, EXPANDED.get(first, []), coeffs, x)
            held, (_, cache) = state.apply(pool)
            assert_memo_frozen(state, pool)
            assert len(pool.coeffs) == len(coeffs)
            for row, want in zip(pool.coeffs, coeffs):
                assert row.tobytes() == want.value.tobytes()
            assert pool.frozen.tobytes() == running[p][0].value.tobytes()
            assert held.tobytes() == oracle.value.tobytes()
            rows = [a.value for a in coeffs]
            frozen_bound, logit_bound = held_bound(
                state.model, rows, pool.pooled, cache.inputs, fresh_inputs
            )
            assert np.all(np.abs(pool.frozen - fresh_frozen.value) <= frozen_bound)
            assert np.all(np.abs(held - fresh.value) <= logit_bound)


def oracle_grads(state, pool, idx, params):
    """Each param's gradient of the batch's mean cross-entropy, by the
    graph oracle on a fresh forward (`fresh_forward`), as arrays; the
    params' own `.grad` is left as it was."""
    kept = [p.grad for p in params]
    logits, _ = fresh_forward(state, gr.constant(pool.pooled.take(idx, axis=1)))
    gr.backward(gr.softmax_cross_entropy(logits, pool.labels[idx]))
    grads = [p.grad for p in params]
    for p, g in zip(params, kept):
        p.grad = g
    return grads


def check_training_steps(monkeypatch, check):
    """Call `check(state, pool, idx, logits, inputs, grads)` on every call of
    `ContinualState.apply` with `idx`, `grads` being None unless the call
    is a training step's, in which case it holds each trainable param's
    gradient from `ContinualState.backward`. Returns the widths of the
    training steps' batches."""
    apply, backward = ContinualState.apply, ContinualState.backward
    last = []
    steps = []

    def checked_apply(self, pool, idx=None):
        logits, cache = apply(self, pool, idx)
        if idx is not None:
            last[:] = [pool, idx, logits, cache[1].inputs]
            check(self, pool, idx, logits, cache[1].inputs, None)
        return logits, cache

    def checked_backward(self, cache, g):
        backward(self, cache, g)
        pool, idx, logits, inputs = last
        check(self, pool, idx, logits, inputs, [p.grad for p in self.trainable_params()])
        steps.append(len(idx))

    monkeypatch.setattr(ContinualState, "apply", checked_apply)
    monkeypatch.setattr(ContinualState, "backward", checked_backward)
    return steps


@MEMO_CONFIGS
def test_training_memo_matches_fresh_forward(branch_strategy, gating_mode, monkeypatch):
    # On every call during a task (training steps, InfLoRA's design and
    # grad-space inputs), what `apply` gives on the training pool's columns
    # is byte-equal to the oracle on the C-ordered batch: logits, layer
    # inputs and, on a training step, each trainable parameter's gradient
    # of the cross-entropy.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)

    def check(self, pool, idx, logits, inputs, grads):
        assert_memo_frozen(self, pool)
        fresh, fresh_inputs = fresh_forward(self, gr.constant(pool.pooled.take(idx, axis=1)))
        assert inputs[0].flags.c_contiguous
        assert logits.tobytes() == fresh.value.tobytes()
        assert bytes_of(inputs) == bytes_of(fresh_inputs)
        if grads is not None:
            want = oracle_grads(self, pool, idx, self.trainable_params())
            assert bytes_of(grads) == bytes_of(want)

    steps = check_training_steps(monkeypatch, check)
    for task in sequence:
        learn_task(state, task.train)
    n = DESK_MODEL["train_per_task"]
    assert sum(steps) == cfg.epochs * n * DESK_MODEL["n_tasks"]


def assert_near(got, want):
    """Within 3 float64 epsilons times the largest magnitude in `want`: the
    tightest multiple of epsilon that held for every array
    `test_ragged_batch_memo_is_near_fresh_forward` compares, over seeds
    0-2 (its worst case was 2.9)."""
    tol = 3 * np.finfo(np.float64).eps * np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= tol


@MEMO_CONFIGS
def test_ragged_batch_memo_is_near_fresh_forward(branch_strategy, gating_mode, monkeypatch):
    # At batch width 20 the last of each epoch's batches is 8 wide, and a
    # width that is no multiple of 8 reads the memo only to rounding (see
    # test_narrow_forward_matches_whole_pool_columns): each training step's
    # logits, layer inputs and gradients are near the oracle's.
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode, batch_size=20)
    state, sequence = desk_state(cfg)

    def check(self, pool, idx, logits, inputs, grads):
        fresh, fresh_inputs = fresh_forward(self, gr.constant(pool.pooled.take(idx, axis=1)))
        for got, want in zip([logits, *inputs], [fresh.value, *fresh_inputs]):
            assert_near(got, want)
        if grads is not None:
            for got, want in zip(grads, oracle_grads(self, pool, idx, self.trainable_params())):
                assert_near(got, want)

    steps = check_training_steps(monkeypatch, check)
    for task in sequence:
        learn_task(state, task.train)
    assert steps == [20, 20, 8] * cfg.epochs * DESK_MODEL["n_tasks"]


def long_run(branch_strategy):
    """Overrides of `desk_strategy` for runs past the desk's three tasks:
    at the default eps_threshold of 0.99 InfLoRA's 16-dim layers have no
    free subspace left by task 4; at 0.8 six tasks fit."""
    return {"eps_threshold": 0.8} if branch_strategy == "inflora" else {}


@pytest.mark.parametrize(
    "branch_strategy, gating_mode",
    [
        ("olora", "gain"),
        ("inflora", "gain"),
        ("seq", "fixed_one"),
        ("olora", "fixed_one"),
        ("olora", "no_init"),
        ("olora", "no_constraints"),
    ],
)
def test_training_step_gradients_match_graph_oracle(branch_strategy, gating_mode, monkeypatch):
    # The whole training step against the graph oracle: on every step of
    # tasks 1-4, the gradient each trainable weight holds when the
    # optimizer steps equals, byte for byte, the oracle's backward pass of
    # the step's loss on the same batch: the mean cross-entropy of a fresh
    # forward built node by node (`fresh_forward`) plus, under O-LoRA, each
    # adapted layer's weighted penalty on its newest `down`.
    n_tasks = 4
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode, **long_run(branch_strategy))
    state, sequence = desk_state(
        cfg, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"]
    )
    apply, step = ContinualState.apply, AdamW.step
    batches = []
    steps = Counter()

    def recording_apply(self, pool, idx=None):
        batches.append((pool, idx))
        return apply(self, pool, idx)

    def checked_step(opt, transforms=None):
        got = [p.grad for p in opt.params]
        pool, idx = batches[-1]
        logits, _ = fresh_forward(state, gr.constant(pool.pooled.take(idx, axis=1)))
        loss = gr.softmax_cross_entropy(logits, pool.labels[idx])
        if branch_strategy == "olora":
            for layer in state.model.adapted_layers:
                old = EXPANDED[layer][:-1]
                if old:
                    gram = sum(b.down.value.T @ b.down.value for b in old)
                    down = EXPANDED[layer][-1].down
                    loss = gr.add(loss, penalty_chain(down, gram, continual.OLORA_LAMBDA))
        gr.backward(loss)
        assert bytes_of(got) == bytes_of(p.grad for p in opt.params)
        assert all(g is not None for g in got)
        for p, g in zip(opt.params, got):
            p.grad = g
        steps[state.tasks_learned + 1] += 1
        step(opt, transforms)

    monkeypatch.setattr(ContinualState, "apply", recording_apply)
    monkeypatch.setattr(AdamW, "step", checked_step)
    for task in sequence:
        learn_task(state, task.train)
    per_task = cfg.epochs * -(-DESK_MODEL["train_per_task"] // cfg.batch_size)
    assert steps == {t: per_task for t in range(1, n_tasks + 1)}


@pytest.mark.parametrize(
    "branch_strategy, gating_mode",
    [("olora", "gain"), ("inflora", "gain"), ("olora", "no_constraints"), ("olora", "fixed_one")],
)
def test_only_the_training_gate_trains(branch_strategy, gating_mode, monkeypatch):
    # While a gated task trains, its gate is `state.gate` and no other gate
    # trains: on every step the optimizer holds exactly the adapted layers'
    # trainable halves and `state.gate.params`. When the task ends the gate
    # joins the frozen `gates` and `state.gate` is None again. Every param
    # the optimizer holds has a gradient at every step. Building the next
    # gate leaves the previous one as it was, bytes and gradients, and
    # shares no storage with it.
    step, init = AdamW.step, continual.init_new_gating
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    steps = Counter()

    def checked_step(opt, transforms=None):
        want = [
            p for layer in state.model.adapted_layers for p in layer.branch.trainable_params()
        ]
        if cfg.gated:
            want += state.gate.params
        assert opt.params == state.trainable_params() == want
        assert all(p.grad is not None for p in opt.params)
        steps[state.tasks_learned] += 1
        step(opt, transforms)

    def checked_init(prev, *args, **kwargs):
        assert prev is (state.gates[-1] if state.gates else None)
        assert state.gate is None
        def held(module):
            return [(p.value.tobytes(), p.grad) for p in module.params]

        before = None if prev is None else held(prev)
        new = init(prev, *args, **kwargs)
        if prev is not None:
            assert held(prev) == before
            for p, q in zip(prev.params, new.params):
                assert not np.shares_memory(p.value, q.value)
        return new

    monkeypatch.setattr(AdamW, "step", checked_step)
    monkeypatch.setattr(continual, "init_new_gating", checked_init)
    for t, task in enumerate(sequence, 1):
        learn_task(state, task.train)
        assert state.gate is None
        assert len(state.gates) == (t if cfg.gated else 0)
    per_task = cfg.epochs * -(-DESK_MODEL["train_per_task"] // cfg.batch_size)
    assert steps == {t: per_task for t in range(len(sequence))}


@pytest.mark.parametrize("gating_mode", ["gain", "no_constraints"])
def test_learn_task_gate_forwards_grow_linearly(gating_mode, monkeypatch):
    # Task t reads its t - 1 frozen gates once on its training pool; only
    # the newest gate runs on each batch, plus once more for its input
    # trace when the gate memory grows: (t - 1) + steps (+ 1), against
    # t * steps (+ 1) if every gate ran on every batch.
    count = [0]
    forward = GatingModule.forward

    def counting_forward(self, pooled):
        count[0] += 1
        return forward(self, pooled)

    monkeypatch.setattr(GatingModule, "forward", counting_forward)
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


@MEMO_CONFIGS
def test_training_step_after_the_first_skips_the_memo(
    branch_strategy, gating_mode, monkeypatch
):
    # Nothing freezes while a task trains, so once its first step has
    # read the training pool's memo, `extend_memo` adds nothing: each
    # later step runs only the live gate (none when ungated) and leaves the
    # memo as it was. A task's first step grows it, but under a gate at
    # task 1, which has no frozen gate to add.
    calls = {"gate": 0, "memo": 0}
    gate_forward = GatingModule.forward
    extend_memo = ContinualState.extend_memo
    step = AdamW.step
    seen = []  # (optimizer, calls so far) at each step

    def counting_gate(self, pooled):
        calls["gate"] += 1
        return gate_forward(self, pooled)

    def counting_memo(self, pool):
        coeffs = pool.coeffs
        extend_memo(self, pool)
        calls["memo"] += pool.coeffs is not coeffs

    def marking_step(self, transforms=None):
        seen.append((self, dict(calls)))
        step(self, transforms)

    monkeypatch.setattr(GatingModule, "forward", counting_gate)
    monkeypatch.setattr(ContinualState, "extend_memo", counting_memo)
    monkeypatch.setattr(AdamW, "step", marking_step)
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg)
    for task in sequence:
        learn_task(state, task.train)
    steps = cfg.epochs * -(-DESK_MODEL["train_per_task"] // cfg.batch_size)
    assert len(seen) == steps * len(sequence)
    pairs = [(a, b) for (opt_a, a), (opt_b, b) in zip(seen, seen[1:]) if opt_a is opt_b]
    assert len(pairs) == (steps - 1) * len(sequence)
    for before, after in pairs:
        assert after["gate"] - before["gate"] == int(cfg.gated)
        assert after["memo"] == before["memo"]
    assert calls["memo"] >= len(sequence) - cfg.gated  # each task's first step grew it


# Kernel calls of a training step from task 2 on. Forward: the live gate
# (none ungated) with a SiLU per hidden layer, each adapted layer's live
# branch, the SiLU between them and the second layer's fused frozen part
# (the first layer's is read from the training pool's memo); backward:
# the same kernels' vjps, then the cross-entropy gradient and, under
# O-LoRA, one penalty gradient per adapted layer.
_STEP = Counter(
    add_branch=2,
    add_branch_vjp=2,
    silu=1,
    silu_vjp=1,
    lowrank_sum=1,
    lowrank_sum_vjp=1,
    softmax_cross_entropy_grad=1,
)
_GATE = Counter(gate_mlp=1, gate_mlp_vjp=1, silu=2, silu_vjp=2)
_PENALTY = Counter(row_space_penalty_grad=2)
STEP_CALLS = {
    ("olora", "gain"): _STEP + _GATE + _PENALTY,
    ("inflora", "gain"): _STEP + _GATE,
    ("seq", "fixed_one"): _STEP,
    ("olora", "fixed_one"): _STEP + _PENALTY,
}


@MEMO_CONFIGS
def test_training_step_nodes_do_not_grow_with_tasks(
    branch_strategy, gating_mode, monkeypatch
):
    # The nodes of a training step's computation are its kernel calls:
    # every call of a kernel of `gatedlora.autodiff`, counted per kernel
    # between consecutive steps of one optimizer over six tasks. From task 2
    # on, each step makes the calls `STEP_CALLS` pins, however many gates
    # and branches are frozen. Every frozen branch of the second adapted
    # layer is in its one `lowrank_sum`; the frozen gates' coefficients and
    # the first layer's frozen output are read from the memo, not run.
    calls = Counter()

    def counting(name, kernel):
        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        return counted

    for name, fn in list(vars(ad).items()):
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
            monkeypatch.setattr(ad, name, counting(name, fn))
    step = AdamW.step
    seen = []  # (optimizer, calls so far) at each step

    def marking_step(self, transforms=None):
        seen.append((self, calls.copy()))
        step(self, transforms)

    monkeypatch.setattr(AdamW, "step", marking_step)
    n_tasks = 6
    cfg = desk_strategy(
        branch_strategy, gating_mode=gating_mode, epochs=1, **long_run(branch_strategy)
    )
    state, sequence = desk_state(
        cfg, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"]
    )
    for task in sequence:
        learn_task(state, task.train)
    per_task = {}  # optimizer -> the kernel counts of its steps after the first
    for (opt_a, a), (opt_b, b) in zip(seen, seen[1:]):
        if opt_a is opt_b:
            per_task.setdefault(id(opt_a), []).append(b - a)
    assert len(per_task) == n_tasks
    want = STEP_CALLS[branch_strategy, gating_mode]
    for counts in list(per_task.values())[1:]:
        assert counts == [want] * len(counts)


@pytest.mark.parametrize(
    "branch_strategy, gating_mode, sigmoids",
    [("inflora", "gain", 4), ("seq", "fixed_one", 1)],
)
def test_training_step_takes_each_sigmoid_once(
    branch_strategy, gating_mode, sigmoids, monkeypatch
):
    # Each SiLU's backward reads the sigmoid its forward computed, so a
    # training step after a task's first, with the memo current, takes one
    # `_logistic` per sigmoid: under a gate, its two SiLU layers, its final
    # row and the backbone's SiLU; ungated, the backbone's alone. The
    # sigmoid the backbone's cache holds is its pre-activation's.
    calls = 0
    logistic = ad._logistic

    def counting(x):
        nonlocal calls
        calls += 1
        return logistic(x)

    backward = ContinualState.backward
    acts = []

    def reading_backward(self, cache, g):
        acts.extend(cache[1].acts)
        backward(self, cache, g)

    step = AdamW.step
    seen = []  # (optimizer, calls so far) at each step

    def marking_step(self, transforms=None):
        seen.append((self, calls))
        step(self, transforms)

    monkeypatch.setattr(ad, "_logistic", counting)
    monkeypatch.setattr(ContinualState, "backward", reading_backward)
    monkeypatch.setattr(AdamW, "step", marking_step)
    state, sequence = desk_state(desk_strategy(branch_strategy, gating_mode=gating_mode))
    for task in sequence:
        learn_task(state, task.train)
    counts = [b - a for (opt_a, a), (opt_b, b) in zip(seen, seen[1:]) if opt_a is opt_b]
    assert counts and counts == [sigmoids] * len(counts)
    assert len(acts) == len(seen)
    for pre, sig in acts:
        assert sig.tobytes() == logistic(pre).tobytes()


def cache_size(cache):
    """How many arrays a training step's cache holds: the graph its
    backward pass walks."""
    if isinstance(cache, np.ndarray):
        return 1
    if isinstance(cache, (tuple, list)):
        return sum(cache_size(part) for part in cache)
    return 0


@pytest.mark.parametrize("gating_mode", ["gain", "fixed_one"])
def test_training_graph_stays_flat(gating_mode, monkeypatch):
    # Every frozen branch of every adapted layer sits in one `lowrank_sum`
    # term of the cache, so from task 2 on a
    # training step's backward pass reads as many arrays however many
    # branches are frozen, against 3 more per frozen branch if each were
    # its own `add_branch` term.
    per_task = []
    backward = ContinualState.backward

    def counting_backward(self, cache, g):
        per_task[-1].add(cache_size(cache))
        backward(self, cache, g)

    def marking_learn_task(*args, **kwargs):
        per_task.append(set())
        learn_task(*args, **kwargs)

    monkeypatch.setattr(ContinualState, "backward", counting_backward)
    monkeypatch.setattr(continual, "learn_task", marking_learn_task)
    n_tasks = 6
    model_cfg = dict(DESK_MODEL, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"])
    run_sequence(model_cfg, desk_strategy("olora", gating_mode=gating_mode, epochs=1), 0)
    counts = [sizes.pop() for sizes in per_task if len(sizes) == 1]
    assert len(counts) == n_tasks  # one cache size per task
    assert counts[1:] == [counts[1]] * (n_tasks - 1), counts

def test_evaluate_gate_forwards_grow_linearly(monkeypatch):
    # Each (gate, held pool) pair runs once: task t's gate is frozen when
    # its task ends, so after task t it runs on the t - 1 older pools, and
    # all t gates run on the new pool: 2t - 1 forwards, t^2 over a run,
    # against t^2 per evaluation if every gate ran on every pool.
    count = [0]
    per_evaluate = []
    forward = GatingModule.forward

    def counting_forward(self, pooled):
        count[0] += 1
        return forward(self, pooled)

    def counting_evaluate(state):
        before = count[0]
        row = evaluate(state)
        per_evaluate.append(count[0] - before)
        return row

    monkeypatch.setattr(GatingModule, "forward", counting_forward)
    monkeypatch.setattr(continual, "evaluate", counting_evaluate)
    n_tasks = 6
    model_cfg = dict(DESK_MODEL, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"])
    run_sequence(model_cfg, desk_strategy("olora", epochs=1), 0)
    assert per_evaluate == [2 * t - 1 for t in range(1, n_tasks + 1)]


def test_evaluate_first_layer_terms_grow_linearly(monkeypatch):
    # The first adapted layer's frozen output on a held pool is memoised
    # and grows by the branches frozen since the pool's last read: after
    # task t, evaluation multiplies task t's branch term against each of
    # the t - 1 older pools and all t terms against the new one, 2t - 1,
    # T^2 over a run of T tasks, against t^2 per evaluation if every held
    # pool summed its frozen branches afresh; and it takes W x only on the
    # new pool, never on an old one. Every frozen term is multiplied by
    # `autodiff._terms`, the fused product `lowrank_sum` adds to W x.
    products = []  # (input, W x products, branch terms) per kernel call
    lowrank_sum, terms = ad.lowrank_sum, ad._terms
    per_evaluate = []

    def counting_sum(h, weight, coeffs, ups, downs):
        products.append((h, 1, 0))
        return lowrank_sum(h, weight, coeffs, ups, downs)

    def counting_terms(h, coeffs, ups, downs):
        products.append((h, 0, len(coeffs)))
        return terms(h, coeffs, ups, downs)

    def counting_evaluate(state):
        products.clear()
        row = evaluate(state)
        *old, new = [pool.pooled for pool in state.held]
        on_old = [c for c in products if any(c[0] is x for x in old)]
        on_new = [c for c in products if c[0] is new]
        per_evaluate.append(
            (
                sum(c[2] for c in on_old + on_new),
                sum(c[1] for c in on_old),
                sum(c[1] for c in on_new),
            )
        )
        return row

    monkeypatch.setattr(ad, "lowrank_sum", counting_sum)
    monkeypatch.setattr(ad, "_terms", counting_terms)
    monkeypatch.setattr(continual, "evaluate", counting_evaluate)
    n_tasks = 6
    model_cfg = dict(DESK_MODEL, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"])
    run_sequence(model_cfg, desk_strategy("olora", epochs=1), 0)
    assert per_evaluate == [(2 * t - 1, 0, 1) for t in range(1, n_tasks + 1)]


@pytest.mark.parametrize(
    "branch_strategy, gating_mode, n_tasks",
    [
        ("olora", "gain", 3),
        ("inflora", "gain", 3),
        ("seq", "fixed_one", 3),
        ("olora", "fixed_one", 3),
        ("olora", "gain", 6),
    ],
)
def test_evaluate_matches_fresh_forward_accuracies(branch_strategy, gating_mode, n_tasks):
    # Every accuracy row `evaluate` returns is the row a fresh forward's
    # argmax gives on each held pool, although the memo's logits match
    # the fresh ones only to rounding (`held_bound`).
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(
        cfg, n_tasks=n_tasks, vocab_size=n_tasks * DESK_MODEL["window_size"]
    )
    for task in sequence:
        learn_task(state, task.train)
        state.hold(state.model.pool_batch(task.test), task.test.labels)
        row = evaluate(state)
        want = []
        for pool in state.held:
            with gr.no_grad():
                logits, _ = fresh_forward(state, gr.constant(pool.pooled))
            pred = np.argmax(logits.value, axis=0)
            want.append(100.0 * float(np.mean(pred == pool.labels)))
        assert row == want


def fresh_gate_samples(state):
    """Every gate module run fresh on the first 50 columns of each held
    test pool: the oracle of `collect_gate_samples`' memo read."""
    samples = []
    for task_idx, pool in enumerate(state.held):
        for gate_idx, module in enumerate(state.gates):
            values, _ = module.forward_values(pool.pooled[:, :50])
            samples.append(
                {"gate": gate_idx, "task": task_idx, "values": [float(v) for v in values]}
            )
    return samples


@pytest.mark.parametrize("test_per_task", [16, 80])
@pytest.mark.parametrize("gating_mode", ["gain", "no_constraints"])
@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_gate_samples_read_from_memo(branch_strategy, gating_mode, test_per_task, monkeypatch):
    # After a run, reading the gate samples runs no gate. Each sample is
    # the first 50 entries of its gate's row over the whole held pool, and
    # equals the oracle's fresh 50-column forward byte for byte, except
    # past column 48 of a pool wider than 50: there BLAS may round the
    # tail of a 50-wide product differently from the whole pool's (see
    # test_narrow_forward_matches_whole_pool_columns).
    cfg = desk_strategy(branch_strategy, gating_mode=gating_mode)
    state, sequence = desk_state(cfg, test_per_task=test_per_task)
    for task in sequence:
        learn_task(state, task.train)
        state.hold(state.model.pool_batch(task.test), task.test.labels)
        evaluate(state)
    want = fresh_gate_samples(state)
    rows = [[g.forward_values(pool.pooled)[0][:50] for g in state.gates] for pool in state.held]

    def no_forward(self, pooled):
        raise AssertionError("a gate ran")

    monkeypatch.setattr(GatingModule, "forward", no_forward)
    got = collect_gate_samples(state)
    exact = 50 if test_per_task <= 50 else 48
    assert len(got) == len(want) == DESK_MODEL["n_tasks"] ** 2
    for g, w in zip(got, want):
        assert (g["gate"], g["task"]) == (w["gate"], w["task"])
        values = np.array(g["values"])
        assert values.tobytes() == rows[g["task"]][g["gate"]].tobytes()
        assert values[:exact].tobytes() == np.array(w["values"][:exact]).tobytes()


@pytest.mark.parametrize("m", [32, 50, 64, 128])
def test_narrow_forward_matches_whole_pool_columns(m):
    # The memo reads a batch's columns, or a gate sample's, out of a
    # product over the whole pool. That equals a forward on those columns
    # alone only as far as BLAS rounds an output column the same whatever
    # the product's width. This states it at the bench's dims (embed 64,
    # gate hidden 32, rank 8) for the first m of 256 columns, as a view
    # and as a C-ordered copy: byte-equal up to the last multiple of 8.
    # Past it, OpenBLAS's Haswell kernels round a tail of 1 to 4 columns
    # differently (m = 50: columns 48 and 49), so only batch widths that
    # are multiples of 8 read the memo byte-exactly.
    rng = Rng(5)
    d, n, r = 64, 256, 8
    exact = m - m % 8
    x = gaussian_init(rng.child("x"), d, n, 1.0)
    shapes = gating_layer_shapes(d, 32)
    gate = GatingModule(
        [gaussian_init(rng.child(f"g{i}"), *s, 0.3) for i, s in enumerate(shapes)],
        GateFn.ABS_SIGMOID,
    )
    layer = AdaptedLinear(gaussian_init(rng.child("w"), d, d, 0.2))
    for i in range(4):
        layer.freeze()  # three fused by lowrank_sum, one added on its own
        layer.branch = LoraBranch(
            gaussian_init(rng.child(f"up{i}"), d, r, 0.2),
            gaussian_init(rng.child(f"down{i}"), r, d, 0.2),
        )
    rows = np.array([gaussian_init(rng.child(f"a{i}"), 1, n, 1.0) for i in range(4)])

    whole_gate = gate.forward_values(x)[0]
    whole = layer.forward(rows, None, x)[0]
    for part in (x[:, :m], x[:, :m].copy()):
        gate_row = gate.forward_values(part)[0]
        assert gate_row[:exact].tobytes() == whole_gate[:exact].tobytes()
        narrow = layer.forward(rows[:, :, :m].copy(), None, part)[0]
        assert narrow[:, :exact].tobytes() == whole[:, :exact].tobytes()


def test_inflora_out_of_subspace_names_layer_and_settings():
    cfg = desk_strategy("inflora", rank=3, eps_threshold=0.95)
    state, sequence = desk_state(cfg)
    dim = state.model.adapted_layers[1].in_dim
    state.grad_memory.layers[1] = SubspaceBasis(dim, np.eye(dim))
    with pytest.raises(NoFreeSubspace) as info:
        learn_task(state, sequence[0].train)
    msg = str(info.value)
    for part in ("task 0", "adapted layer 1", "0 of 16", "rank=3", "eps_threshold=0.95"):
        assert part in msg
    assert isinstance(info.value.__cause__, NoFreeSubspace)
    # raised before anything was expanded or added
    assert all(layer.n_branches == 0 for layer in state.model.adapted_layers)
    assert not state.gates


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_oversized_rank_names_knob_and_layer(branch_strategy, monkeypatch):
    # A rank past a layer's width fails when the state is built, before any
    # task trains, naming the knob, the layer and its shape. Left to the
    # first expansion, it would be a bare shape error under O-LoRA and
    # InfLoRA's NoFreeSubspace, whose advice (lower eps_threshold) cannot
    # help. At embed dim 8 the first adapted layer is (16, 8); the second,
    # (16, 16), takes rank 12.
    learned = []
    monkeypatch.setattr(continual, "learn_task", lambda *args: learned.append(args))
    cfg = desk_strategy(branch_strategy, rank=12)
    with pytest.raises(ValueError) as info:
        desk_state(cfg, embed_dim=8)
    msg = str(info.value)
    for part in ("rank=12", "adapted layer 0", "(16, 8)"):
        assert part in msg
    with pytest.raises(ValueError, match="rank=12"):
        run_sequence(dict(DESK_MODEL, embed_dim=8), cfg, 0)
    assert not learned


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


def test_run_without_tasks_fails_before_any_draw(monkeypatch):
    # n_tasks=0 gives a head of no classes: the backbone refuses it before
    # anything is drawn or trained (it used to train nothing and fail at
    # the end on an empty accuracy matrix).
    def never(*args, **kwargs):
        raise AssertionError("a task was built or trained")

    monkeypatch.setattr(continual, "learn_task", never)
    monkeypatch.setattr(continual, "build_task_sequence", never)
    with pytest.raises(ValueError, match="n_classes=0"):
        run_sequence(dict(DESK_MODEL, n_tasks=0), desk_strategy("olora"), 0)


@pytest.mark.parametrize(
    "model_cfg, match",
    [
        (dict(DESK_MODEL, hiden_dim=99), r"unknown keys \['hiden_dim'\], missing keys \[\]"),
        (
            {k: v for k, v in DESK_MODEL.items() if k != "noise"},
            r"unknown keys \[\], missing keys \['noise'\]",
        ),
    ],
    ids=["unknown", "missing"],
)
def test_run_refuses_model_cfg_keys(model_cfg, match, monkeypatch):
    # Before, a misspelt key next to the real ones ran to the end unread,
    # and a missing one failed as a bare KeyError. Both are refused, named,
    # before the backbone draws anything.
    def never(*args, **kwargs):
        raise AssertionError("the backbone was built")

    monkeypatch.setattr(continual, "ToyBackbone", never)
    with pytest.raises(ValueError, match=match):
        run_sequence(model_cfg, desk_strategy("olora"), 0)


def test_task_out_of_order_rejected():
    state, sequence = desk_state(desk_strategy("olora"))
    with pytest.raises(OrderViolation, match="expected task 0, got 1"):
        learn_task(state, sequence[1].train)
    assert state.tasks_learned == 0 and not state.gates


def state_snapshot(state):
    """What `learn_task` and `hold` change, as comparable values."""
    layers = [
        (layer.branch is None, layer.frozen_count, layer.ups.tobytes(), layer.downs.tobytes())
        for layer in state.model.adapted_layers
    ]
    bases = [b.basis.tobytes() for m in (state.gate_memory, state.grad_memory) for b in m.layers]
    gates = [p.value.tobytes() for gate in state.gates for p in gate.params]
    return (state.tasks_learned, state.gate, state.trained_size, len(state.held), layers, bases, gates)


@pytest.mark.parametrize("branch_strategy", ["olora", "inflora"])
def test_labels_outside_the_head_rejected_before_the_state_changes(branch_strategy):
    # Six classes in the head. Unchecked, learn_task failed on label 9 only
    # at its first training step, with the task's branches expanded and its
    # gate built, and hold kept labels 6 and -1, which evaluation scored as
    # wrong.
    state, sequence = desk_state(desk_strategy(branch_strategy))
    learn_task(state, sequence[0].train)
    before = state_snapshot(state)
    train, test = sequence[1].train, sequence[0].test
    labels = train.labels.copy()
    labels[3] = 9
    with pytest.raises(IdOutOfRange, match="task 1: train label 9 is outside the head's 6 classes"):
        learn_task(state, Dataset(sequences(train), labels, 1))
    assert state_snapshot(state) == before
    for bad in (6, -1):
        labels = test.labels.copy()
        labels[-1] = bad
        with pytest.raises(IdOutOfRange, match=f"task 0: test label {bad} is outside"):
            state.hold(state.model.pool_batch(test), labels)
        assert state_snapshot(state) == before
    learn_task(state, train)
    assert state.tasks_learned == 2


@pytest.mark.parametrize("seed", [1.7, "1", True], ids=["float", "str", "bool"])
def test_run_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=f"seed={seed!r}: need an integer"):
        run_sequence(DESK_MODEL, desk_strategy("olora"), seed)


@pytest.mark.parametrize("gating_mode", continual.GATING_MODES)
def test_gate_fn_follows_gating_mode(gating_mode):
    # The ablations that drop the initialization constraints also drop
    # f(0) = 0; every other mode squashes with |2 sigmoid(b) - 1|.
    cfg = StrategyConfig(gating_mode=gating_mode)
    cfg.validate()
    plain = gating_mode in ("no_init", "no_constraints")
    assert cfg.effective_gate_fn is (GateFn.SIGMOID if plain else GateFn.ABS_SIGMOID)


# Every rule of `StrategyConfig.validate`: (field, bad value, message).
VALIDATE_CASES = [
    ("branch_strategy", "lora", "unknown branch strategy 'lora'"),
    ("gating_mode", "open", "unknown gating mode 'open'"),
    ("branch_strategy", "seq", "single-branch strategy"),
    ("eps_threshold", 0.0, "eps_threshold must be in"),
    ("eps_threshold", 1.5, "eps_threshold must be in"),
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
    ("rank", 2.5, "rank must be an integer, got 2.5"),
    ("rank", True, "rank must be an integer, got True"),
    ("epochs", 4.0, "epochs must be an integer, got 4.0"),
    ("epochs", False, "epochs must be an integer, got False"),
    ("batch_size", 16.0, "batch_size must be an integer, got 16.0"),
    ("batch_size", True, "batch_size must be an integer, got True"),
    ("gate_hidden", 3.5, "gate_hidden must be an integer, got 3.5"),
    ("gate_hidden", True, "gate_hidden must be an integer, got True"),
    ("eps_threshold", True, "eps_threshold must be a real number, got True"),
    ("eps_threshold", "0.1", "eps_threshold must be a real number, got '0.1'"),
    ("lr", True, "lr must be a real number, got True"),
    ("lr", "0.1", "lr must be a real number, got '0.1'"),
    ("gate_init_std", True, "gate_init_std must be a real number, got True"),
    ("gate_init_std", "0.1", "gate_init_std must be a real number, got '0.1'"),
]


@pytest.mark.parametrize(
    "field, value, message", VALIDATE_CASES, ids=[f"{f}={v}" for f, v, _ in VALIDATE_CASES]
)
def test_validate_rejects_and_names_the_field(field, value, message):
    with pytest.raises(ValueError, match=message):
        StrategyConfig(**{field: value}).validate()


@pytest.mark.parametrize("case", ["one", "five", "column", "flat_pooled"])
def test_hold_refuses_labels_that_do_not_match_the_columns(case):
    # A held pool takes one label per pooled column. Left unchecked, one
    # label for 16 columns broadcast in `evaluate` (a silent score), and 5
    # failed there with numpy's unnamed broadcast error.
    state, sequence = desk_state(desk_strategy("olora"))
    test = sequence[0].test
    pooled = state.model.pool_batch(test)
    labels = {
        "one": test.labels[:1],
        "five": test.labels[:5],
        "column": test.labels[:, None],
        "flat_pooled": test.labels,
    }[case]
    if case == "flat_pooled":
        pooled = pooled[0]
    with pytest.raises(ShapeMismatch) as info:
        state.hold(pooled, labels)
    for shape in (labels.shape, pooled.shape):
        assert str(shape) in str(info.value)
    assert not state.held
    state.hold(state.model.pool_batch(test), test.labels)
    assert len(state.held) == 1


@pytest.mark.parametrize("case", ["label", "task_id", "token_id", "empty_split"])
def test_bad_prebuilt_sequence_rejected_before_training(case, monkeypatch):
    def no_training(state, train):
        raise AssertionError("learn_task ran")

    monkeypatch.setattr(continual, "learn_task", no_training)
    _, sequence = desk_state(desk_strategy("olora"))
    model_cfg = DESK_MODEL
    if case == "label":
        # three tasks of two classes under a four-class head: task 3's
        # labels 4 and 5 have no logit
        model_cfg = dict(DESK_MODEL, n_tasks=2)
        error, message = IdOutOfRange, r"task 2: train label \d is outside the head's 4 classes"
    elif case == "task_id":
        sequence[1].test.task_id = 2
        error, message = OrderViolation, "task 1: test set has task id 2"
    elif case == "token_id":
        # the last task's test set, which the run would pool only after
        # every earlier task had trained
        test = sequence[2].test
        seqs = sequences(test)
        seqs[5][-1] = 99
        sequence[2].test = Dataset(seqs, test.labels, 2)
        error = IdOutOfRange
        message = r"task 2: test sequence 5 has token id 99, outside the vocab \[0, 24\)"
    else:
        sequence[1].train = Dataset([], np.zeros(0, np.int64), 1)
        error, message = EmptyInput, "task 1: train set holds no sequence"
    with pytest.raises(error, match=message):
        run_sequence(model_cfg, desk_strategy("olora"), 0, sequence=sequence)
