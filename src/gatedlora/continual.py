"""Sequential-task orchestration: per-task training under the constraint
machinery, evaluation into an accuracy matrix, and the derived metrics.

One continual run walks the task list in order. For each task it expands
the adapter stacks (strategy-dependent), builds the new gate module with
its initialization constraint, trains with every gate update projected
off the stored subspaces, then grows the subspace memories from the
task's own activations. Evaluation always uses the single gated forward
path with no task identity, on test pools the state holds for the whole
run.

Training and evaluation apply the model to a pool through one method,
`ContinualState.apply`. Frozen gates and branches never change, and
neither does a pool, so what they give on it is computed once per pool
(the task's training pool, or a held test pool) and read back by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .adapter import expand_branch, inflora_design, olora_gram, olora_penalty_node
from .errors import (
    EmptyInput,
    IdOutOfRange,
    IncompleteMatrix,
    NoFreeSubspace,
    OrderViolation,
    SingleTask,
)
from .gating import (
    GateFn,
    GatingModule,
    constrain_update,
    gating_layer_shapes,
    init_new_gating,
)
from .model import Dataset, TaskSequence, ToyBackbone, build_task_sequence
from .numerics import Rng
from .optim import AdamW
from .params import BRANCH_STRATEGIES
from .subspace import SubspaceMemory

GATING_MODES = ("gain", "fixed_one", "no_init", "no_update", "no_constraints")


@dataclass
class StrategyConfig:
    branch_strategy: str = "olora"
    gating_mode: str = "gain"
    gate_fn: str = "abs_sigmoid"
    gate_hidden: int = 32
    gate_layers: int = 2
    gate_init_std: float = 0.02
    rank: int = 8
    lam: float = 0.5
    eps_threshold: float = 0.99
    lr: float = 1e-3
    epochs: int = 25
    batch_size: int = 32
    subspace_samples: int = 512

    def validate(self) -> None:
        if self.branch_strategy not in BRANCH_STRATEGIES:
            raise ValueError(f"unknown branch strategy {self.branch_strategy!r}")
        if self.gating_mode not in GATING_MODES:
            raise ValueError(f"unknown gating mode {self.gating_mode!r}")
        if self.branch_strategy == "seq" and self.gating_mode != "fixed_one":
            raise ValueError(
                "the single-branch strategy has no per-task branch to gate; "
                "use gating_mode='fixed_one'"
            )
        if GateFn(self.gate_fn) is GateFn.SIGMOID:
            raise ValueError(
                "gate_fn='sigmoid' has f(0) = 0.5, so it breaks the zero-output "
                "pin on old-task inputs; only the no_init and no_constraints "
                "ablations use it, and they select it themselves"
            )
        if not 0.0 < self.eps_threshold <= 1.0:
            raise ValueError(f"eps_threshold must be in (0, 1], got {self.eps_threshold}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        for name in ("lr", "gate_init_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("rank", "epochs", "batch_size", "gate_hidden", "subspace_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gate_layers < 0 or self.gate_layers % 2 != 0:
            raise ValueError("gate_layers must be a non-negative even number")

    @property
    def gated(self) -> bool:
        return self.gating_mode != "fixed_one"

    @property
    def init_constraints(self) -> bool:
        return self.gating_mode in ("gain", "no_update")

    @property
    def update_constraints(self) -> bool:
        return self.gating_mode in ("gain", "no_init")

    @property
    def effective_gate_fn(self) -> GateFn:
        # Removing the initialization constraints also swaps the gate
        # squash for a plain sigmoid (which has f(0) != 0).
        if self.gating_mode in ("no_init", "no_constraints"):
            return GateFn.SIGMOID
        return GateFn(self.gate_fn)


class AccuracyMatrix:
    """Lower-triangular performance matrix: rows[j][i] is the score on
    task i (percent) after learning task j+1."""

    def __init__(self):
        self.rows: list[list[float]] = []

    def add_row(self, row) -> None:
        row = [float(x) for x in row]
        if len(row) != len(self.rows) + 1:
            raise IncompleteMatrix(
                f"row {len(self.rows)} must have {len(self.rows) + 1} entries"
            )
        for x in row:
            if not 0.0 <= x <= 100.0:
                raise ValueError(f"accuracy {x} outside [0, 100]")
        self.rows.append(row)

    @property
    def n_tasks(self) -> int:
        return len(self.rows)

    def entry(self, j: int, i: int) -> float:
        if i > j:
            raise IncompleteMatrix(f"entry ({j}, {i}) above the diagonal")
        return self.rows[j][i]


def compute_ap(matrix: AccuracyMatrix) -> float:
    """Mean of the final row: overall performance after the last task."""
    if matrix.n_tasks == 0:
        raise IncompleteMatrix("empty accuracy matrix")
    final = matrix.rows[-1]
    if len(final) != matrix.n_tasks:
        raise IncompleteMatrix("final row is incomplete")
    return float(np.mean(final))


def compute_ft(matrix: AccuracyMatrix) -> float:
    """Mean drop from each old task's best historical score to its final
    score; negative values mean backward transfer."""
    t = matrix.n_tasks
    if t < 2:
        raise SingleTask("forgetting needs at least two tasks")
    final = matrix.rows[-1]
    drops = []
    for i in range(t - 1):
        best = max(matrix.rows[j][i] for j in range(i, t - 1))
        drops.append(best - final[i])
    return float(np.mean(drops))


@dataclass
class Pool:
    """A pooled input set, with what the frozen part of the model gives on
    it: a task's training pool, or a learned task's test pool, held for
    every later evaluation.

    The pool never changes, and neither does a frozen gate or branch, so
    each is applied to the whole pool once:
    - `gate_rows[j]` is frozen gate j's (1, n) output;
    - `prefix`, a `(partial, k)` pair, holds as a constant node the first
      adapted layer's sum W x + sum_{i<k} a_i * up_i(down_i x) over its
      first k branches, each frozen and weighted by a frozen coefficient.
    Both grow as later tasks freeze more, in the order the forward adds.
    """

    pooled: np.ndarray
    labels: np.ndarray
    gate_rows: list[np.ndarray] = field(default_factory=list)
    prefix: Optional[tuple[ad.DiffNode, int]] = None


class ContinualState:
    """Everything that persists across tasks in one run: the model, the
    gate modules (`gates`, one per learned task in task order when gated;
    only the newest trains), both subspace memories, the accuracy matrix
    and the held test pools (`held`, one `Pool` per learned task, in task
    order)."""

    def __init__(self, model: ToyBackbone, cfg: StrategyConfig, rng: Rng):
        cfg.validate()
        self.model = model
        self.cfg = cfg
        self.rng = rng
        self.gates: list[GatingModule] = []
        self.gate_shapes = gating_layer_shapes(
            model.embed_dim, cfg.gate_hidden, cfg.gate_layers
        )
        self.gate_memory = SubspaceMemory(
            [s[1] for s in self.gate_shapes], cfg.eps_threshold
        )
        self.grad_memory = SubspaceMemory(
            [layer.in_dim for layer in model.adapted_layers], cfg.eps_threshold
        )
        self.tasks_learned = 0
        self.matrix = AccuracyMatrix()
        self.held: list[Pool] = []

    @property
    def n_branches(self) -> int:
        return len(self.model.adapted_layers[0].branches)

    def hold(self, pooled: np.ndarray, labels: np.ndarray) -> None:
        """Keep a learned task's `(embed_dim, n)` pooled test inputs and
        their n labels for every later evaluation."""
        self.held.append(Pool(pooled, labels))

    def apply(
        self, pool: Pool, idx: Optional[np.ndarray] = None
    ) -> tuple[ad.DiffNode, list[np.ndarray]]:
        """Logits node and adapted-layer inputs of the integrated model on
        the pool's columns `idx` (all of them when None): every branch
        weighted by its gate, or by 1 when ungated.

        First the pool's memo is extended, graph-free, over the gates and
        leading first-layer branches frozen since it was last read. Then
        its columns `idx` are taken and only the rest runs fresh, with a
        graph unless under `no_grad`: the unfrozen gates and branches, the
        later adapted layers and the head. The result matches a fresh
        forward on the C-ordered batch `pool.pooled.take(idx, axis=1)` byte
        for byte as long as BLAS rounds an output column the same whatever
        the product's width.
        """
        layer = self.model.adapted_layers[0]
        with ad.no_grad():
            x = ad.constant(pool.pooled)
            if self.cfg.gated:
                for module in self.gates[len(pool.gate_rows):]:
                    if not module.frozen:
                        break
                    pool.gate_rows.append(module.forward_node(x)[0].value)
                memo = [ad.constant(r) for r in pool.gate_rows]
            else:
                memo = [ad.constant(np.ones((1, x.shape[1])))] * self.n_branches
            k = pool.prefix[1] if pool.prefix else 0
            while k < len(memo) and layer.branches[k].frozen:
                k += 1
            pool.prefix = (layer.forward_node(memo[:k], x, pool.prefix, stop=k), k)

        def cols(a: np.ndarray) -> np.ndarray:
            # `take` copies C-ordered; `a[:, idx]` is Fortran-ordered, and
            # BLAS may round a product with it unlike the memo's columns.
            return a if idx is None else a.take(idx, axis=1)

        x = ad.constant(cols(pool.pooled))
        if self.cfg.gated:
            coeffs = [ad.constant(cols(r)) for r in pool.gate_rows]
            coeffs += [m.forward_node(x)[0] for m in self.gates[len(coeffs):]]
        else:
            coeffs = [ad.constant(np.ones((1, x.shape[1])))] * self.n_branches
        partial, k = pool.prefix
        return self.model.forward_node(coeffs, x, (ad.constant(cols(partial.value)), k))

    def trainable_params(self) -> list[ad.DiffNode]:
        params: list[ad.DiffNode] = []
        for layer in self.model.adapted_layers:
            for branch in layer.branches:
                params.extend(branch.trainable_params())
        if self.cfg.gated and self.gates:
            new = self.gates[-1]
            params.extend(p for p in new.params if p.requires_grad)
        return params


def _subsample(rng: Rng, n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.permutation(n)[:cap])


def _collect_adapted_inputs(
    state: ContinualState, pool: Pool, rng: Rng
) -> list[np.ndarray]:
    """Inputs seen by each adapted layer on a sample of the pool's columns,
    read through the pool's memo (`ContinualState.apply`)."""
    idx = _subsample(rng, pool.pooled.shape[1], state.cfg.subspace_samples)
    with ad.no_grad():
        _, inputs = state.apply(pool, idx)
    return inputs


def learn_task(state: ContinualState, train: Dataset) -> None:
    """Run one task through the full pipeline (expansion, constrained
    initialization, training, subspace growth).

    The task's pooled training set is one `Pool` for the whole task: every
    step reads its batch's columns of the frozen gate rows and of the
    first adapted layer's frozen prefix from it."""
    cfg = state.cfg
    if len(train) == 0:
        raise EmptyInput("cannot learn from an empty dataset")
    if train.task_id != state.tasks_learned:
        raise OrderViolation(
            f"expected task {state.tasks_learned}, got {train.task_id}"
        )
    t = state.tasks_learned + 1
    rng = state.rng.child(f"task{t}")
    pool = Pool(state.model.pool_batch(train), train.labels)
    n = len(train)

    layers = state.model.adapted_layers
    designed_rows: list[Optional[np.ndarray]] = [None] * len(layers)
    if cfg.branch_strategy == "inflora":
        inputs = _collect_adapted_inputs(state, pool, rng.child("design"))
        for i, h in enumerate(inputs):
            basis = state.grad_memory.layers[i]
            try:
                designed_rows[i] = inflora_design(h, basis, cfg.rank)
            except NoFreeSubspace as exc:
                raise NoFreeSubspace(
                    f"task {t}, adapted layer {i}: {basis.dim - basis.rank} of "
                    f"{basis.dim} input dims are free of the protected subspace, "
                    f"too few for rank={cfg.rank} (eps_threshold="
                    f"{cfg.eps_threshold}; lowering either leaves more)"
                ) from exc

    if cfg.branch_strategy == "seq":
        if t == 1:
            for i, layer in enumerate(layers):
                expand_branch(layer, cfg.rank, rng.child(f"branch{i}"))
    else:
        for i, layer in enumerate(layers):
            expand_branch(
                layer, cfg.rank, rng.child(f"branch{i}"),
                designed_down=designed_rows[i],
            )

    transforms = {}
    if cfg.gated:
        prev = state.gates[-1] if state.gates else None
        module = init_new_gating(
            prev,
            state.gate_memory,
            rng.child("gate"),
            shapes=state.gate_shapes,
            gate=cfg.effective_gate_fn,
            init_std=cfg.gate_init_std,
            project_final=cfg.init_constraints,
        )
        state.gates.append(module)
        if cfg.update_constraints:
            for param, basis in zip(module.params, state.gate_memory.layers):
                transforms[param] = (
                    lambda delta, b=basis: constrain_update(delta, b)
                )

    # The older branches stay frozen through the task: one Gram per layer.
    penalties = []
    if cfg.branch_strategy == "olora" and cfg.lam != 0.0:
        for layer in layers:
            gram = olora_gram(layer.branches)
            if gram is not None:
                penalties.append((layer.branches[-1].down, gram))

    params = state.trainable_params()
    opt = AdamW(params, cfg.lr)

    shuffle_rng = rng.child("shuffle")
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits, _ = state.apply(pool, idx)
            loss = ad.softmax_cross_entropy(logits, pool.labels[idx])
            for down, gram in penalties:
                loss = ad.add(loss, olora_penalty_node(down, gram, cfg.lam))
            ad.backward(loss)
            opt.step(transforms)

    if cfg.gated and (cfg.init_constraints or cfg.update_constraints):
        idx = _subsample(rng.child("trace"), n, cfg.subspace_samples)
        _, trace = state.gates[-1].forward_values(pool.pooled.take(idx, axis=1))
        state.gate_memory.extend_all(trace)
    if cfg.branch_strategy == "inflora":
        inputs = _collect_adapted_inputs(state, pool, rng.child("grad-space"))
        state.grad_memory.extend_all(inputs)
    state.tasks_learned = t


def evaluate(state: ContinualState) -> list[float]:
    """Accuracy (percent) on each held test pool (`state.held`, in task
    order), single gated forward path, no task identities.

    Logits come from `ContinualState.apply`, which reads frozen gate rows
    and the first adapted layer's frozen-branch prefix from each pool's
    memo (see `Pool`), so a run of T tasks computes each frozen (gate,
    pool) pair once, O(T^2) gate forwards in all rather than O(T^3).
    """
    row = []
    with ad.no_grad():
        for pool in state.held:
            logits, _ = state.apply(pool)
            pred = np.argmax(logits.value, axis=0)
            row.append(100.0 * float(np.mean(pred == pool.labels)))
    return row


@dataclass
class RunResult:
    seed: int
    matrix: AccuracyMatrix
    ap: float
    ft: Optional[float]
    ap_trajectory: list[float]
    gate_samples: list[dict] = field(default_factory=list)
    trainable_params: int = 0

    def summary_dict(self) -> dict:
        """Deterministic content only (no timings)."""
        return {
            "seed": self.seed,
            "accuracy_matrix": self.matrix.rows,
            "ap": self.ap,
            "ft": self.ft,
            "ap_trajectory": self.ap_trajectory,
            "trainable_params": self.trainable_params,
            "config": {},  # an empty key the recorded digests include
        }


def collect_gate_samples(state: ContinualState) -> list[dict]:
    """Outputs of every gate module on the first 50 samples of each held
    test pool (`state.held`). Each runs fresh on those columns rather than
    slicing a memoised row: BLAS may round a narrower product
    differently."""
    if not state.cfg.gated:
        return []
    samples = []
    for task_idx, pool in enumerate(state.held):
        for gate_idx, module in enumerate(state.gates):
            values, _ = module.forward_values(pool.pooled[:, :50])
            samples.append(
                {
                    "gate": gate_idx,
                    "task": task_idx,
                    "values": [float(v) for v in values],
                }
            )
    return samples


def _check_sequence(sequence: TaskSequence, n_classes: int) -> None:
    """Task t's train and test sets carry task id t, and every label is a
    class of the head."""
    for t, task in enumerate(sequence):
        for split, ds in (("train", task.train), ("test", task.test)):
            if ds.task_id != t:
                raise OrderViolation(
                    f"task {t}: {split} set has task id {ds.task_id}; a sequence's "
                    f"task ids must run 0, 1, ... in order"
                )
            bad = ds.labels[(ds.labels < 0) | (ds.labels >= n_classes)]
            if bad.size:
                raise IdOutOfRange(
                    f"task {t}: {split} label {bad[0]} is outside the head's "
                    f"{n_classes} classes (n_tasks x classes_per_task)"
                )


def run_sequence(
    model_cfg: dict,
    strategy: StrategyConfig,
    seed: int,
    *,
    sequence: Optional[TaskSequence] = None,
) -> RunResult:
    """One full continual run for one seed.

    model_cfg keys: vocab_size, embed_dim, hidden_dim, n_tasks,
    classes_per_task, train_per_task, test_per_task, window_size, noise,
    seq_len_min, seq_len_max. A prebuilt task sequence overrides the
    synthetic generator; its task ids must run 0, 1, ... in order and its
    labels must fit the head, which is checked before any training.
    """
    strategy.validate()
    rng = Rng(seed)
    n_classes = model_cfg["n_tasks"] * model_cfg["classes_per_task"]
    model = ToyBackbone(
        rng.child("model"),
        vocab_size=model_cfg["vocab_size"],
        embed_dim=model_cfg["embed_dim"],
        hidden_dim=model_cfg["hidden_dim"],
        n_classes=n_classes,
    )
    if sequence is None:
        sequence = build_task_sequence(
            rng.child("data"),
            n_tasks=model_cfg["n_tasks"],
            classes_per_task=model_cfg["classes_per_task"],
            n_train=model_cfg["train_per_task"],
            n_test=model_cfg["test_per_task"],
            vocab_size=model_cfg["vocab_size"],
            window_size=model_cfg["window_size"],
            noise=model_cfg["noise"],
            embedding=model.embedding,
            seq_len=(model_cfg["seq_len_min"], model_cfg["seq_len_max"]),
        )
    _check_sequence(sequence, n_classes)
    state = ContinualState(model, strategy, rng.child("train"))
    ap_trajectory = []
    for task in sequence:
        learn_task(state, task.train)
        state.hold(model.pool_batch(task.test), task.test.labels)
        row = evaluate(state)
        state.matrix.add_row(row)
        ap_trajectory.append(float(np.mean(row)))
    ap = compute_ap(state.matrix)
    ft = compute_ft(state.matrix) if state.matrix.n_tasks >= 2 else None
    gate_samples = collect_gate_samples(state)
    return RunResult(
        seed=seed,
        matrix=state.matrix,
        ap=ap,
        ft=ft,
        ap_trajectory=ap_trajectory,
        gate_samples=gate_samples,
        trainable_params=sum(p.value.size for p in state.trainable_params()),
    )
