"""Sequential-task orchestration: per-task training under the constraint
machinery, evaluation into an accuracy matrix, and the derived metrics.

One continual run walks the task list in order. For each task it expands
the adapter stacks (strategy-dependent), builds the new gate module with
its initialization constraint, trains with every gate update projected
off the stored subspaces, then grows the subspace memories from the
task's own activations. Evaluation always uses the single gated forward
path with no task identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .adapter import expand_branch, inflora_design, olora_penalty_node
from .errors import (
    EmptyInput,
    IncompleteMatrix,
    NoFreeSubspace,
    OrderViolation,
    SingleTask,
)
from .gating import (
    GateFn,
    GatingBank,
    constrain_update,
    gating_layer_shapes,
    init_new_gating,
)
from .model import Dataset, TaskSequence, ToyBackbone
from .numerics import Rng
from .optim import AdamW
from .params import BRANCH_STRATEGIES, ArchSpec, count_trainable_params
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
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
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
        GateFn(self.gate_fn)
        if not 0.0 < self.eps_threshold <= 1.0:
            raise ValueError(f"eps_threshold must be in (0, 1], got {self.eps_threshold}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
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

    def __init__(self, rows: Optional[list[list[float]]] = None):
        self.rows: list[list[float]] = []
        if rows:
            for row in rows:
                self.add_row(row)

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


class ContinualState:
    """Everything that persists across tasks in one run."""

    def __init__(self, model: ToyBackbone, cfg: StrategyConfig, rng: Rng):
        cfg.validate()
        self.model = model
        self.cfg = cfg
        self.rng = rng
        self.bank = GatingBank()
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

    @property
    def n_branches(self) -> int:
        return len(self.model.adapted_layers[0].branches)

    def forward(self, pooled: ad.DiffNode) -> tuple[ad.DiffNode, list[np.ndarray]]:
        """Logits and adapted-layer inputs of the integrated model: every
        branch weighted by its gate, or by 1 when ungated."""
        if self.cfg.gated:
            coeffs = self.bank.coefficient_nodes(pooled)
        else:
            coeffs = [ad.constant(np.ones((1, pooled.shape[1])))] * self.n_branches
        return self.model.forward_node(coeffs, pooled)

    def trainable_params(self) -> list[ad.DiffNode]:
        params: list[ad.DiffNode] = []
        for layer in self.model.adapted_layers:
            for branch in layer.branches:
                params.extend(branch.trainable_params())
        if self.cfg.gated and self.bank.modules:
            new = self.bank.modules[-1]
            params.extend(p for p in new.params if p.requires_grad)
        return params


def _subsample(rng: Rng, n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.permutation(n)[:cap])


def _collect_adapted_inputs(
    state: ContinualState, dataset: Dataset, rng: Rng
) -> list[np.ndarray]:
    """Inputs seen by each adapted layer on a sample of the dataset."""
    idx = _subsample(rng, len(dataset), state.cfg.subspace_samples)
    pooled = state.model.pool_batch(dataset, idx)
    with ad.no_grad():
        _, inputs = state.forward(ad.constant(pooled))
    return inputs


def learn_task(state: ContinualState, train: Dataset) -> None:
    """Run one task through the full pipeline (expansion, constrained
    initialization, training, subspace growth)."""
    cfg = state.cfg
    if len(train) == 0:
        raise EmptyInput("cannot learn from an empty dataset")
    if train.task_id != state.tasks_learned:
        raise OrderViolation(
            f"expected task {state.tasks_learned}, got {train.task_id}"
        )
    t = state.tasks_learned + 1
    rng = state.rng.child(f"task{t}")

    layers = state.model.adapted_layers
    designed_rows: list[Optional[np.ndarray]] = [None] * len(layers)
    if cfg.branch_strategy == "inflora":
        inputs = _collect_adapted_inputs(state, train, rng.child("design"))
        for i, h in enumerate(inputs):
            basis = state.grad_memory.layer(i)
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
        prev = state.bank.modules[-1] if state.bank.modules else None
        module = init_new_gating(
            prev,
            state.gate_memory,
            rng.child("gate"),
            shapes=state.gate_shapes,
            gate=cfg.effective_gate_fn,
            init_std=cfg.gate_init_std,
            project_final=cfg.init_constraints,
        )
        state.bank.add(module)
        if cfg.update_constraints:
            bases = [state.gate_memory.layer(i) for i in range(len(module.params))]
            for param, basis in zip(module.params, bases):
                transforms[param] = (
                    lambda delta, b=basis: constrain_update(delta, b)
                )

    params = state.trainable_params()
    opt = AdamW(
        params,
        lr=cfg.lr,
        betas=(cfg.beta1, cfg.beta2),
        weight_decay=cfg.weight_decay,
    )

    pooled_all = state.model.pool_batch(train)
    labels_all = train.labels
    n = len(train)
    shuffle_rng = rng.child("shuffle")
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits, _ = state.forward(ad.constant(pooled_all[:, idx]))
            loss = ad.softmax_cross_entropy(logits, labels_all[idx])
            if cfg.branch_strategy == "olora":
                for layer in layers:
                    pen = olora_penalty_node(layer.branches, cfg.lam)
                    if pen is not None:
                        loss = ad.add(loss, pen)
            ad.backward(loss)
            opt.step(transforms)

    if cfg.gated and (cfg.init_constraints or cfg.update_constraints):
        idx = _subsample(rng.child("trace"), n, cfg.subspace_samples)
        pooled = state.model.pool_batch(train, idx)
        _, trace = state.bank.modules[-1].forward_values(pooled)
        state.gate_memory.extend_all(trace)
    if cfg.branch_strategy == "inflora":
        inputs = _collect_adapted_inputs(state, train, rng.child("grad-space"))
        state.grad_memory.extend_all(inputs)
    state.tasks_learned = t


def evaluate(state: ContinualState, sequence: TaskSequence) -> list[float]:
    """Accuracy (percent) on every learned task's test set, single gated
    forward path, no task identities."""
    row = []
    for i in range(state.tasks_learned):
        test = sequence.tasks[i].test
        pooled = state.model.pool_batch(test)
        with ad.no_grad():
            logits, _ = state.forward(ad.constant(pooled))
        pred = np.argmax(logits.value, axis=0)
        row.append(100.0 * float(np.mean(pred == test.labels)))
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
    wall_clock_sec: float = 0.0
    config_echo: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        """Deterministic content only (no timings)."""
        return {
            "seed": self.seed,
            "accuracy_matrix": self.matrix.rows,
            "ap": self.ap,
            "ft": self.ft,
            "ap_trajectory": self.ap_trajectory,
            "trainable_params": self.trainable_params,
            "config": self.config_echo,
        }


def collect_gate_samples(
    state: ContinualState, sequence: TaskSequence, cap: int = 50
) -> list[dict]:
    """Outputs of every gate module on every learned task's test samples."""
    if not state.cfg.gated:
        return []
    samples = []
    for task_idx in range(state.tasks_learned):
        test = sequence.tasks[task_idx].test
        take = min(cap, len(test))
        pooled = state.model.pool_batch(test, range(take))
        for gate_idx, module in enumerate(state.bank.modules):
            values, _ = module.forward_values(pooled)
            samples.append(
                {
                    "gate": gate_idx,
                    "task": task_idx,
                    "values": [float(v) for v in values],
                }
            )
    return samples


def run_sequence(
    model_cfg: dict,
    strategy: StrategyConfig,
    seed: int,
    *,
    sequence: Optional[TaskSequence] = None,
    config_echo: Optional[dict] = None,
) -> RunResult:
    """One full continual run for one seed.

    model_cfg keys: vocab_size, embed_dim, hidden_dim, n_tasks,
    classes_per_task, train_per_task, test_per_task, window_size, noise,
    seq_len_min, seq_len_max. A prebuilt task sequence overrides the
    synthetic generator (its label union must fit the head).
    """
    strategy.validate()
    t0 = time.perf_counter()
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
        from .model import build_task_sequence

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
    state = ContinualState(model, strategy, rng.child("train"))
    ap_trajectory = []
    for task in sequence:
        learn_task(state, task.train)
        row = evaluate(state, sequence)
        state.matrix.add_row(row)
        ap_trajectory.append(float(np.mean(row)))
    ap = compute_ap(state.matrix)
    ft = compute_ft(state.matrix) if state.matrix.n_tasks >= 2 else None
    gate_samples = collect_gate_samples(state, sequence)
    arch = ArchSpec(
        "run",
        tuple((1, layer.out_dim, layer.in_dim) for layer in model.adapted_layers),
        model.embed_dim,
        strategy.gate_hidden,
        strategy.gate_layers,
    )
    n_params = count_trainable_params(
        arch, strategy.branch_strategy, strategy.rank, gated=strategy.gated
    )
    return RunResult(
        seed=seed,
        matrix=state.matrix,
        ap=ap,
        ft=ft,
        ap_trajectory=ap_trajectory,
        gate_samples=gate_samples,
        trainable_params=n_params,
        wall_clock_sec=time.perf_counter() - t0,
        config_echo=config_echo or {},
    )
