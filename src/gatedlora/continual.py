"""Sequential-task orchestration: per-task training under the constraint
machinery, evaluation into an accuracy matrix, and the derived metrics.

One continual run walks the task list in order. For each task it expands
the adapter stacks (strategy-dependent), builds the new gate module with
its initialization constraint, trains with every gate update projected
off the stored subspaces, grows the subspace memories from the task's
own activations when a later task follows, and then freezes the task's
gate and branches.
Evaluation always uses the single gated forward path with no task
identity, on test pools the state holds for the whole run.

Training and evaluation apply the model to a pool through one method,
`ContinualState.apply`. Frozen gates and branches never change, and
neither does a pool, so what they give on it is computed once per pool
(the task's training pool, or a held test pool) and read back by column:
every coefficient but the training gate's, as one (j, 1, n) array, and
the first adapted layer's output over its frozen branches, whose input is
the pool itself. A task is frozen as soon as it is learned, so a run of T
tasks computes each (gate, held pool) product and each (first-layer
branch, held pool) term once: T^2 of each in evaluation. The first layer
adds its trainable branch, if any, on every call; the later adapted
layers run whole, each adding all of its frozen branches in one product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .adapter import expand_branch, inflora_design, olora_gram
from .errors import (
    EmptyInput,
    IdOutOfRange,
    IncompleteMatrix,
    NoFreeSubspace,
    NonFinite,
    OrderViolation,
    ShapeMismatch,
    SingleTask,
)
from .gating import (
    GateFn,
    GatingModule,
    constrain_update,
    gating_layer_shapes,
    init_new_gating,
)
from .model import Dataset, Task, ToyBackbone, build_task_sequence
from .numerics import Rng
from .optim import AdamW
from .params import BRANCH_STRATEGIES
from .subspace import Factorization, SubspaceMemory, factor

GATING_MODES = ("gain", "fixed_one", "no_init", "no_update", "no_constraints")

# The keys of `run_sequence`'s model_cfg, every one required.
MODEL_KEYS = (
    "vocab_size", "embed_dim", "hidden_dim", "n_tasks", "classes_per_task", "train_per_task",
    "test_per_task", "window_size", "noise", "seq_len_min", "seq_len_max",
)

# Weight of the O-LoRA orthogonality penalty on each adapted layer.
OLORA_LAMBDA = 0.5


@dataclass
class StrategyConfig:
    branch_strategy: str = "olora"
    gating_mode: str = "gain"
    gate_hidden: int = 32
    gate_init_std: float = 0.02
    rank: int = 8
    eps_threshold: float = 0.99
    lr: float = 1e-3
    epochs: int = 25
    batch_size: int = 32

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
        for name in ("eps_threshold", "lr", "gate_init_std"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.eps_threshold <= 1.0:
            raise ValueError(f"eps_threshold must be in (0, 1], got {self.eps_threshold}")
        for name in ("lr", "gate_init_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for name in ("rank", "epochs", "batch_size", "gate_hidden"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")

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
        return GateFn.ABS_SIGMOID


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
    """A pooled input set, with what the frozen gates and branches give on
    it: a task's training pool, or a learned task's test pool, held for
    every later evaluation.

    The pool never changes, and neither does a frozen gate or branch, so
    each is applied to the whole pool once. `coeffs`, a (j, 1, n) array,
    holds the coefficients of the first j branches, frozen gate i's output
    row, or a row of ones for an ungated branch, whose coefficient is a
    frozen 1. `frozen`, an (m, n) array, is the first adapted layer's
    output over its frozen branches (`AdaptedLinear.frozen_part`): W x
    plus the terms of the first `frozen_terms` of them, None before the
    pool is first read. Both grow as tasks freeze, each into a new array
    (`ContinualState.extend_memo`). Each task freezes at the end of
    `learn_task`, so on a held pool the memo covers every gate and every
    branch of the first layer.
    """

    pooled: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray = field(init=False)
    frozen: Optional[np.ndarray] = field(init=False)
    frozen_terms: int = field(init=False)

    def __post_init__(self):
        if self.pooled.ndim != 2 or self.labels.shape != self.pooled.shape[1:]:
            raise ShapeMismatch(
                f"a pool takes one label per pooled column: labels of shape "
                f"{self.labels.shape} for pooled inputs of shape {self.pooled.shape}"
            )
        self.coeffs = np.empty((0, 1, self.pooled.shape[1]))
        self.frozen = None
        self.frozen_terms = 0


class ContinualState:
    """Everything that persists across tasks in one run: the model, the
    frozen gate modules (`gates`, one per learned task in task order when
    gated), the gate that trains (`gate`, None but while a gated task
    learns), both subspace memories, the accuracy matrix and the held test
    pools (`held`, one `Pool` per learned task, in task order)."""

    def __init__(self, model: ToyBackbone, cfg: StrategyConfig, rng: Rng):
        cfg.validate()
        for i, layer in enumerate(model.adapted_layers):
            if cfg.rank > min(layer.weight.shape):
                raise ValueError(
                    f"rank={cfg.rank} exceeds adapted layer {i} of shape "
                    f"{layer.weight.shape}: a branch's rank is at most "
                    f"min(d_out, d_in) = {min(layer.weight.shape)}"
                )
        self.model = model
        self.cfg = cfg
        self.rng = rng
        self.gates: list[GatingModule] = []
        self.gate: Optional[GatingModule] = None
        self.gate_shapes = gating_layer_shapes(model.embed_dim, cfg.gate_hidden)
        self.gate_memory = SubspaceMemory(
            [s[1] for s in self.gate_shapes], cfg.eps_threshold
        )
        self.grad_memory = SubspaceMemory(
            [layer.in_dim for layer in model.adapted_layers], cfg.eps_threshold
        )
        self.tasks_learned = 0
        # Weights the latest task trained, counted before its freeze.
        self.trained_size = 0
        self.matrix = AccuracyMatrix()
        self.held: list[Pool] = []

    @property
    def n_branches(self) -> int:
        return self.model.adapted_layers[0].n_branches

    def hold(self, pooled: np.ndarray, labels: np.ndarray) -> None:
        """Keep a learned task's `(embed_dim, n)` pooled test inputs and
        their n labels for every later evaluation. IdOutOfRange, before
        anything is held, on a label that is not a class of the head."""
        _check_labels(labels, self.model.n_classes, f"task {len(self.held)}: test")
        self.held.append(Pool(pooled, labels))

    def apply(
        self, pool: Pool, idx: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, tuple]:
        """Logits of the integrated model on the pool's columns `idx` (all
        of them when None), every branch weighted by its gate, or by 1 when
        ungated, and the cache `backward` reads: the training gate's cache
        (None when there is no training gate) and the backbone's, whose
        `inputs` holds each adapted layer's input.

        First the pool's memo is extended (`extend_memo`). Then its columns
        `idx` are taken, the inputs, the coefficients and the first adapted
        layer's frozen output in one `take` each, and the rest runs fresh:
        the training gate (`gate`), if any, the first layer's trainable
        branch, the later adapted layers and the head. On a training pool,
        where the memo is computed once before the first step, the result
        matches a fresh forward on the C-ordered batch
        `pool.pooled.take(idx, axis=1)` byte for byte as long as BLAS rounds
        an output column the same whatever the product's width, which
        OpenBLAS does when the batch width is a multiple of 8. A held pool's
        frozen output is a running sum, one term per task, so it matches a
        fresh forward only to rounding (see `extend_memo`).
        """
        self.extend_memo(pool)

        def cols(a: np.ndarray, axis: int = 1) -> np.ndarray:
            # `take` copies C-ordered; `a[:, idx]` is Fortran-ordered, and
            # BLAS may round a product with it unlike the memo's columns.
            return a if idx is None else a.take(idx, axis=axis)

        x = cols(pool.pooled)
        fixed = cols(pool.coeffs, axis=2)
        live = gate = None
        if self.gate is not None:
            live, gate = self.gate.forward(x)
        logits, cache = self.model.forward(fixed, live, x, cols(pool.frozen))
        return logits, (gate, cache)

    def backward(self, cache: tuple, g: np.ndarray) -> None:
        """Backward pass of `apply` for the logits' gradient g: sets `.grad`
        on every weight that trains, the training gate's from the gradient
        the backbone returns for its coefficient."""
        gate, model_cache = cache
        dlive = self.model.backward(model_cache, g)
        if gate is not None:
            self.gate.backward(gate, dlive)

    def extend_memo(self, pool: Pool) -> None:
        """Bring the pool's memo up to the gates and branches frozen since
        it was last read, each into a new array; nothing when none has
        frozen, as on every training step after a task's first.

        `coeffs` of j rows gains those of `gates[j:]` (ungated, a row of
        ones per new branch). The first adapted layer's `frozen` output is
        one `AdaptedLinear.frozen_part` over the whole pool at the first
        read; later, it adds the terms of only the branches frozen since
        (`AdaptedLinear.frozen_terms`), so a held pool pays one term per
        task. That running sum adds the same products as a fresh
        `frozen_part` in another order, so the two agree only to rounding:
        within 2 gamma(d + k r + 2) M entrywise, with k frozen branches of
        rank r, gamma(p) = p u / (1 - p u), u = 2^-53 and M the same sum
        over absolute values.
        """
        j = len(pool.coeffs)
        x = pool.pooled
        n = x.shape[1]
        if self.cfg.gated:
            rows = [module.forward(x)[0] for module in self.gates[j:]]
        else:
            rows = [np.ones((1, n))] * (self.n_branches - j)
        if rows:
            pool.coeffs = np.concatenate([pool.coeffs, np.reshape(rows, (-1, 1, n))])
        first = self.model.adapted_layers[0]
        if pool.frozen is None:
            pool.frozen = first.frozen_part(pool.coeffs, x)
        elif pool.frozen_terms < first.frozen_count:
            pool.frozen = pool.frozen + first.frozen_terms(pool.frozen_terms, pool.coeffs, x)
        pool.frozen_terms = first.frozen_count

    def trainable_params(self) -> list[ad.Param]:
        return [p for _, p in self.named_trainable_params()]

    def named_trainable_params(self) -> list[tuple[str, ad.Param]]:
        """Every weight that trains, named: each adapted layer's trainable
        branch halves, then the training gate's layers."""
        named = []
        for i, layer in enumerate(self.model.adapted_layers):
            if layer.branch is not None:
                # A branch's `up` always trains, and so does its `down` but
                # for InfLoRA's designed rows.
                halves = zip(("up", "down"), layer.branch.trainable_params())
                named += [(f"adapted layer {i}'s {half}", p) for half, p in halves]
        if self.gate is not None:
            named += [(f"gate layer {i}", p) for i, p in enumerate(self.gate.params)]
        return named


def learn_task(state: ContinualState, train: Dataset, *, protect: bool = True) -> None:
    """Run one task through the full pipeline (expansion, constrained
    initialization, training, subspace growth, freeze).

    The subspace memories grow only to keep later tasks off this one's
    inputs. With `protect` False, as `run_sequence` passes for its last
    task, no later task follows: the task-end forward and both memories'
    growth are skipped, and everything else runs as with it True.

    The task's pooled training set is one `Pool` for the whole task: every
    step reads its batch's columns of the frozen gate rows from it. The
    task's gate trains as `state.gate`. After the subspace memories grow,
    if they do, it moves to `state.gates` (the only way a gate freezes)
    and the task's branches freeze (but under `seq`, whose one branch
    trains on every task), so no later forward computes them fresh.

    The InfLoRA design, the gate trace and the gradient memory's growth
    read the whole pool. The design reads one forward before training;
    after it, whenever a memory grows, one more forward serves both: the
    gate memory reads the training gate's trace and the gradient memory
    the adapted layers' inputs. Each layer input they read is factored
    against its memory's basis (`subspace.factor`) once. The first adapted
    layer's input is the pool itself, so its factorization against the
    gradient memory's first basis serves both that layer's design and,
    after training, the gradient memory's growth; the gate memory factors
    its own layers.

    Raises, before the state changes, EmptyInput on an empty dataset,
    OrderViolation on a task id other than the next one and IdOutOfRange
    on a label that is not a class of the head. Raises NoFreeSubspace,
    naming the layer and the knobs, when the design finds too few free
    input dims. Raises NonFinite, naming the task and `lr`, when training
    diverges: from a step, when a trained weight (gate layer i, or adapted
    layer i's up or down) ends the task not finite, naming it, or when an
    input to factor is too large for its covariance to be finite, naming
    the memory, the layer and the input's largest |entry|."""
    cfg = state.cfg
    if len(train) == 0:
        raise EmptyInput("cannot learn from an empty dataset")
    if train.task_id != state.tasks_learned:
        raise OrderViolation(
            f"expected task {state.tasks_learned}, got {train.task_id}"
        )
    _check_labels(train.labels, state.model.n_classes, f"task {train.task_id}: train")
    t = state.tasks_learned + 1
    rng = state.rng.child(f"task{t}")
    pool = Pool(state.model.pool_batch(train), train.labels)
    n = len(train)
    diverged = f"training diverged (lr={cfg.lr}; a smaller lr keeps it finite)"

    def factored(
        memory: SubspaceMemory, layer: str, inputs: list[np.ndarray], start: int = 0
    ) -> list[Factorization]:
        # Layer start + k's input inputs[k] against that layer's basis.
        factors = []
        for i, h in enumerate(inputs, start):
            try:
                factors.append(factor(memory.layers[i], h))
            except NonFinite as exc:
                raise NonFinite(
                    f"task {train.task_id}, {layer} {i}: its input's largest |entry| is "
                    f"{np.max(np.abs(h)):.3g}, too large for a finite covariance; {diverged}"
                ) from exc
        return factors

    layers = state.model.adapted_layers
    designed_rows: list[Optional[np.ndarray]] = [None] * len(layers)
    if cfg.branch_strategy == "inflora":
        _, (_, cache) = state.apply(pool)
        grad_factors = factored(state.grad_memory, "gradient memory, adapted layer", cache.inputs)
        for i, f in enumerate(grad_factors):
            try:
                designed_rows[i] = inflora_design(f, cfg.rank)
            except NoFreeSubspace as exc:
                raise NoFreeSubspace(
                    f"task {train.task_id}, adapted layer {i}: {f.basis.dim - f.basis.rank} of "
                    f"{f.basis.dim} input dims are free of the protected subspace, "
                    f"too few for rank={cfg.rank} (eps_threshold="
                    f"{cfg.eps_threshold}; lowering either leaves more)"
                ) from exc

    if cfg.branch_strategy != "seq" or t == 1:
        for i, layer in enumerate(layers):
            expand_branch(
                layer, cfg.rank, rng.child(f"branch{i}"),
                designed_down=designed_rows[i],
            )

    transforms = {}
    if cfg.gated:
        state.gate = init_new_gating(
            state.gates[-1] if state.gates else None,
            state.gate_memory,
            rng.child("gate"),
            shapes=state.gate_shapes,
            gate=cfg.effective_gate_fn,
            init_std=cfg.gate_init_std,
            project_final=cfg.init_constraints,
        )
        if cfg.update_constraints:
            for param, basis in zip(state.gate.params, state.gate_memory.layers):
                transforms[param] = (
                    lambda delta, b=basis: constrain_update(delta, b)
                )

    # The older branches stay frozen through the task: one Gram per layer.
    penalties = []
    if cfg.branch_strategy == "olora":
        for layer in layers:
            gram = olora_gram(layer)
            if gram is not None:
                penalties.append((layer.branch.down, gram))

    params = state.trainable_params()
    state.trained_size = sum(p.value.size for p in params)
    opt = AdamW(params, cfg.lr)

    def set_gradients(idx: np.ndarray) -> None:
        # The loss is the batch's mean cross-entropy plus each penalty; its
        # value is never formed. A penalty's share of its `down` gradient
        # adds after the branch's.
        logits, cache = state.apply(pool, idx)
        state.backward(cache, ad.softmax_cross_entropy_grad(logits, pool.labels[idx]))
        for down, gram in penalties:
            down.grad = down.grad + ad.row_space_penalty_grad(down.value, gram, OLORA_LAMBDA)

    # The batch's cache is referenced only while its backward pass runs, so
    # it is freed before the optimizer step allocates.
    shuffle_rng = rng.child("shuffle")
    try:
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                set_gradients(order[start : start + cfg.batch_size])
                opt.step(transforms)
    except NonFinite as exc:
        raise NonFinite(f"task {train.task_id}: {exc}; {diverged}") from exc
    for name, param in state.named_trainable_params():
        if not np.all(np.isfinite(param.value)):
            raise NonFinite(f"task {train.task_id}: {name} is not finite after training; {diverged}")

    grow_gate = protect and cfg.gated and (cfg.init_constraints or cfg.update_constraints)
    grow_grad = protect and cfg.branch_strategy == "inflora"
    if grow_gate or grow_grad:
        _, (gate_cache, cache) = state.apply(pool)
    if grow_gate:
        state.gate_memory.extend_all(
            factored(state.gate_memory, "gate memory, gate layer", gate_cache.trace)
        )
    if grow_grad:
        # The first adapted layer's input is the pool, as at the design, so
        # the design's factorization of it stands; the later layers' inputs
        # moved with training.
        state.grad_memory.extend_all(
            grad_factors[:1]
            + factored(state.grad_memory, "gradient memory, adapted layer", cache.inputs[1:], 1)
        )
    if cfg.gated:
        state.gates.append(state.gate)
        state.gate = None
    if cfg.branch_strategy != "seq":
        for layer in layers:
            layer.freeze()
    state.tasks_learned = t


def evaluate(state: ContinualState) -> list[float]:
    """Accuracy (percent) on each held test pool (`state.held`, in task
    order), single gated forward path, no task identities.

    Logits come from `ContinualState.apply`, which reads frozen gate rows
    and the first adapted layer's frozen output from each pool's memo (see
    `Pool`). The task just learned is frozen, so after task t the memo
    gains its gate and its first-layer branch term on the t - 1 older
    pools and all t of each, with W x, on the new one: 2t - 1 gate
    forwards and 2t - 1 branch terms, T^2 of each over a run of T tasks,
    each (gate, pool) and (branch, pool) pair once. The later adapted
    layers and the head run fresh. A held pool's first-layer output is a
    running sum, one term per task, so the logits match a fresh forward
    only to rounding (the bound is in `ContinualState.extend_memo`).
    """
    row = []
    for pool in state.held:
        # One pool's logits and cache are freed before the next pool's
        # forward.
        pred = np.argmax(state.apply(pool)[0], axis=0)
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
    """Outputs of every frozen gate module on the first 50 samples of each
    held test pool (`state.held`), read from the pool's memo: the first
    50 entries of the gate's row over the whole pool, the values
    evaluation applied. A forward on those 50 columns alone may round
    the last two differently: OpenBLAS computes a tail of 1 to 4 columns
    past a multiple of 8 with another kernel. After `evaluate` the memo
    is current and no gate runs."""
    if not state.cfg.gated:
        return []
    samples = []
    for task_idx, pool in enumerate(state.held):
        state.extend_memo(pool)
        for gate_idx, row in enumerate(pool.coeffs):
            samples.append(
                {
                    "gate": gate_idx,
                    "task": task_idx,
                    "values": row[0, :50].tolist(),
                }
            )
    return samples


def _check_sequence(sequence: list[Task], n_classes: int, vocab_size: int) -> None:
    """Task t's train and test sets carry task id t and hold at least one
    sequence, every token id is in the vocab and every label is a class of
    the head."""
    for t, task in enumerate(sequence):
        for split, ds in (("train", task.train), ("test", task.test)):
            if ds.task_id != t:
                raise OrderViolation(
                    f"task {t}: {split} set has task id {ds.task_id}; a sequence's "
                    f"task ids must run 0, 1, ... in order"
                )
            if not len(ds):
                raise EmptyInput(f"task {t}: {split} set holds no sequence")
            bad = np.flatnonzero((ds.ids < 0) | (ds.ids >= vocab_size))
            if bad.size:
                raise IdOutOfRange(
                    f"task {t}: {split} sequence {ds.sequence_of(bad[0])} has token "
                    f"id {ds.ids[bad[0]]}, outside the vocab [0, {vocab_size})"
                )
            _check_labels(ds.labels, n_classes, f"task {t}: {split}")


def _check_labels(labels: np.ndarray, n_classes: int, where: str) -> None:
    """IdOutOfRange naming `where` and the first label that is not one of
    the head's `n_classes` classes."""
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise IdOutOfRange(f"{where} label {bad[0]} is outside the head's {n_classes} classes")


def run_sequence(
    model_cfg: dict,
    strategy: StrategyConfig,
    seed: int,
    *,
    sequence: Optional[list[Task]] = None,
) -> RunResult:
    """One full continual run for one seed.

    model_cfg keys: vocab_size, embed_dim, hidden_dim, n_tasks,
    classes_per_task, train_per_task, test_per_task, window_size, noise,
    seq_len_min, seq_len_max (`MODEL_KEYS`); ValueError, before any draw,
    naming any key that is missing or not one of them. A prebuilt task
    sequence overrides the synthetic generator; its task ids must run 0,
    1, ... in order, no split may be empty, its token ids must fit the
    vocab and its labels the head, which is checked before any training.
    A seed that is not an integer raises ValueError (`Rng`).
    """
    strategy.validate()
    unknown = sorted(set(model_cfg) - set(MODEL_KEYS))
    missing = [key for key in MODEL_KEYS if key not in model_cfg]
    if unknown or missing:
        raise ValueError(f"model_cfg: unknown keys {unknown}, missing keys {missing}")
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
    _check_sequence(sequence, n_classes, model_cfg["vocab_size"])
    state = ContinualState(model, strategy, rng.child("train"))
    ap_trajectory = []
    for t, task in enumerate(sequence, 1):
        learn_task(state, task.train, protect=t < len(sequence))
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
        trainable_params=state.trained_size,
    )
