"""Desk-scale frozen backbone, synthetic task generation and file ingestion.

The backbone is a stand-in for a large pre-trained network: a frozen
embedding table, a list of adapted hidden linear layers with SiLU between
them, and a frozen classifier head over the union label space. Tasks are
synthetic token-classification problems whose vocab windows are disjoint,
so the pooled embedding carries a usable task signal without ever
exposing task identity at inference.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .adapter import AdaptedLinear
from .autodiff import DiffNode
from .errors import (
    EmptyInput,
    IdOutOfRange,
    ParseError,
    SchemaError,
    ShapeMismatch,
    WindowOverlap,
)
from .gating import _token_ids, pool_embed
from .numerics import Mat, Rng, gaussian_init


@dataclass
class Dataset:
    """Token-id sequences with labels in the global class union."""

    tokens: list[list[int]]
    labels: np.ndarray
    task_id: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.tokens) != len(self.labels):
            raise ShapeMismatch(
                f"{len(self.tokens)} sequences vs {len(self.labels)} labels"
            )
        for i, seq in enumerate(self.tokens):
            if len(seq) == 0:
                raise EmptyInput(f"sequence {i} of task {self.task_id} is empty")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Task:
    train: Dataset
    test: Dataset
    window: tuple[int, int]  # [start, stop) token-id range


@dataclass
class TaskSequence:
    tasks: list[Task] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


class ToyBackbone:
    """Frozen embedding + adapted hidden layers + frozen head."""

    def __init__(
        self,
        rng: Rng,
        *,
        vocab_size: int,
        embed_dim: int,
        hidden_dim: int,
        n_classes: int,
    ):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.embedding = gaussian_init(rng.child("embed"), vocab_size, embed_dim, 1.0)
        self.adapted_layers = [
            AdaptedLinear(
                gaussian_init(rng.child(tag), hidden_dim, d_in, 1.0 / np.sqrt(d_in))
            )
            for tag, d_in in (("layer1", embed_dim), ("layer2", hidden_dim))
        ]
        self.head = gaussian_init(rng.child("head"), n_classes, hidden_dim, 1.0 / np.sqrt(hidden_dim))

    def frozen_fingerprint(self) -> bytes:
        """Bytes of every parameter that must never change during a run."""
        parts = [self.embedding, self.head]
        parts += [layer.weight for layer in self.adapted_layers]
        return b"".join(p.tobytes() for p in parts)

    def pool_batch(self, dataset: Dataset, indices=None) -> Mat:
        """Pooled embeddings as columns: (embed_dim, n), C-contiguous.

        `indices` is a sequence of dataset positions (repeats allowed), all
        of them when None. Column j is bit-identical to `pool_embed` of the
        j-th selected sequence: rows are summed in token order, then divided
        by the length (`np.add.reduceat` sums in another order).
        """
        if indices is None:
            indices = range(len(dataset))
        seqs = [dataset.tokens[i] for i in indices]
        if not seqs:
            raise EmptyInput("cannot pool an empty batch")
        lengths = np.array([len(seq) for seq in seqs])
        if lengths.min() == 0:
            j = int(np.argmin(lengths))
            raise EmptyInput(f"cannot pool sequence {indices[j]}: it is empty")
        flat = _token_ids(list(itertools.chain.from_iterable(seqs)), self.vocab_size)
        starts = np.cumsum(lengths) - lengths
        total = np.zeros((len(seqs), self.embed_dim))
        for k in range(lengths.max()):
            rows = np.flatnonzero(lengths > k)
            total[rows] += self.embedding[flat[starts[rows] + k]]
        return np.ascontiguousarray((total / lengths[:, None]).T)

    def forward_node(
        self, coeffs: list[DiffNode], pooled: DiffNode
    ) -> tuple[DiffNode, list[Mat]]:
        """Class logits node for a pooled batch; also returns the inputs
        seen by each adapted layer (for subspace collection)."""
        h = pooled
        inputs = []
        for i, layer in enumerate(self.adapted_layers):
            if i:
                h = ad.silu(h)
            inputs.append(h.value)
            h = layer.forward_node(coeffs, h)
        return ad.matmul(ad.constant(self.head), h), inputs


def generate_task(
    rng: Rng,
    task_id: int,
    vocab_window: tuple[int, int],
    n_classes: int,
    n_train: int,
    n_test: int,
    noise: float,
    *,
    embedding: Mat,
    class_offset: int,
    seq_len: tuple[int, int] = (8, 16),
    max_attempts: int = 16,
) -> Task:
    """Synthetic task: sequences from a private vocab window, labeled by a
    random linear teacher over the pooled embedding.

    Class counts are balanced within +-1 per split (before label noise);
    train and test never share a token sequence. Fully deterministic in
    (rng, arguments).
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    lo, hi = vocab_window
    if not 0 <= lo < hi <= embedding.shape[0]:
        raise IdOutOfRange(f"window {vocab_window} outside vocab")
    for attempt in range(max_attempts):
        gen = rng.child(f"task{task_id}-attempt{attempt}")
        teacher = gaussian_init(gen.child("teacher"), n_classes, embedding.shape[1], 1.0)
        draw = gen.child("draw")
        seen: set[tuple[int, ...]] = set()

        def fill(count: int) -> Dataset | None:
            quota = [count // n_classes] * n_classes
            for c in range(count % n_classes):
                quota[c] += 1
            tokens: list[list[int]] = []
            labels: list[int] = []
            budget = 400 * count + 400
            while budget > 0 and len(tokens) < count:
                budget -= 1
                length = int(draw.integers(seq_len[0], seq_len[1] + 1, 1)[0])
                seq = tuple(int(t) for t in draw.integers(lo, hi, length))
                if seq in seen:
                    continue
                pooled = pool_embed(seq, embedding)
                label = int(np.argmax(teacher @ pooled))
                if quota[label] == 0:
                    continue
                quota[label] -= 1
                seen.add(seq)
                tokens.append(list(seq))
                labels.append(class_offset + label)
            if len(tokens) < count:
                return None
            return Dataset(tokens, np.array(labels), task_id)

        train = fill(n_train)
        test = fill(n_test) if train is not None else None
        if train is None or test is None:
            continue  # degenerate teacher; redraw deterministically
        if noise > 0:
            flip = gen.child("noise")
            for ds in (train, test):
                coins = flip.uniform(len(ds))
                shifts = flip.integers(1, n_classes, len(ds))
                for i in range(len(ds)):
                    if coins[i] < noise:
                        local = ds.labels[i] - class_offset
                        ds.labels[i] = class_offset + (local + shifts[i]) % n_classes
        return Task(train, test, (lo, hi))
    raise RuntimeError(
        f"task {task_id}: no teacher produced balanced classes in "
        f"{max_attempts} attempts"
    )


def build_task_sequence(
    rng: Rng,
    *,
    n_tasks: int,
    classes_per_task: int,
    n_train: int,
    n_test: int,
    vocab_size: int,
    window_size: int,
    noise: float,
    embedding: Mat,
    seq_len: tuple[int, int] = (8, 16),
) -> TaskSequence:
    """Lay out disjoint vocab windows and generate every task."""
    windows = [(t * window_size, (t + 1) * window_size) for t in range(n_tasks)]
    for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
        if a1 > b0:
            raise WindowOverlap(f"windows {(a0, a1)} and {(b0, b1)} intersect")
    if windows and windows[-1][1] > vocab_size:
        raise WindowOverlap(
            f"{n_tasks} windows of {window_size} tokens exceed vocab {vocab_size}"
        )
    tasks = [
        generate_task(
            rng,
            t,
            windows[t],
            classes_per_task,
            n_train,
            n_test,
            noise,
            embedding=embedding,
            class_offset=t * classes_per_task,
            seq_len=seq_len,
        )
        for t in range(n_tasks)
    ]
    return TaskSequence(tasks)


def ingest_dataset(
    path, fmt: str, *, vocab_size: int, n_classes: int
) -> Dataset:
    """Load a dataset file: JSONL ({tokens, label, task_id} per line) or
    CSV (columns tokens/label/task_id, tokens space-separated).

    Order is file order. A file holds exactly one task.
    """
    if fmt not in ("jsonl", "csv"):
        raise SchemaError(f"unknown format {fmt!r}, expected 'jsonl' or 'csv'")
    rows: list[tuple[list[int], int, int]] = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(str(exc), lineno) from exc
                rows.append(_validate_record(rec, lineno, vocab_size, n_classes))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is not None:
                missing = {"tokens", "label", "task_id"} - set(reader.fieldnames)
                if missing:
                    raise SchemaError(f"missing CSV columns: {sorted(missing)}")
            for rec in reader:
                # Physical line of the record: DictReader skips blank lines.
                lineno = reader.line_num
                try:
                    parsed = {
                        "tokens": [int(t) for t in rec["tokens"].split()],
                        "label": int(rec["label"]),
                        "task_id": int(rec["task_id"]),
                    }
                except (ValueError, AttributeError, KeyError) as exc:
                    raise ParseError(str(exc), lineno) from exc
                rows.append(_validate_record(parsed, lineno, vocab_size, n_classes))
    if not rows:
        warnings.warn(f"{path}: empty dataset file", stacklevel=2)
        return Dataset([], np.zeros(0, dtype=np.int64), 0)
    task_ids = {r[2] for r in rows}
    if len(task_ids) != 1:
        raise SchemaError(f"one file must hold one task, found ids {sorted(task_ids)}")
    return Dataset(
        [r[0] for r in rows],
        np.array([r[1] for r in rows]),
        rows[0][2],
    )


def _validate_record(
    rec, lineno: int, vocab_size: int, n_classes: int
) -> tuple[list[int], int, int]:
    if not isinstance(rec, dict):
        raise SchemaError(f"line {lineno}: record is not an object")
    for key in ("tokens", "label", "task_id"):
        if key not in rec:
            raise SchemaError(f"line {lineno}: missing field {key!r}")
    tokens = rec["tokens"]
    if not isinstance(tokens, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in tokens
    ):
        raise SchemaError(f"line {lineno}: tokens must be a list of ints")
    if not tokens:
        raise SchemaError(f"line {lineno}: empty token sequence")
    label, task_id = rec["label"], rec["task_id"]
    if not isinstance(label, int) or isinstance(label, bool):
        raise SchemaError(f"line {lineno}: label must be an int")
    if not isinstance(task_id, int) or isinstance(task_id, bool):
        raise SchemaError(f"line {lineno}: task_id must be an int")
    if not 0 <= label < n_classes:
        raise SchemaError(
            f"line {lineno}: label {label} outside union of {n_classes} classes"
        )
    if any(t < 0 or t >= vocab_size for t in tokens):
        raise IdOutOfRange(f"line {lineno}: token id outside vocab {vocab_size}")
    return list(tokens), label, task_id
