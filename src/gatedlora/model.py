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
from .numerics import Mat, Rng, _lemire, gaussian_init

# Most candidates `generate_task` draws, pools and labels in one block; it
# bounds a block's memory whatever the attempt's budget.
_BLOCK = 512

# Teachers `generate_task` draws before it gives up on a task.
_MAX_ATTEMPTS = 16


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

    def pool_batch(self, dataset: Dataset) -> Mat:
        """Pooled embeddings as columns: (embed_dim, n), C-contiguous.

        Column j is the mean embedding row of sequence j, as `_pool_rows`
        computes it.
        """
        seqs = dataset.tokens
        if not seqs:
            raise EmptyInput("cannot pool an empty batch")
        lengths = np.array([len(seq) for seq in seqs])
        if lengths.min() == 0:
            j = int(np.argmin(lengths))
            raise EmptyInput(f"cannot pool sequence {j}: it is empty")
        flat = list(itertools.chain.from_iterable(seqs))
        return np.ascontiguousarray(_pool_rows(flat, lengths, self.embedding).T)

    def forward_node(
        self,
        coeffs: list[DiffNode],
        pooled: DiffNode,
        start: tuple[DiffNode, int] | None = None,
    ) -> tuple[DiffNode, list[Mat]]:
        """Class logits node for a pooled batch; also returns the inputs
        seen by each adapted layer (for subspace collection). `start`
        resumes the first adapted layer's branch sum, as in
        `AdaptedLinear.forward_node`."""
        h = pooled
        inputs = []
        for i, layer in enumerate(self.adapted_layers):
            if i:
                h = ad.silu(h)
            inputs.append(h.value)
            h = layer.forward_node(coeffs, h, None if i else start)
        return ad.matmul(ad.constant(self.head), h), inputs


def _token_ids(tokens, vocab_size: int) -> np.ndarray:
    """Token ids as an integer array, checked to lie in [0, vocab_size).

    Ids of any non-integer dtype are rejected, never truncated.
    """
    ids = np.asarray(tokens)
    if ids.size == 0:
        raise EmptyInput("cannot pool an empty token sequence")
    if ids.dtype.kind not in "iu":
        raise IdOutOfRange(f"token ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IdOutOfRange(
            f"token ids must be in [0, {vocab_size}), got [{ids.min()}, {ids.max()}]"
        )
    return ids


def _pool_rows(flat, lengths: np.ndarray, embedding: Mat) -> Mat:
    """Mean embedding row of each of a batch of sequences, (n, d).

    `flat` holds the sequences' token ids back to back, `lengths` their
    lengths (all >= 1). Rows are gathered position by position and summed
    in token order, then divided by the length, so row j is bit-identical
    to `embedding[seq_j].mean(axis=0)` (`np.add.reduceat` sums in another
    order).
    """
    ids = _token_ids(flat, embedding.shape[0])
    # Longest first, so the sequences that reach position k are a prefix.
    order = np.argsort(-lengths, kind="stable")
    by_len = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    reach = np.searchsorted(-by_len, -np.arange(by_len[0]), side="left")
    total = np.zeros((len(lengths), embedding.shape[1]))
    for k, n in enumerate(reach.tolist()):
        total[:n] += embedding[ids[starts[:n] + k]]
    rows = np.empty_like(total)
    rows[order] = total / by_len[:, None]
    return rows


def _runs(
    raw: np.ndarray, low: int, high: int, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where in a block of raw 32-bit draws `Rng.integers(low, high,
    counts[i])` takes its values when called at block position starts[i].

    Returns the values the block's draws make, in block order; the index
    among them of each call's first value; and the block position after
    each call's last draw, -1 where the block runs out first. A range of
    one value draws nothing.
    """
    if high - low == 1:
        return np.full(counts.max(), low), np.zeros_like(starts), starts
    values, accepted = _lemire(raw, high - low)
    # first[i]: accepted draws before position starts[i]
    first = np.concatenate(([0], np.cumsum(accepted)))[starts]
    after = np.append(np.flatnonzero(accepted) + 1, -1)
    last = np.minimum(first + counts - 1, len(after) - 1)
    return low + values[accepted], first, after[last]


def _split_candidates(
    raw: np.ndarray, seq_len: tuple[int, int], window: tuple[int, int], limit: int
) -> tuple[list[int], np.ndarray, list[int]]:
    """Split a block of raw draws into the candidates `generate_task` draws
    one at a time: `integers(seq_len[0], seq_len[1] + 1, 1)` for a length,
    then `integers(*window, length)` for the tokens.

    Returns, for the first (at most `limit`) candidates the block holds
    whole: their lengths, their tokens back to back, and the raw draws
    used through each.
    """
    # A candidate could start at any block position; find where each would
    # end, then follow the chain from position 0.
    positions = np.arange(len(raw) + 1)
    len_values, len_first, len_after = _runs(
        raw, seq_len[0], seq_len[1] + 1, positions, np.ones_like(positions)
    )
    # The appended length is read only where the block runs out.
    lengths = np.append(len_values, seq_len[0])[len_first]
    tok_values, tok_first, tok_after = _runs(
        raw, *window, np.where(len_after < 0, len(raw), len_after), lengths
    )
    after = np.where(len_after < 0, -1, tok_after).tolist()
    ends: list[int] = []
    p = 0
    while len(ends) < limit and after[p] >= 0:
        p = after[p]
        ends.append(p)
    starts = np.array([0] + ends)[:-1]
    sizes = lengths[starts]
    # Value index of every token: each candidate's run of values from its
    # first.
    ranks = np.repeat(tok_first[starts] - (np.cumsum(sizes) - sizes), sizes)
    ranks += np.arange(len(ranks))
    return sizes.tolist(), tok_values[ranks], ends


def _labels(teacher: Mat, pooled: Mat) -> list[int]:
    """`argmax(teacher @ x)` of every pooled row x, as the mat-vec of each
    row alone gives it.

    One product labels the whole batch. It may round a score differently
    from the mat-vec, but each rounds it by at most d*eps*|t||x| (d terms,
    machine epsilon eps, any summation order), so where the top score
    leads the next by more than four times that, both give the same
    argmax. The rest are labeled by the mat-vec itself.
    """
    scores = pooled @ teacher.T
    top2 = np.partition(scores, -2, axis=1)[:, -2:]
    margin = top2[:, 1] - top2[:, 0]
    bound = (
        4 * teacher.shape[1] * np.finfo(float).eps
        * np.linalg.norm(teacher, axis=1).max()
        * np.linalg.norm(pooled, axis=1)
    )
    labels = np.argmax(scores, axis=1)
    for j in np.flatnonzero(margin <= bound):
        labels[j] = np.argmax(teacher @ pooled[j].reshape(-1, 1))
    return labels.tolist()


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
) -> Task:
    """Synthetic task: sequences from a private vocab window, labeled by a
    random linear teacher over the pooled embedding.

    Class counts are balanced within +-1 per split (before label noise);
    train and test never share a token sequence. Fully deterministic in
    (rng, arguments).

    Each attempt draws from its own streams under `rng`: "teacher", then
    "draw" for the candidates of both splits (train first), then "noise"
    for the label flips. A candidate is `integers(seq_len[0], seq_len[1] +
    1, 1)` for its length, then `integers(lo, hi, length)` for its tokens.
    A split goes through candidates in order, taking each unseen one whose
    class has room left, until it is full or has gone through 400 per
    sample plus 400; then the attempt fails. Candidates are read ahead of
    the "draw" stream, pooled and labeled in blocks, and the stream then
    advances past exactly the candidates the split went through, so every
    draw is the one a one-at-a-time generator would make.

    Raises ValueError, before any draw, when `seq_len` is not
    1 <= min <= max or the window holds fewer distinct sequences than
    n_train + n_test.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    lo, hi = vocab_window
    if not 0 <= lo < hi <= embedding.shape[0]:
        raise IdOutOfRange(f"window {vocab_window} outside vocab")
    if not 1 <= seq_len[0] <= seq_len[1]:
        raise ValueError(f"seq_len {seq_len}: need 1 <= min <= max")
    capacity = sum((hi - lo) ** n for n in range(seq_len[0], seq_len[1] + 1))
    if capacity < n_train + n_test:
        raise ValueError(
            f"window of {hi - lo} tokens holds only {capacity} distinct sequences "
            f"of {seq_len[0]}..{seq_len[1]} tokens, fewer than the "
            f"{n_train} + {n_test} samples of task {task_id}"
        )
    for attempt in range(_MAX_ATTEMPTS):
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
            budget = start_budget = 400 * count + 400
            while budget > 0 and len(tokens) < count:
                # Twice the candidates the rest takes at the acceptance rate
                # so far, and at least 64 to spread a block's fixed cost.
                tried, want = start_budget - budget, count - len(tokens)
                expected = -(-want * (tried + 1) // (len(tokens) + 1))
                block = min(_BLOCK, budget, max(64, 2 * expected))
                n_raw = block * (seq_len[1] + 1)
                lengths: list[int] = []
                while not lengths:  # rejected draws left no candidate whole
                    lengths, flat, ends = _split_candidates(
                        draw.peek_raw(n_raw), seq_len, vocab_window, block
                    )
                    n_raw *= 2
                pooled = _pool_rows(flat, np.array(lengths), embedding)
                ids = flat.tolist()
                start = 0
                for length, end, label in zip(lengths, ends, _labels(teacher, pooled)):
                    budget -= 1
                    seq = tuple(ids[start : start + length])
                    start += length
                    if seq in seen or quota[label] == 0:
                        continue
                    quota[label] -= 1
                    seen.add(seq)
                    tokens.append(list(seq))
                    labels.append(class_offset + label)
                    if len(tokens) == count:
                        break
                draw.skip_raw(end)
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
                hit = coins < noise
                local = ds.labels[hit] - class_offset
                ds.labels[hit] = class_offset + (local + shifts[hit]) % n_classes
        return Task(train, test, (lo, hi))
    raise RuntimeError(
        f"task {task_id}: no teacher produced balanced classes in "
        f"{_MAX_ATTEMPTS} attempts"
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
