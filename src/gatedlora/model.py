"""Desk-scale frozen backbone and synthetic task generation.

The backbone is a stand-in for a large pre-trained network: a frozen
embedding table, a list of adapted hidden linear layers with SiLU between
them, and a frozen classifier head over the union label space. Tasks are
synthetic token-classification problems whose vocab windows are disjoint,
so the pooled embedding carries a usable task signal without ever
exposing task identity at inference.

A run holds every task's splits to its end, so a `Dataset` keeps its
sequences packed in two int64 arrays, the token ids back to back and one
length per sequence, which pooling reads without a conversion.

`generate_task` makes the draws of a one-at-a-time rejection sampler
byte for byte, but takes each raw 32-bit draw once into a buffer and
reads it in blocks: each block is decoded once per range (Lemire's
method, as numpy's bounded sampler) and split by one walk along its
chain of candidates.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .adapter import AdaptedLinear
from .errors import (
    EmptyInput,
    IdOutOfRange,
    ShapeMismatch,
    WindowOverlap,
)
from .numerics import Mat, Rng, _lemire, gaussian_init

# Most candidates `generate_task` draws and labels in one block; it bounds a
# block's memory whatever the attempt's budget.
_BLOCK = 512

# Teachers `generate_task` draws before it gives up on a task.
_MAX_ATTEMPTS = 16


class Dataset:
    """Token-id sequences with labels in the global class union, packed:
    `ids` holds every sequence's token ids back to back and `lengths` one
    entry per sequence, both 1-D int64, so a held split costs 8 bytes a
    token and no Python object per token. Sequence j is
    `ids[s : s + lengths[j]]` with s = `lengths[:j].sum()`.

    The constructor takes a sequence of sequences and packs them once. It
    refuses an empty sequence, token ids that are not integers (bools
    included) or are negative, naming the sequence, and labels that are
    not integers or not 1-D. Whether the ids fit a vocab is checked where
    the vocab is known: `run_sequence` before any training, pooling on
    every call.
    """

    def __init__(self, sequences, labels, task_id: int):
        self.task_id = task_id
        labels = np.asarray(labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise IdOutOfRange(
                f"labels of task {task_id} must be integers, got dtype {labels.dtype}"
            )
        if labels.ndim != 1:
            raise ShapeMismatch(
                f"labels of task {task_id} must be 1-D, got shape {labels.shape}"
            )
        self.labels = labels.astype(np.int64, copy=False)
        arrays = list(map(np.asarray, sequences))
        if len(arrays) != len(self.labels):
            raise ShapeMismatch(f"{len(arrays)} sequences vs {len(self.labels)} labels")
        self.lengths = np.fromiter(map(len, arrays), np.int64, len(arrays))
        empty = np.flatnonzero(self.lengths == 0)
        if empty.size:
            raise EmptyInput(f"sequence {empty[0]} of task {task_id} is empty")
        if not {seq.dtype.kind for seq in arrays} <= {"i", "u"}:
            i = next(i for i, seq in enumerate(arrays) if seq.dtype.kind not in "iu")
            raise IdOutOfRange(
                f"sequence {i} of task {task_id}: token ids must be integers, "
                f"got dtype {arrays[i].dtype}"
            )
        self.ids = np.concatenate([np.empty(0, np.int64), *arrays], dtype=np.int64)
        if self.ids.size and self.ids.min() < 0:
            k = int(np.argmax(self.ids < 0))
            raise IdOutOfRange(
                f"sequence {self.sequence_of(k)} of task {task_id} has token id "
                f"{self.ids[k]}; ids must be >= 0"
            )

    def __len__(self) -> int:
        return len(self.lengths)

    def sequence_of(self, position: int) -> int:
        """Index of the sequence that holds `ids[position]`."""
        return int(np.searchsorted(np.cumsum(self.lengths), position, side="right"))


@dataclass
class Task:
    train: Dataset
    test: Dataset
    window: tuple[int, int]  # [start, stop) token-id range


class BackboneCache(NamedTuple):
    """What `ToyBackbone.backward` reads of a forward: each adapted layer's
    input, each SiLU's pre-activation and its sigmoid, and each adapted
    layer's cache."""

    inputs: list
    acts: list
    layers: list


class ToyBackbone:
    """Frozen embedding + adapted hidden layers + frozen head.

    Raises ValueError, before any draw, when `vocab_size`, `embed_dim`,
    `hidden_dim` or `n_classes` is not an integer >= 1 (bools refused),
    naming it."""

    def __init__(
        self,
        rng: Rng,
        *,
        vocab_size: int,
        embed_dim: int,
        hidden_dim: int,
        n_classes: int,
    ):
        _check_sizes(
            vocab_size=vocab_size,
            embed_dim=embed_dim,
            hidden_dim=hidden_dim,
            n_classes=n_classes,
        )
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
        computes it from the dataset's packed `ids` and `lengths`, which it
        reads as they are.
        """
        lengths = dataset.lengths
        if not lengths.size:
            raise EmptyInput("cannot pool an empty batch")
        if lengths.min() == 0:
            j = int(np.argmin(lengths))
            raise EmptyInput(f"cannot pool sequence {j}: it is empty")
        return np.ascontiguousarray(_pool_rows(dataset.ids, lengths, self.embedding).T)

    def forward(
        self,
        fixed: np.ndarray,
        live: np.ndarray | None,
        pooled: Mat,
        frozen: np.ndarray,
    ) -> tuple[np.ndarray, BackboneCache]:
        """Class logits (C, n) for a pooled batch, and the cache `backward`
        reads, whose `inputs` holds the input of each adapted layer (for
        subspace collection). Every adapted layer weights its branches by
        the same coefficients: the (j, 1, n) rows `fixed` of the first j
        branches, then `live`, the (1, n) row of the one that trains, if
        any, as in `AdaptedLinear.forward`.

        `frozen` is the first adapted layer's `frozen_part` on the batch,
        which a pool's memo holds (see `continual.Pool`): that layer adds
        only its trainable branch, if it has one (`add_trainable`). Every
        later layer runs its whole `forward`."""
        first, *rest = self.adapted_layers
        h, cache = first.add_trainable(frozen, fixed, live, pooled)
        inputs, acts, layers = [pooled], [], [cache]
        for layer in rest:
            out, sig = ad.silu(h)
            acts.append((h, sig))
            inputs.append(out)
            h, cache = layer.forward(fixed, live, out)
            layers.append(cache)
        return self.head @ h, BackboneCache(inputs, acts, layers)

    def backward(self, cache: BackboneCache, g: np.ndarray) -> np.ndarray | None:
        """Backward pass of `forward` for the logits' gradient g: sets
        `.grad` on every trainable branch half and returns the gradient of
        the live coefficient (None without one), which adds each adapted
        layer's share, the last layer's first. The pooled input takes no
        gradient."""
        g = self.head.T @ g
        dlive = None
        for i in range(len(self.adapted_layers) - 1, -1, -1):
            dh, da = self.adapted_layers[i].backward(cache.layers[i], g, i > 0)
            if da is not None:
                dlive = da if dlive is None else dlive + da
            if i:
                g = ad.silu_vjp(dh, *cache.acts[i - 1])
        return dlive


def _is_count(size) -> bool:
    """An integer that is not a bool."""
    return isinstance(size, numbers.Integral) and not isinstance(size, bool)


def _check_sizes(**sizes) -> None:
    """ValueError naming the first of the keyword sizes that is not an
    integer >= 1; bools are refused."""
    for name, size in sizes.items():
        if not _is_count(size) or size < 1:
            raise ValueError(f"{name}={size!r}: need an integer >= 1")


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
    lengths (all >= 1), as a `Dataset` packs them. The ids are checked
    against the embedding's rows (`_token_ids`) on every call. Rows are
    gathered position by position and summed in token order, then divided
    by the length, so row j is bit-identical to
    `embedding[seq_j].mean(axis=0)` (`np.add.reduceat` sums in another
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


def _accepted(raw: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `Rng.integers` makes of a block of raw 32-bit draws for a range
    of 2 <= n values: the values in [0, n) of the accepted draws, in block
    order; their block positions; and, for each position p in
    0..len(raw), the number of accepted draws before p (`_lemire`)."""
    values, accepted = _lemire(raw, n)
    before = np.zeros(len(raw) + 1, np.int64)
    np.cumsum(accepted, out=before[1:])
    positions = np.flatnonzero(accepted)
    return values[positions], positions, before


def _split_candidates(
    raw: np.ndarray, seq_len: tuple[int, int], window: tuple[int, int], limit: int
) -> tuple[list[int], np.ndarray, list[int]]:
    """Split a block of raw draws into the candidates `generate_task` draws
    one at a time: `integers(seq_len[0], seq_len[1] + 1, 1)` for a length,
    then `integers(*window, length)` for the tokens.

    Returns, for the first (at most `limit`) candidates the block holds
    whole: their lengths, their tokens back to back, and the raw draws
    used through each.

    One Lemire pass per range of more than one value (`_accepted`) gives
    its accepted values, their positions and a prefix count of accepted
    draws; a range of one value draws nothing. One walk then follows the
    chain of candidates from position 0, the only one the stream reads: a
    candidate starting at p takes its length from the first accepted
    length draw at or after p and its tokens from the next `length`
    accepted token draws, so its length, first token and end are O(1)
    lookups and a rejected draw anywhere is skipped exactly. It stops at
    `limit` candidates or at the first one the block does not hold whole.
    The tokens are gathered once, after the walk.
    """
    len_low, len_n = seq_len[0], seq_len[1] + 1 - seq_len[0]
    tok_low, tok_n = window[0], window[1] - window[0]
    # The walk reads single entries through memoryviews, which return
    # Python ints at about half the cost of `ndarray.item`.
    if len_n > 1:
        len_values, len_positions, len_before = map(memoryview, _accepted(raw, len_n))
        len_count = len(len_positions)
    if tok_n > 1:
        tok_values, tok_positions, tok_before = map(memoryview, _accepted(raw, tok_n))
        tok_count = len(tok_positions)
    lengths: list[int] = []
    firsts: list[int] = []  # index among tok_values of each first token
    ends: list[int] = []
    p = 0
    for _ in range(limit):
        length = len_low
        if len_n > 1:
            i = len_before[p]
            if i == len_count:
                break
            length += len_values[i]
            p = len_positions[i] + 1
        if tok_n > 1:
            first = tok_before[p]
            if first + length > tok_count:
                break
            firsts.append(first)
            p = tok_positions[first + length - 1] + 1
        lengths.append(length)
        ends.append(p)
    if tok_n == 1:
        return lengths, np.full(sum(lengths), tok_low, np.int64), ends
    # Value index of every token: each candidate's run of values from its
    # first.
    sizes = np.array(lengths, np.int64)
    offsets = np.cumsum(sizes) - sizes
    ranks = np.repeat(np.array(firsts, np.int64) - offsets, sizes)
    ranks += np.arange(len(ranks))
    return lengths, tok_low + np.asarray(tok_values)[ranks], ends


def _labeller(teacher: Mat, embedding: Mat, window: tuple[int, int]):
    """`label(lengths, flat)`: the class of each of a block of candidates
    from `window` (lengths, token ids back to back), the argmax of the sum
    of its tokens' rows (one `np.add.reduceat` over the block) of the
    window's score table S = E @ teacher.T, E the window's embedding rows,
    built once per teacher. An exact tie goes to the lowest class.

    A candidate's summed rows are L times `teacher @ x` of its pooled mean
    x in exact arithmetic, so its class is the argmax of that mat-vec
    wherever the top two class scores are further apart than rounding.
    """
    lo, hi = window
    table = embedding[lo:hi] @ teacher.T

    def label(lengths: np.ndarray, flat: np.ndarray) -> list[int]:
        scores = np.add.reduceat(table[flat - lo], np.cumsum(lengths) - lengths)
        return np.argmax(scores, axis=1).tolist()

    return label


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
    sample plus 400; then the attempt fails. The "draw" stream's raw draws
    are taken once into a buffer that both splits read in blocks, each
    split by one walk along the chain of candidates from the block's first
    draw (`_split_candidates`); the buffer then drops the draws of exactly
    the candidates the split went through, so every draw is the one a
    one-at-a-time generator would make. A candidate's label is the argmax
    of its tokens' summed rows of a table of the teacher's scores of each
    window token (`_labeller`): the teacher's argmax on its pooled
    embedding, but where two class scores lie within rounding of each
    other.

    Raises ValueError, before any draw, when `n_classes` is not an integer
    >= 2, `seq_len` is not a pair of integers 1 <= min <= max, `noise` is
    outside [0, 1] (NaN included), `n_train` or `n_test` is not an integer
    >= 1 (bools refused in all three and in `seq_len`) or the window holds
    fewer distinct sequences than n_train + n_test.
    """
    if not _is_count(n_classes) or n_classes < 2:
        raise ValueError(f"n_classes={n_classes!r}: need an integer >= 2")
    lo, hi = vocab_window
    if not 0 <= lo < hi <= embedding.shape[0]:
        raise IdOutOfRange(f"window {vocab_window} outside vocab")
    if not (isinstance(seq_len, (tuple, list)) and len(seq_len) == 2):
        raise ValueError(f"seq_len={seq_len!r}: need a pair (min, max)")
    if not (all(map(_is_count, seq_len)) and 1 <= seq_len[0] <= seq_len[1]):
        raise ValueError(f"seq_len {seq_len}: need integers 1 <= min <= max")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise {noise} of task {task_id}: need 0 <= noise <= 1")
    for name, size in (("n_train", n_train), ("n_test", n_test)):
        if not _is_count(size) or size < 1:
            raise ValueError(f"{name} {size!r} of task {task_id}: need an integer >= 1")
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
        labeller = _labeller(teacher, embedding, vocab_window)
        draw = gen.child("draw")
        seen: set[tuple[int, ...]] = set()
        # Raw draws taken from `draw` that no candidate has gone through.
        ahead = np.empty(0, np.uint64)

        def fill(count: int) -> Dataset | None:
            nonlocal ahead
            quota = [count // n_classes] * n_classes
            for c in range(count % n_classes):
                quota[c] += 1
            # Each accepted candidate is a view of its block's `flat`, which
            # the view keeps alive until the split's Dataset packs them once.
            tokens: list[np.ndarray] = []
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
                    if len(ahead) < n_raw:
                        ahead = np.concatenate([ahead, draw.raw(n_raw - len(ahead))])
                    lengths, flat, ends = _split_candidates(
                        ahead[:n_raw], seq_len, vocab_window, block
                    )
                    n_raw *= 2
                classes = labeller(np.array(lengths), flat)
                ids = flat.tolist()
                starts = itertools.accumulate(lengths, initial=0)
                for start, length, end, label in zip(starts, lengths, ends, classes):
                    budget -= 1
                    if quota[label] == 0:
                        continue
                    seq = tuple(ids[start : start + length])
                    if seq in seen:
                        continue
                    quota[label] -= 1
                    seen.add(seq)
                    tokens.append(flat[start : start + length])
                    labels.append(class_offset + label)
                    if len(tokens) == count:
                        break
                ahead = ahead[end:]
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
) -> list[Task]:
    """Lay out disjoint vocab windows and generate every task, in order.

    Raises ValueError, before any draw, naming the size: when `n_tasks` or
    `window_size` is not an integer >= 1, or `classes_per_task` not one
    >= 2 (bools refused), and as `generate_task` does for `seq_len`."""
    _check_sizes(n_tasks=n_tasks, window_size=window_size)
    if not _is_count(classes_per_task) or classes_per_task < 2:
        raise ValueError(f"classes_per_task={classes_per_task!r}: need an integer >= 2")
    windows = [(t * window_size, (t + 1) * window_size) for t in range(n_tasks)]
    if windows[-1][1] > vocab_size:
        raise WindowOverlap(
            f"{n_tasks} windows of {window_size} tokens exceed vocab {vocab_size}"
        )
    return [
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

