import copy
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gatedlora import model, numerics
from gatedlora.errors import EmptyInput, IdOutOfRange, ShapeMismatch, WindowOverlap
from gatedlora.model import (
    Dataset,
    Task,
    ToyBackbone,
    _labeller,
    _split_candidates,
    build_task_sequence,
    generate_task,
)
from gatedlora.numerics import Rng, _lemire, gaussian_init

from conftest import pool_embed, sequences


def desk_sequence(seed):
    """Three noise-free tasks of 3 classes (splits of 20/10, so the class
    quotas are uneven). Windows of 16 tokens and sequences of 2 tokens
    leave 256 distinct sequences per task, so a generator that stopped
    rejecting repeats would put some sequence in both splits."""
    embedding = gaussian_init(Rng(seed).child("embed"), 48, 16, 1.0)
    return build_task_sequence(
        Rng(seed).child("data"),
        n_tasks=3,
        classes_per_task=3,
        n_train=20,
        n_test=10,
        vocab_size=48,
        window_size=16,
        noise=0.0,
        embedding=embedding,
        seq_len=(2, 2),
    )


class TestGenerator:
    def test_split_invariants(self):
        for t, task in enumerate(desk_sequence(0)):
            lo, hi = task.window
            for ds, size in ((task.train, 20), (task.test, 10)):
                assert len(ds) == size
                counts = Counter(int(y) - 3 * t for y in ds.labels)
                assert set(counts) <= {0, 1, 2}
                per_class = [counts[c] for c in range(3)]
                assert max(per_class) - min(per_class) <= 1, per_class
                assert all(lo <= tok < hi for seq in sequences(ds) for tok in seq)
            train = {tuple(seq) for seq in sequences(task.train)}
            assert train.isdisjoint(tuple(seq) for seq in sequences(task.test))

    def test_windows_past_vocab_rejected(self):
        embedding = gaussian_init(Rng(0).child("embed"), 40, 16, 1.0)
        with pytest.raises(WindowOverlap, match="3 windows of 16 tokens exceed vocab 40"):
            build_task_sequence(
                Rng(0).child("data"),
                n_tasks=3,
                classes_per_task=3,
                n_train=20,
                n_test=10,
                vocab_size=40,
                window_size=16,
                noise=0.0,
                embedding=embedding,
                seq_len=(2, 2),
            )

    @pytest.mark.parametrize(
        "window_size, seq_len, match",
        [
            (2, (1, 1), r"window of 2 tokens holds only 2 distinct sequences of 1\.\.1"),
            (16, (0, 2), r"seq_len \(0, 2\)"),
            (16, (3, 2), r"seq_len \(3, 2\)"),
        ],
        ids=["window-capacity", "zero-length", "min-above-max"],
    )
    def test_impossible_config_named(self, window_size, seq_len, match):
        embedding = gaussian_init(Rng(0).child("embed"), 4 * window_size, 8, 1.0)
        with pytest.raises(ValueError, match=match):
            build_task_sequence(
                Rng(0).child("data"),
                n_tasks=2,
                classes_per_task=2,
                n_train=6,
                n_test=2,
                vocab_size=4 * window_size,
                window_size=window_size,
                noise=0.0,
                embedding=embedding,
                seq_len=seq_len,
            )

    def test_same_seed_same_tasks(self):
        a, b = desk_sequence(4), desk_sequence(4)
        for ta, tb in zip(a, b, strict=True):
            for da, db in ((ta.train, tb.train), (ta.test, tb.test)):
                assert sequences(da) == sequences(db)
                assert np.array_equal(da.labels, db.labels)


def sequential_generate_task(
    rng, task_id, vocab_window, n_classes, n_train, n_test, noise, *,
    embedding, class_offset, seq_len=(8, 16), max_attempts=16,
):
    """The generator drawing and labeling one candidate at a time, and
    flipping noisy labels one at a time: the oracle `generate_task` must
    match byte for byte. A candidate's label is the argmax of the sum of
    its tokens' rows of the score table `embedding[lo:hi] @ teacher.T`,
    one `np.add.reduceat` per candidate: numpy sums a 2-D block's rows in
    its own order (rows 1, 2, ... first and row 0 last), and a sum in
    token order can differ by rounding, which decides near-ties."""
    lo, hi = vocab_window
    for attempt in range(max_attempts):
        gen = rng.child(f"task{task_id}-attempt{attempt}")
        teacher = gaussian_init(gen.child("teacher"), n_classes, embedding.shape[1], 1.0)
        table = embedding[lo:hi] @ teacher.T
        draw = gen.child("draw")
        seen = set()

        def fill(count):
            quota = [count // n_classes] * n_classes
            for c in range(count % n_classes):
                quota[c] += 1
            tokens, labels = [], []
            budget = 400 * count + 400
            while budget > 0 and len(tokens) < count:
                budget -= 1
                length = int(draw.integers(seq_len[0], seq_len[1] + 1, 1)[0])
                seq = tuple(int(t) for t in draw.integers(lo, hi, length))
                if seq in seen:
                    continue
                scores = np.add.reduceat(table[np.array(seq) - lo], [0])
                label = int(np.argmax(scores))
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
            continue
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
    raise RuntimeError(f"task {task_id}: no teacher produced balanced classes")


# (vocab, embed dim, window, classes, n_train, n_test, noise, seq_len):
# the desk configs split 20/10 over 3 classes, so the quotas are uneven;
# "gpm-like" has the gpm-inflora workload's 8-token windows, where most
# candidates can be rejected (seed 1 takes 96 of 1 810); "eval-like" has
# eval-15's 200-token windows, whose token draws Lemire's method can
# reject (2**32 mod 200 = 96, where 8 tokens give 0).
GENERATOR_CASES = {
    "desk": (48, 16, (16, 32), 3, 20, 10, 0.0, (2, 2)),
    "desk-lengths": (48, 16, (0, 16), 3, 20, 10, 0.0, (1, 5)),
    "desk-noise": (48, 16, (16, 32), 3, 20, 10, 0.4, (2, 4)),
    "gpm-like": (16, 64, (8, 16), 4, 64, 32, 0.0, (8, 16)),
    "eval-like": (400, 16, (200, 400), 4, 32, 16, 0.0, (8, 16)),
}


def generator_args(case, seed):
    vocab, dim, window, classes, n_train, n_test, noise, seq_len = GENERATOR_CASES[case]
    embedding = gaussian_init(Rng(seed).child("embed"), vocab, dim, 1.0)
    return (Rng(seed).child("data"), 1, window, classes, n_train, n_test, noise), dict(
        embedding=embedding, class_offset=classes, seq_len=seq_len
    )


def assert_same_task(got, want):
    assert got.window == want.window
    for g, w in ((got.train, want.train), (got.test, want.test)):
        for name in ("ids", "lengths"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert g.labels.dtype == w.labels.dtype
        assert g.labels.tobytes() == w.labels.tobytes()


class TestGeneratorOracle:
    @pytest.mark.parametrize("case", list(GENERATOR_CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_sequential_generator(self, case, seed):
        args, kwargs = generator_args(case, seed)
        assert_same_task(generate_task(*args, **kwargs), sequential_generate_task(*args, **kwargs))

    def test_matches_after_a_failed_attempt(self, monkeypatch):
        # Three tokens and lengths 1-2 leave 12 sequences for 5 + 4 samples:
        # at seed 2 the first teacher cannot fill both splits' quotas.
        embedding = gaussian_init(Rng(2).child("embed"), 3, 8, 1.0)
        args = (Rng(2).child("data"), 0, (0, 3), 2, 5, 4, 0.0)
        kwargs = dict(embedding=embedding, class_offset=0, seq_len=(1, 2))
        with monkeypatch.context() as patch:
            patch.setattr(model, "_MAX_ATTEMPTS", 1)
            with pytest.raises(RuntimeError, match="in 1 attempts"):
                generate_task(*args, **kwargs)
        assert_same_task(generate_task(*args, **kwargs), sequential_generate_task(*args, **kwargs))

    @pytest.mark.parametrize("case", ["desk-lengths", "gpm-like"])
    def test_matches_with_a_tied_teacher(self, case, monkeypatch):
        # Teacher rows 0 and 1 one ulp apart put the top two scores of
        # every candidate whose top class is either within rounding of
        # each other.
        def tied_teacher(rng, rows, cols, std):
            teacher = numerics.gaussian_init(rng, rows, cols, std)
            teacher[1] = np.nextafter(teacher[0], np.inf)
            return teacher

        args, kwargs = generator_args(case, 0)
        monkeypatch.setattr(model, "gaussian_init", tied_teacher)
        monkeypatch.setitem(globals(), "gaussian_init", tied_teacher)
        assert_same_task(generate_task(*args, **kwargs), sequential_generate_task(*args, **kwargs))

    @pytest.mark.parametrize("case", list(GENERATOR_CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_labels_are_the_teachers_argmax_on_the_pooled_mean(self, case, seed, monkeypatch):
        # The table rule against the mat-vec definition, on noise-free
        # labels: the last teacher `generate_task` draws is the one that
        # filled both splits.
        teachers, labeller = [], model._labeller

        def recording_labeller(teacher, embedding, window):
            teachers.append(teacher)
            return labeller(teacher, embedding, window)

        monkeypatch.setattr(model, "_labeller", recording_labeller)
        args, kwargs = generator_args(case, seed)
        task = generate_task(*args[:-1], 0.0, **kwargs)
        for ds in (task.train, task.test):
            want = [
                int(np.argmax(teachers[-1] @ pool_embed(seq, kwargs["embedding"])))
                for seq in sequences(ds)
            ]
            assert (ds.labels - kwargs["class_offset"]).tolist() == want


def sequential_candidates(rng, seq_len, window, count):
    """`count` candidates drawn one at a time, as `generate_task` draws them."""
    out = []
    for _ in range(count):
        length = int(rng.integers(seq_len[0], seq_len[1] + 1, 1)[0])
        out.append(rng.integers(*window, length).tolist())
    return out


def prefixed_stream(seed):
    """`Rng(seed)` with half a 64-bit draw left buffered."""
    stream = Rng(seed)
    stream.integers(0, 5, 1)
    return stream


class BlockEnd(Exception):
    pass


def decode_draw_by_draw(raw, seq_len, window, limit):
    """The candidates a block of raw 32-bit draws holds whole, decoded one
    draw at a time as numpy's bounded sampler (Lemire's method) reads
    them: a range of n > 1 values turns draw r into (r * n) >> 32 unless
    (r * n) mod 2**32 is below 2**32 mod n, which rejects r; a range of one
    value draws nothing. Returns the candidates, the draws used through
    each, and the rejected draws read (those of a last candidate the block
    does not hold whole included)."""
    raw = [int(r) for r in raw]
    pos = rejected = 0

    def integer(low, high):
        nonlocal pos, rejected
        n = high - low
        if n == 1:
            return low
        while pos < len(raw):
            m = raw[pos] * n
            pos += 1
            if m % 2**32 >= 2**32 % n:
                return low + (m >> 32)
            rejected += 1
        raise BlockEnd

    candidates, ends = [], []
    try:
        while len(ends) < limit:
            length = integer(seq_len[0], seq_len[1] + 1)
            candidates.append([integer(*window) for _ in range(length)])
            ends.append(pos)
    except BlockEnd:
        pass
    return candidates, ends, rejected


def assert_splits_as(raw, seq_len, window, limit, candidates, ends):
    lengths, flat, got_ends = _split_candidates(raw, seq_len, window, limit)
    assert got_ends == ends
    assert lengths == [len(c) for c in candidates]
    assert flat.dtype == np.int64 and flat.tolist() == [t for c in candidates for t in c]


class TestSplitCandidates:
    @pytest.mark.parametrize(
        "seq_len, window",
        [((8, 16), (0, 8)), ((2, 2), (16, 32)), ((1, 4), (0, 2**31 + 1)), ((1, 3), (5, 6))],
        ids=["gpm-like", "fixed-length", "half-rejected", "one-token-window"],
    )
    def test_matches_sequential_draws_and_stream_position(self, seq_len, window):
        # Blocks of 200 raw draws (seeds 0-2), then one of the production
        # shape, a full `generate_task` block of 512 candidates over 512 *
        # 17 raw draws (seed 3), which holds 512 whole: the walk stops at
        # `limit`. With no limit it stops at the block's end, where the
        # draw-by-draw decoder does.
        for n_raw, limit, seed in [(200, 40, 0), (200, 40, 1), (200, 40, 2), (512 * 17, 512, 3)]:
            # The block, and the 4 draws past it that a probe may read.
            draws = prefixed_stream(seed).raw(n_raw + 4)
            raw = draws[:n_raw]
            lengths, flat, ends = _split_candidates(raw, seq_len, window, limit)
            assert lengths and ends == sorted(ends) and ends[-1] <= len(raw)
            oracle = prefixed_stream(seed)
            starts = np.cumsum([0] + lengths)
            for k, end in enumerate(ends):
                [want] = sequential_candidates(oracle, seq_len, window, 1)
                assert flat[starts[k] : starts[k + 1]].tolist() == want
                # The oracle's next draws are the stream's past `end`.
                probe = copy.deepcopy(oracle)
                assert probe.raw(4).tolist() == draws[end : end + 4].tolist()
            candidates, whole, _ = decode_draw_by_draw(raw, seq_len, window, n_raw + 1)
            assert len(whole) <= n_raw
            assert_splits_as(raw, seq_len, window, n_raw + 1, candidates, whole)
            if n_raw == 512 * 17:
                assert len(ends) == limit < len(whole)

    def test_rejection_path_runs(self):
        # Lemire's method rejects about half the draws for 2**31 + 1 values.
        raw = Rng(0).raw(200)
        _, accepted = _lemire(raw, 2**31 + 1)
        assert 50 < np.count_nonzero(~accepted) < 150

    def test_decoder_reads_a_stream_as_integers(self):
        for window in ((200, 400), (0, 2**31 + 1)):
            raw = Rng(5).raw(400)
            candidates, _, rejected = decode_draw_by_draw(raw, (8, 16), window, 10**6)
            assert len(candidates) > 10
            assert candidates == sequential_candidates(Rng(5), (8, 16), window, len(candidates))
        assert rejected > 100  # half the draws for 2**31 + 1 tokens

    @pytest.mark.parametrize(
        "place", ["length", "length-twice", "first-token", "last-token", "block-end", "all"]
    )
    def test_rejected_draws_match_draw_by_draw_decoder(self, place):
        # The raw value 0 is rejected by both ranges here: 0 * n mod 2**32 = 0
        # is below 2**32 mod n, 4 for the 9 lengths 8..16 and 96 for 200
        # tokens. (The "half-rejected" lengths never reject: 2**32 mod 4 = 0.)
        # Each zero goes where the block without zeros puts a candidate's
        # length draw, first token or last token, or into its last draws;
        # "all" places every one at once, past the first of which the chain
        # shifts.
        seq_len, window = (8, 16), (200, 400)
        raw = np.random.default_rng(0).integers(1, 2**32, size=20 * 17, dtype=np.uint64)
        clean, clean_ends, rejected = decode_draw_by_draw(raw, seq_len, window, len(raw))
        assert rejected == 0 and len(clean) > 10
        starts = [0] + clean_ends
        zeros = {
            "length": [starts[3]],
            "length-twice": [starts[4], starts[4] + 1],
            "first-token": [starts[5] + 1],
            "last-token": [clean_ends[6] - 1],
            "block-end": list(range(len(raw) - 3, len(raw))),
        }
        zeros["all"] = sorted(sum(zeros.values(), []))
        raw[zeros[place]] = 0
        candidates, ends, rejected = decode_draw_by_draw(raw, seq_len, window, len(raw))
        assert rejected == len(zeros[place])
        for limit in (4, 7, len(raw)):
            assert_splits_as(raw, seq_len, window, limit, candidates[:limit], ends[:limit])

    def test_limit_and_block_end(self):
        raw = Rng(7).raw(50)
        lengths, flat, ends = _split_candidates(raw, (4, 4), (0, 10), 100)
        # A length drawn from one value draws nothing, so each candidate
        # takes four draws and 12 fit in the block.
        assert lengths == [4] * 12 and ends == list(range(4, 52, 4))
        assert len(_split_candidates(raw, (4, 4), (0, 10), 3)[0]) == 3
        assert _split_candidates(raw[:3], (4, 4), (0, 10), 100)[2] == []


def test_labels_take_the_first_tied_class_and_the_mat_vecs_elsewhere():
    gen = np.random.default_rng(0)
    embedding = gen.normal(size=(40, 64))
    teacher = gen.normal(size=(6, 64))
    teacher[2] = teacher[0]  # exact ties, decided by the first index
    teacher[3] = np.nextafter(teacher[1], np.inf)  # ties to within rounding
    window = (10, 30)
    lengths = np.tile(np.arange(1, 17), 20)
    gen.shuffle(lengths)
    flat = gen.integers(*window, size=lengths.sum())
    starts = np.cumsum(lengths) - lengths
    labels = np.array(_labeller(teacher, embedding, window)(lengths, flat))
    scores = np.hstack(
        [teacher @ pool_embed(flat[s : s + n], embedding) for s, n in zip(starts, lengths)]
    ).T
    assert 2 not in labels and np.array_equal(labels == 0, scores.argmax(axis=1) == 0)
    # Away from the near-tied pair, whose two scores differ by rounding
    # alone, the label is the mat-vec's.
    near = np.isin(labels, [1, 3])
    assert 0.1 < near.mean() < 0.9 and {0, 4, 5} <= set(labels[~near])
    assert np.array_equal(labels[~near], scores[~near].argmax(axis=1))
    assert np.all(np.isin(scores[near].argmax(axis=1), [1, 3]))


def pooling_case(vocab=30):
    """A backbone and 40 sequences whose lengths cover 1..16."""
    backbone = ToyBackbone(Rng(3), vocab_size=vocab, embed_dim=6, hidden_dim=4, n_classes=2)
    gen = np.random.default_rng(5)
    lengths = list(range(1, 17)) + gen.integers(1, 17, size=24).tolist()
    gen.shuffle(lengths)
    tokens = [gen.integers(0, vocab, size=n).tolist() for n in lengths]
    return backbone, Dataset(tokens, np.zeros(len(tokens), dtype=np.int64), 0)


class TestPoolBatch:
    def test_bitwise_equal_to_per_sequence_pooling(self):
        backbone, ds = pooling_case()
        want = np.hstack([pool_embed(seq, backbone.embedding) for seq in sequences(ds)])
        got = backbone.pool_batch(ds)
        assert got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        backbone, _ = pooling_case()
        with pytest.raises(EmptyInput):
            backbone.pool_batch(Dataset([], np.zeros(0), 0))

    def test_zero_length_sequence_rejected(self):
        # Dataset refuses empty sequences, but its packed arrays stay
        # mutable: drop sequence 4's tokens and give it length 0.
        backbone, ds = pooling_case()
        start = ds.lengths[:4].sum()
        ds.ids = np.delete(ds.ids, np.s_[start : start + ds.lengths[4]])
        ds.lengths[4] = 0
        with pytest.raises(EmptyInput, match="sequence 4"):
            backbone.pool_batch(ds)

    @pytest.mark.parametrize(
        "bad", [[1, 30], [-1, 2], [1.0, 2.0]], ids=["vocab", "negative", "float"]
    )
    def test_bad_ids_rejected(self, bad):
        backbone, ds = pooling_case(vocab=30)
        seqs = sequences(ds)
        seqs[9] = bad
        ds.ids = np.array([tok for seq in seqs for tok in seq])
        ds.lengths[9] = len(bad)
        with pytest.raises(IdOutOfRange):
            backbone.pool_batch(ds)


def test_dataset_rejects_empty_sequence():
    with pytest.raises(EmptyInput, match="sequence 1"):
        Dataset([[1, 2], []], [0, 1], 0)


@pytest.mark.parametrize(
    "bad, match",
    [
        ([1.0, 2.0], "sequence 1 of task 3: token ids must be integers, got dtype float64"),
        ([True, False], "sequence 1 of task 3: token ids must be integers, got dtype bool"),
        ([4, -2], "sequence 1 of task 3 has token id -2"),
    ],
    ids=["float", "bool", "negative"],
)
def test_dataset_rejects_bad_ids_naming_the_sequence(bad, match):
    with pytest.raises(IdOutOfRange, match=match):
        Dataset([[1, 2], bad, [5]], [0, 1, 0], 3)


@pytest.mark.parametrize("labels", [[0.7, 1.9], [1.0, 0.0], [True, False]])
def test_dataset_refuses_non_integer_labels(labels):
    with pytest.raises(IdOutOfRange, match="labels of task 0 must be integers"):
        Dataset([[1, 2], [3]], labels, 0)


def test_dataset_refuses_labels_that_are_not_1d():
    # (n, 1) labels would broadcast `pred == labels` to (n, n) in
    # `evaluate` and report a wrong accuracy.
    with pytest.raises(ShapeMismatch, match=r"labels of task 1 must be 1-D, got shape \(2, 1\)"):
        Dataset([[1, 2], [3]], np.array([[2], [3]]), 1)


class NoDraws:
    """An Rng stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the rng ({name})")


@pytest.mark.parametrize("noise", [1.5, -0.2, float("nan")])
def test_generate_task_refuses_noise_outside_unit_interval(noise):
    embedding = gaussian_init(Rng(0).child("embed"), 16, 8, 1.0)
    with pytest.raises(ValueError, match=f"noise {noise} of task 0"):
        generate_task(
            NoDraws(), 0, (0, 16), 2, 6, 2, noise, embedding=embedding, class_offset=0
        )


@pytest.mark.parametrize(
    "split, size",
    [("n_train", 0), ("n_test", -3), ("n_train", 2.5), ("n_test", True), ("n_train", "6")],
    ids=["zero", "negative", "float", "bool", "str"],
)
def test_generate_task_refuses_split_sizes_that_are_not_positive_integers(split, size):
    embedding = gaussian_init(Rng(0).child("embed"), 16, 8, 1.0)
    sizes = {"n_train": 6, "n_test": 2, split: size}
    with pytest.raises(ValueError, match=re.escape(f"{split} {size!r} of task 3")):
        generate_task(
            NoDraws(), 3, (0, 16), 2, sizes["n_train"], sizes["n_test"], 0.0,
            embedding=embedding, class_offset=0,
        )


@pytest.mark.parametrize(
    "n_classes, seq_len, match",
    [
        (2.5, (2, 4), "n_classes=2.5: need an integer >= 2"),
        (True, (2, 4), "n_classes=True: need an integer >= 2"),
        (1, (2, 4), "n_classes=1: need an integer >= 2"),
        (2, (3,), r"seq_len=\(3,\): need a pair \(min, max\)"),
        (2, (2, 3, 4), r"seq_len=\(2, 3, 4\): need a pair \(min, max\)"),
        (2, 3, r"seq_len=3: need a pair \(min, max\)"),
    ],
    ids=["classes_float", "classes_bool", "one_class", "one_length", "three_lengths", "int"],
)
def test_generate_task_refuses_classes_and_lengths_it_cannot_use(n_classes, seq_len, match):
    # Before, n_classes=2.5 failed inside numpy after drawing, n_classes=1
    # named no knob, seq_len=(3,) raised IndexError and seq_len=3 TypeError.
    embedding = gaussian_init(Rng(0).child("embed"), 16, 8, 1.0)
    with pytest.raises(ValueError, match=match):
        generate_task(
            NoDraws(), 0, (0, 16), n_classes, 6, 2, 0.0,
            embedding=embedding, class_offset=0, seq_len=seq_len,
        )


def test_generate_task_takes_numpy_integer_sizes():
    embedding = gaussian_init(Rng(0).child("embed"), 16, 8, 1.0)
    task = generate_task(
        Rng(0).child("data"), 0, (0, 16), 2, np.int64(6), np.int64(2), 0.0,
        embedding=embedding, class_offset=0, seq_len=(2, 2),
    )
    assert (len(task.train), len(task.test)) == (6, 2)


BACKBONE_SIZES = dict(vocab_size=24, embed_dim=8, hidden_dim=8, n_classes=4)


@pytest.mark.parametrize("knob", list(BACKBONE_SIZES))
def test_backbone_refuses_sizes_below_one(knob):
    # Before, embed_dim=0 warned of a division by zero and failed in the
    # generator; the others failed later or not at all.
    with pytest.raises(ValueError, match=f"{knob}=0: need an integer >= 1"):
        ToyBackbone(NoDraws(), **dict(BACKBONE_SIZES, **{knob: 0}))


@pytest.mark.parametrize("knob", ["n_tasks", "window_size"])
def test_task_sequence_refuses_sizes_below_one(knob):
    # Before, n_tasks=0 built an empty sequence and window_size=0 failed
    # with "window (0, 0) outside vocab".
    sizes = {"n_tasks": 3, "window_size": 16, knob: 0}
    with pytest.raises(ValueError, match=f"{knob}=0: need an integer >= 1"):
        build_task_sequence(
            NoDraws(),
            classes_per_task=2,
            n_train=6,
            n_test=2,
            vocab_size=48,
            noise=0.0,
            embedding=gaussian_init(Rng(0).child("embed"), 48, 8, 1.0),
            **sizes,
        )


@pytest.mark.parametrize(
    "sizes, match",
    [
        (dict(seq_len=(2.5, 4)), r"seq_len \(2.5, 4\): need integers"),
        (dict(seq_len=(True, 4)), r"seq_len \(True, 4\): need integers"),
        (dict(classes_per_task=2.5), "classes_per_task=2.5: need an integer >= 2"),
        (dict(classes_per_task=1), "classes_per_task=1: need an integer >= 2"),
    ],
    ids=["seq_len_float", "seq_len_bool", "classes_float", "one_class"],
)
def test_task_sequence_refuses_sizes_that_are_not_counts(sizes, match):
    # Before, both floats failed inside numpy with "'float' object cannot be
    # interpreted as an integer", seq_len=(True, 4) built sequences of one
    # token and classes_per_task=1 raised "need at least 2 classes", which
    # names no knob of the call.
    kwargs = dict(
        n_tasks=3,
        classes_per_task=2,
        n_train=6,
        n_test=2,
        vocab_size=48,
        window_size=16,
        noise=0.0,
        embedding=gaussian_init(Rng(0).child("embed"), 48, 8, 1.0),
        seq_len=(2, 4),
    )
    with pytest.raises(ValueError, match=match):
        build_task_sequence(NoDraws(), **dict(kwargs, **sizes))


def test_packed_layout():
    sources = [pooling_case()[1], Dataset([np.array([7], np.uint8), (3, 1)], [1, 0], 0)]
    sources += [ds for task in desk_sequence(1) for ds in (task.train, task.test)]
    for ds in sources:
        for arr in (ds.ids, ds.lengths, ds.labels):
            assert arr.ndim == 1 and arr.dtype == np.int64
        assert ds.lengths.sum() == ds.ids.size and len(ds) == ds.lengths.size
    assert sequences(sources[1]) == [[7], [3, 1]]
    assert [sources[1].sequence_of(k) for k in range(3)] == [0, 1, 1]


def test_dataset_retains_only_its_packed_arrays():
    gen = np.random.default_rng(0)
    tracemalloc.start()
    try:
        # The input lists are made and dropped while traced, so only what
        # the Dataset keeps counts.
        ds = Dataset(gen.integers(0, 3000, size=(4800, 12)).tolist(), [0] * 4800, 0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 2 * (ds.ids.nbytes + ds.lengths.nbytes + ds.labels.nbytes)
