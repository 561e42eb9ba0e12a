from collections import Counter

import numpy as np
import pytest

from gatedlora import model
from gatedlora.errors import (
    EmptyInput,
    IdOutOfRange,
    ParseError,
    SchemaError,
    WindowOverlap,
)
from gatedlora.model import (
    Dataset,
    Task,
    ToyBackbone,
    _labels,
    _split_candidates,
    build_task_sequence,
    generate_task,
    ingest_dataset,
)
from gatedlora.numerics import Rng, _lemire, gaussian_init

from conftest import pool_embed


class TestIngestLineNumbers:
    """Errors name the physical line of the bad record, blank lines included."""

    def test_csv_parse_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tokens,label,task_id\n1 2,0,0\n\n\n3 x,1,0\n")
        with pytest.raises(ParseError) as info:
            ingest_dataset(path, "csv", vocab_size=10, n_classes=4)
        assert info.value.line == 5

    def test_jsonl_parse_error_counts_blank_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tokens": [1, 2], "label": 0, "task_id": 0}\n\n\n{bad\n')
        with pytest.raises(ParseError) as info:
            ingest_dataset(path, "jsonl", vocab_size=10, n_classes=4)
        assert info.value.line == 4

    @pytest.mark.parametrize(
        "fmt, text",
        [
            (
                "jsonl",
                '{"tokens": [1, 2], "label": 0, "task_id": 0}\n\n\n'
                '{"tokens": [3], "label": 9, "task_id": 0}\n',
            ),
            ("csv", "tokens,label,task_id\n1 2,0,0\n\n3,9,0\n"),
        ],
        ids=["jsonl", "csv"],
    )
    def test_schema_error_names_the_line(self, tmp_path, fmt, text):
        path = tmp_path / f"d.{fmt}"
        path.write_text(text)
        with pytest.raises(SchemaError, match=r"^line 4: label 9 outside"):
            ingest_dataset(path, fmt, vocab_size=10, n_classes=4)


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
                assert all(lo <= tok < hi for seq in ds.tokens for tok in seq)
            train = {tuple(seq) for seq in task.train.tokens}
            assert train.isdisjoint(tuple(seq) for seq in task.test.tokens)

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
                assert da.tokens == db.tokens
                assert np.array_equal(da.labels, db.labels)


def sequential_generate_task(
    rng, task_id, vocab_window, n_classes, n_train, n_test, noise, *,
    embedding, class_offset, seq_len=(8, 16), max_attempts=16,
):
    """The generator drawing, pooling and labeling one candidate at a time,
    and flipping noisy labels one at a time: the oracle `generate_task`
    must match byte for byte."""
    lo, hi = vocab_window
    for attempt in range(max_attempts):
        gen = rng.child(f"task{task_id}-attempt{attempt}")
        teacher = gaussian_init(gen.child("teacher"), n_classes, embedding.shape[1], 1.0)
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
                label = int(np.argmax(teacher @ pool_embed(seq, embedding)))
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
# candidates can be rejected (seed 1 takes 96 of 1 810).
GENERATOR_CASES = {
    "desk": (48, 16, (16, 32), 3, 20, 10, 0.0, (2, 2)),
    "desk-lengths": (48, 16, (0, 16), 3, 20, 10, 0.0, (1, 5)),
    "desk-noise": (48, 16, (16, 32), 3, 20, 10, 0.4, (2, 4)),
    "gpm-like": (16, 64, (8, 16), 4, 64, 32, 0.0, (8, 16)),
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
        assert g.tokens == w.tokens
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


def sequential_candidates(rng, seq_len, window, count):
    """`count` candidates drawn one at a time, as `generate_task` draws them."""
    out = []
    for _ in range(count):
        length = int(rng.integers(seq_len[0], seq_len[1] + 1, 1)[0])
        out.append(rng.integers(*window, length).tolist())
    return out


class TestSplitCandidates:
    @pytest.mark.parametrize(
        "seq_len, window",
        [((8, 16), (0, 8)), ((2, 2), (16, 32)), ((1, 4), (0, 2**31 + 1)), ((1, 3), (5, 6))],
        ids=["gpm-like", "fixed-length", "half-rejected", "one-token-window"],
    )
    def test_matches_sequential_draws_and_stream_position(self, seq_len, window):
        for seed in range(3):
            stream = Rng(seed)
            stream.integers(0, 5, 1)  # leave half a 64-bit draw buffered
            raw = stream.peek_raw(200)
            lengths, flat, ends = _split_candidates(raw, seq_len, window, 40)
            assert lengths and ends == sorted(ends) and ends[-1] <= len(raw)
            oracle = Rng(seed)
            oracle.integers(0, 5, 1)
            starts = np.cumsum([0] + lengths)
            for k, end in enumerate(ends):
                [want] = sequential_candidates(oracle, seq_len, window, 1)
                assert flat[starts[k] : starts[k + 1]].tolist() == want
                probe = Rng(seed)
                probe.integers(0, 5, 1)
                probe.skip_raw(end)
                assert probe.peek_raw(4).tolist() == oracle.peek_raw(4).tolist()

    def test_rejection_path_runs(self):
        # Lemire's method rejects about half the draws for 2**31 + 1 values.
        raw = Rng(0).peek_raw(200)
        _, accepted = _lemire(raw, 2**31 + 1)
        assert 50 < np.count_nonzero(~accepted) < 150

    def test_limit_and_block_end(self):
        raw = Rng(7).peek_raw(50)
        lengths, flat, ends = _split_candidates(raw, (4, 4), (0, 10), 100)
        # A length drawn from one value draws nothing, so each candidate
        # takes four draws and 12 fit in the block.
        assert lengths == [4] * 12 and ends == list(range(4, 52, 4))
        assert len(_split_candidates(raw, (4, 4), (0, 10), 3)[0]) == 3
        assert _split_candidates(raw[:3], (4, 4), (0, 10), 100)[2] == []


def test_labels_match_per_row_products_on_ties():
    gen = np.random.default_rng(0)
    teacher = gen.normal(size=(4, 64))
    teacher[2] = teacher[0]  # exact ties, decided by the first index
    teacher[3] = np.nextafter(teacher[1], np.inf)  # ties to within rounding
    pooled = gen.normal(size=(300, 64))
    want = [int(np.argmax(teacher @ row.reshape(-1, 1))) for row in pooled]
    assert _labels(teacher, pooled) == want


def pooling_case(vocab=30):
    """A backbone and 40 sequences whose lengths cover 1..16."""
    backbone = ToyBackbone(Rng(3), vocab_size=vocab, embed_dim=6, hidden_dim=4, n_classes=2)
    gen = np.random.default_rng(5)
    lengths = list(range(1, 17)) + gen.integers(1, 17, size=24).tolist()
    gen.shuffle(lengths)
    tokens = [gen.integers(0, vocab, size=n).tolist() for n in lengths]
    return backbone, Dataset(tokens, np.zeros(len(tokens)), 0)


class TestPoolBatch:
    def test_bitwise_equal_to_per_sequence_pooling(self):
        backbone, ds = pooling_case()
        want = np.hstack([pool_embed(seq, backbone.embedding) for seq in ds.tokens])
        got = backbone.pool_batch(ds)
        assert got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        backbone, _ = pooling_case()
        with pytest.raises(EmptyInput):
            backbone.pool_batch(Dataset([], np.zeros(0), 0))

    def test_zero_length_sequence_rejected(self):
        # Dataset refuses empty sequences, but its token lists stay mutable.
        backbone, ds = pooling_case()
        ds.tokens[4] = []
        with pytest.raises(EmptyInput, match="sequence 4"):
            backbone.pool_batch(ds)

    @pytest.mark.parametrize(
        "bad", [[1, 30], [-1, 2], [1.0, 2.0]], ids=["vocab", "negative", "float"]
    )
    def test_bad_ids_rejected(self, bad):
        backbone, ds = pooling_case(vocab=30)
        ds.tokens[9] = bad
        with pytest.raises(IdOutOfRange):
            backbone.pool_batch(ds)


def test_dataset_rejects_empty_sequence():
    with pytest.raises(EmptyInput, match="sequence 1"):
        Dataset([[1, 2], []], [0, 1], 0)
