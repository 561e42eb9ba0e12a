from collections import Counter

import numpy as np
import pytest

from gatedlora.errors import (
    EmptyInput,
    IdOutOfRange,
    ParseError,
    SchemaError,
    WindowOverlap,
)
from gatedlora.gating import pool_embed
from gatedlora.model import Dataset, ToyBackbone, build_task_sequence, ingest_dataset
from gatedlora.numerics import Rng, gaussian_init


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

    def test_same_seed_same_tasks(self):
        a, b = desk_sequence(4), desk_sequence(4)
        for ta, tb in zip(a, b, strict=True):
            for da, db in ((ta.train, tb.train), (ta.test, tb.test)):
                assert da.tokens == db.tokens
                assert np.array_equal(da.labels, db.labels)


def pooling_case(vocab=30):
    """A backbone and 40 sequences whose lengths cover 1..16."""
    backbone = ToyBackbone(Rng(3), vocab_size=vocab, embed_dim=6, hidden_dim=4, n_classes=2)
    gen = np.random.default_rng(5)
    lengths = list(range(1, 17)) + gen.integers(1, 17, size=24).tolist()
    gen.shuffle(lengths)
    tokens = [gen.integers(0, vocab, size=n).tolist() for n in lengths]
    return backbone, Dataset(tokens, np.zeros(len(tokens)), 0)


class TestPoolBatch:
    @pytest.mark.parametrize(
        "indices",
        [None, [7, 3, 3, 0, 39, 7], np.array([12, 1, 30, 1])],
        ids=["all", "list-repeats", "array-repeats"],
    )
    def test_bitwise_equal_to_per_sequence_pooling(self, indices):
        backbone, ds = pooling_case()
        rows = range(len(ds)) if indices is None else indices
        want = np.hstack([pool_embed(ds.tokens[i], backbone.embedding) for i in rows])
        got = backbone.pool_batch(ds, indices)
        assert got.shape == want.shape
        assert got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        backbone, ds = pooling_case()
        with pytest.raises(EmptyInput):
            backbone.pool_batch(ds, [])

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
