import re

import numpy as np
import pytest

from gatedlora.errors import NonFinite, NonSymmetric
from gatedlora.numerics import Rng, _lemire, gaussian_init, sym_eig


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(99).normal(4, 5, 1.0)
        b = Rng(99).normal(4, 5, 1.0)
        assert np.array_equal(a, b)

    def test_children_are_independent_of_call_order(self):
        r = Rng(7)
        first = r.child("alpha").normal(2, 2, 1.0)
        r.normal(10, 10, 1.0)  # consuming the parent stream changes nothing
        again = Rng(7).child("alpha").normal(2, 2, 1.0)
        assert np.array_equal(first, again)

    def test_distinct_tags_distinct_streams(self):
        r = Rng(7)
        assert r.child("a").seed != r.child("b").seed

    @pytest.mark.parametrize(
        "seed", [1.5, np.float64(2.0), "3", True, np.bool_(False)],
        ids=["float", "numpy-float", "str", "bool", "numpy-bool"],
    )
    def test_refuses_seeds_that_are_not_integers(self, seed):
        # Each ran as the integer it truncates or converts to.
        with pytest.raises(ValueError, match=re.escape(f"seed={seed!r}: need an integer")):
            Rng(seed)

    def test_takes_numpy_and_negative_integer_seeds(self):
        assert Rng(np.int64(5)).seed == 5
        assert Rng(-1).seed == 2**64 - 1

    def test_known_stream_value(self):
        # Pin the generator family: PCG64 must not silently change.
        v = Rng(0).normal(1, 1, 1.0)[0, 0]
        assert v == pytest.approx(0.1257302210933933, abs=1e-15)


class TestRawDraws:
    """`integers` calls over ranges of at most 2**32 values are Lemire's
    method over the raw 32-bit draws that `raw` consumes."""

    @pytest.mark.parametrize("n", [2, 9, 200, 2**31 + 1, 2**32])
    def test_lemire_on_raw_draws_is_integers(self, n):
        for seed in range(20):
            stream, oracle = Rng(seed), Rng(seed)
            for r in (stream, oracle):
                r.integers(0, 3, 1)  # leave half a 64-bit draw buffered
            raw = stream.raw(64)
            values, accepted = _lemire(raw, n)
            want = oracle.integers(0, n, 20)
            assert values[accepted][:20].tolist() == want.tolist()
            # The oracle read the draws through its 20th value; the stream
            # read 64, which the oracle now reads to their end.
            oracle.raw(64 - (int(np.flatnonzero(accepted)[19]) + 1))
            assert stream.integers(0, 1000, 5).tolist() == oracle.integers(0, 1000, 5).tolist()

    @pytest.mark.parametrize("split", [(0, 64), (1, 63), (7, 50), (32, 32), (63, 1), (3, 5, 56)])
    def test_raw_draws_do_not_depend_on_chunking(self, split):
        # An odd count leaves half a 64-bit draw buffered for the next.
        for seed in range(20):
            whole, chunked = Rng(seed), Rng(seed)
            want = whole.raw(sum(split))
            got = np.concatenate([chunked.raw(k) for k in split])
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert chunked.normal(2, 2).tobytes() == whole.normal(2, 2).tobytes()


class TestGaussianInit:
    def test_deterministic(self, rng):
        a = gaussian_init(Rng(5), 3, 4, 0.02)
        b = gaussian_init(Rng(5), 3, 4, 0.02)
        assert np.array_equal(a, b)

    def test_empirical_std(self):
        m = gaussian_init(Rng(11), 100, 100, 0.02)
        assert abs(m.std() - 0.02) < 0.002

    def test_empty_shape(self, rng):
        assert gaussian_init(rng, 0, 7, 0.02).shape == (0, 7)

    def test_rejects_nonpositive_std(self, rng):
        with pytest.raises(ValueError):
            gaussian_init(rng, 2, 2, 0.0)


class TestSymEig:
    def test_diagonal(self):
        evals, evecs = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(evals, [4.0, 1.0])
        assert np.allclose(np.abs(evecs), np.eye(2))

    def test_hand_characteristic_polynomial(self):
        # det([[2-l, 1], [1, 2-l]]) = (l-3)(l-1)
        evals, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(evals, [3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("case", [1, 3, 8, 33, 64, 256, "repeated"])
    def test_reconstruction_and_orthonormality(self, case):
        if case == "repeated":
            # Two repeated eigenvalues, where solvers may return any basis
            # of each eigenspace: Q diag(3, 3, 1, 1, 0) Q^T.
            q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(5, 5)))
            s = q @ np.diag([3.0, 3.0, 1.0, 1.0, 0.0]) @ q.T
            s = (s + s.T) / 2
        else:
            m = np.random.default_rng(case).normal(size=(case, case))
            s = (m + m.T) / 2
        n = s.shape[0]
        evals, evecs = sym_eig(s)
        assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.T - s)) <= 1e-8
        assert np.max(np.abs(evecs.T @ evecs - np.eye(n))) <= 1e-8
        assert np.all(np.diff(evals) <= 1e-12)
        if case == "repeated":
            assert np.allclose(evals, [3.0, 3.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_empty(self):
        evals, evecs = sym_eig(np.zeros((0, 0)))
        assert evals.shape == (0,)
        assert evecs.shape == (0, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NonSymmetric):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_matches_eigenvalues_of_psd_product(self):
        gen = np.random.default_rng(3)
        h = gen.normal(size=(10, 25))
        evals, _ = sym_eig(h @ h.T)
        ref = np.sort(np.linalg.eigvalsh(h @ h.T))[::-1]
        assert np.allclose(evals, ref, atol=1e-9)
