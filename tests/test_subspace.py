import numpy as np
import pytest

from gatedlora.errors import DimMismatch, ThresholdUnreachable
from gatedlora.subspace import (
    SubspaceBasis,
    SubspaceMemory,
    choose_rank,
    extend,
    project_out,
)


def brute_force_rank(eigs, captured_sq, total_sq, eps):
    """Exhaustive oracle: smallest u in {0..len} meeting the criterion."""
    slack = 1e-9 * max(1.0, total_sq)
    for u in range(len(eigs) + 1):
        if sum(eigs[:u]) + captured_sq >= eps * total_sq - slack:
            return u
    return None


class TestProjectOut:
    def test_axis_projection(self):
        m = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        out = project_out(m, np.array([[1.0], [1.0]]))
        assert np.allclose(out, [[0.0], [1.0]])

    def test_empty_basis_identity(self):
        m = SubspaceBasis(3)
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(project_out(m, x), x)

    def test_full_basis_annihilates(self):
        m = SubspaceBasis(3, np.eye(3))
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.max(np.abs(project_out(m, x))) <= 1e-12

    def test_idempotent(self):
        gen = np.random.default_rng(5)
        q, _ = np.linalg.qr(gen.normal(size=(6, 3)))
        m = SubspaceBasis(6, q)
        x = gen.normal(size=(6, 4))
        once = project_out(m, x)
        twice = project_out(m, once)
        assert np.max(np.abs(twice - once)) <= 1e-9

    def test_residual_orthogonal_to_basis(self):
        gen = np.random.default_rng(9)
        q, _ = np.linalg.qr(gen.normal(size=(8, 4)))
        m = SubspaceBasis(8, q)
        x = gen.normal(size=(8, 10))
        res = project_out(m, x)
        assert np.max(np.abs(m.basis.T @ res)) <= 1e-9 * np.max(np.abs(x))

    def test_dim_mismatch(self):
        m = SubspaceBasis(3)
        with pytest.raises(DimMismatch):
            project_out(m, np.zeros((4, 2)))


class TestChooseRank:
    def test_hand_examples(self):
        assert choose_rank(np.array([4.0, 1.0]), 0.0, 5.0, 0.8) == 1
        assert choose_rank(np.array([4.0, 1.0]), 0.0, 5.0, 1.0) == 2
        assert choose_rank(np.array([]), 9.0, 9.0, 0.99) == 0

    def test_matches_brute_force_on_random_instances(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            k = int(gen.integers(0, 8))
            eigs = np.sort(gen.uniform(0, 5, size=k))[::-1]
            extra = float(gen.uniform(0, 3))
            captured = float(gen.uniform(0, extra + 1e-12))
            total = float(eigs.sum()) + extra
            eps = float(gen.uniform(0.05, 1.0))
            want = brute_force_rank(list(eigs), captured, total, eps)
            if want is None:
                with pytest.raises(ThresholdUnreachable):
                    choose_rank(eigs, captured, total, eps)
            else:
                assert choose_rank(eigs, captured, total, eps) == want

    def test_unreachable(self):
        with pytest.raises(ThresholdUnreachable):
            choose_rank(np.array([1.0]), 0.0, 100.0, 0.9)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            choose_rank(np.array([1.0]), 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            choose_rank(np.array([1.0]), 0.0, 1.0, 1.5)

    def test_clamps_tiny_negative_eigs(self):
        assert choose_rank(np.array([2.0, -1e-15]), 0.0, 2.0, 1.0) == 1


class TestExtend:
    def test_full_capture_gives_complete_basis(self):
        m = SubspaceBasis(2)
        h = np.diag([2.0, 1.0])
        out = extend(m, h, 1.0)
        assert out.rank == 2
        assert np.allclose(np.abs(out.basis), np.eye(2))

    def test_partial_capture_takes_leading_direction(self):
        m = SubspaceBasis(2)
        out = extend(m, np.diag([2.0, 1.0]), 0.8)
        # residual covariance eigenvalues (4, 1): one direction reaches 4 >= 0.8*5
        assert out.rank == 1
        assert np.allclose(np.abs(out.basis), [[1.0], [0.0]])

    def test_captured_input_changes_nothing(self):
        m = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        out = extend(m, np.array([[3.0], [0.0]]), 0.99)
        assert np.array_equal(out.basis, m.basis)

    def test_old_columns_preserved_as_prefix(self):
        gen = np.random.default_rng(3)
        m = extend(SubspaceBasis(6), gen.normal(size=(6, 4)), 0.9)
        before = m.basis.copy()
        m2 = extend(m, gen.normal(size=(6, 4)), 0.9)
        assert np.array_equal(m2.basis[:, : m.rank], before)

    def test_empty_input(self):
        m = SubspaceBasis(4)
        assert extend(m, np.zeros((4, 0)), 0.9).rank == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            extend(SubspaceBasis(3), np.zeros((4, 2)), 0.9)

    def test_orthonormal_after_fifteen_extends(self):
        gen = np.random.default_rng(23)
        m = SubspaceBasis(32)
        for _ in range(15):
            h = gen.normal(size=(32, 20))
            m = extend(m, h, 0.95)
        assert m.orthonormality_defect() <= 1e-6
        assert m.rank <= 32

    def test_monotone_capture(self):
        gen = np.random.default_rng(31)
        m = extend(SubspaceBasis(8), gen.normal(size=(8, 5)), 0.9)
        h = gen.normal(size=(8, 6))
        m2 = extend(m, h, 0.9)
        for j in range(h.shape[1]):
            col = h[:, j : j + 1]
            after = np.linalg.norm(project_out(m2, col))
            before = np.linalg.norm(project_out(m, col))
            assert after <= before + 1e-9

    def test_eps_one_captures_exactly_representable_inputs(self):
        gen = np.random.default_rng(41)
        m = SubspaceBasis(10)
        h = gen.normal(size=(10, 6))
        m = extend(m, h, 1.0)
        for j in range(6):
            res = project_out(m, h[:, j : j + 1])
            assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(h[:, j])


class TestSubspaceMemory:
    def test_layer_dims(self):
        mem = SubspaceMemory([8, 4, 8], 0.9)
        assert mem.layer_dims == [8, 4, 8]
        assert all(b.rank == 0 for b in mem.layers)

    def test_extend_all(self):
        gen = np.random.default_rng(2)
        mem = SubspaceMemory([6, 3], 1.0)
        mem.extend_all([gen.normal(size=(6, 4)), gen.normal(size=(3, 4))])
        assert mem.layers[0].rank == 4
        assert mem.layers[1].rank == 3

    def test_extend_all_requires_matching_layers(self):
        mem = SubspaceMemory([6, 3], 1.0)
        with pytest.raises(DimMismatch):
            mem.extend_all([np.zeros((6, 1))])

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            SubspaceMemory([4], 1.0001)
