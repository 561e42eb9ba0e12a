import numpy as np
import pytest

from gatedlora.adapter import inflora_design
from gatedlora.errors import DimMismatch, ThresholdUnreachable
from gatedlora.numerics import sym_eig
from gatedlora.subspace import (
    SubspaceBasis,
    SubspaceMemory,
    choose_rank,
    extend,
    factor,
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
        out = extend(factor(m, h), 1.0)
        assert out.rank == 2
        assert np.allclose(np.abs(out.basis), np.eye(2))

    def test_partial_capture_takes_leading_direction(self):
        m = SubspaceBasis(2)
        out = extend(factor(m, np.diag([2.0, 1.0])), 0.8)
        # residual covariance eigenvalues (4, 1): one direction reaches 4 >= 0.8*5
        assert out.rank == 1
        assert np.allclose(np.abs(out.basis), [[1.0], [0.0]])

    def test_captured_input_changes_nothing(self):
        m = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        out = extend(factor(m, np.array([[3.0], [0.0]])), 0.99)
        assert np.array_equal(out.basis, m.basis)

    def test_old_columns_preserved_as_prefix(self):
        gen = np.random.default_rng(3)
        m = extend(factor(SubspaceBasis(6), gen.normal(size=(6, 4))), 0.9)
        before = m.basis.copy()
        m2 = extend(factor(m, gen.normal(size=(6, 4))), 0.9)
        assert np.array_equal(m2.basis[:, : m.rank], before)

    def test_empty_input(self):
        m = SubspaceBasis(4)
        assert extend(factor(m, np.zeros((4, 0))), 0.9).rank == 0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            extend(factor(SubspaceBasis(3), np.zeros((4, 2))), 0.9)

    def test_orthonormal_after_fifteen_extends(self):
        gen = np.random.default_rng(23)
        m = SubspaceBasis(32)
        for _ in range(15):
            h = gen.normal(size=(32, 20))
            m = extend(factor(m, h), 0.95)
        assert m.orthonormality_defect() <= 1e-6
        assert m.rank <= 32

    def test_monotone_capture(self):
        gen = np.random.default_rng(31)
        m = extend(factor(SubspaceBasis(8), gen.normal(size=(8, 5))), 0.9)
        h = gen.normal(size=(8, 6))
        m2 = extend(factor(m, h), 0.9)
        for j in range(h.shape[1]):
            col = h[:, j : j + 1]
            after = np.linalg.norm(project_out(m2, col))
            before = np.linalg.norm(project_out(m, col))
            assert after <= before + 1e-9

    def test_eps_one_captures_exactly_representable_inputs(self):
        gen = np.random.default_rng(41)
        m = SubspaceBasis(10)
        h = gen.normal(size=(10, 6))
        m = extend(factor(m, h), 1.0)
        for j in range(6):
            res = project_out(m, h[:, j : j + 1])
            assert np.linalg.norm(res) <= 1e-6 * np.linalg.norm(h[:, j])


def basis_and_input(seed=3):
    """A basis of rank 2 in R^8 and an (8, 5) input."""
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(8, 2)))
    return SubspaceBasis(8, q), gen.normal(size=(8, 5))


class TestFactor:
    def test_holds_its_basis_the_eigensolve_and_the_energy_sums(self):
        m, h = basis_and_input()
        f = factor(m, h)
        assert f.basis is m
        residual = h - m.basis @ (m.basis.T @ h)
        evals, evecs = sym_eig(residual @ residual.T)
        assert (f.evals.tobytes(), f.evecs.tobytes()) == (evals.tobytes(), evecs.tobytes())
        assert f.total_sq == float(np.sum(h * h))
        assert f.captured_sq == f.total_sq - float(np.sum(residual * residual))
        assert f.captured_sq == pytest.approx(float(np.sum((m.basis.T @ h) ** 2)), rel=1e-12)

    def test_one_factorization_serves_design_and_extend(self, eigensolves):
        m, h = basis_and_input()
        before = m.basis.copy()
        f = factor(m, h)
        rows = inflora_design(f, 2)
        grown = extend(f, 0.9)
        assert len(eigensolves) == 1
        assert rows.tobytes() == inflora_design(factor(m, h.copy()), 2).tobytes()
        again = extend(factor(m, h.copy()), 0.9)
        assert again is not grown
        assert grown.basis.tobytes() == again.basis.tobytes()
        assert np.array_equal(m.basis, before)


class TestSubspaceMemory:
    def test_layer_dims(self):
        mem = SubspaceMemory([8, 4, 8], 0.9)
        assert mem.layer_dims == [8, 4, 8]
        assert all(b.rank == 0 for b in mem.layers)

    def test_extend_all(self):
        gen = np.random.default_rng(2)
        mem = SubspaceMemory([6, 3], 1.0)
        inputs = [gen.normal(size=(6, 4)), gen.normal(size=(3, 4))]
        mem.extend_all([factor(b, h) for b, h in zip(mem.layers, inputs)])
        assert mem.layers[0].rank == 4
        assert mem.layers[1].rank == 3

    def test_extend_all_requires_matching_layers(self):
        mem = SubspaceMemory([6, 3], 1.0)
        with pytest.raises(DimMismatch):
            mem.extend_all([factor(mem.layers[0], np.zeros((6, 1)))])

    def test_extend_all_refuses_a_factorization_of_another_basis(self):
        gen = np.random.default_rng(4)
        mem = SubspaceMemory([6, 3], 1.0)
        layers = list(mem.layers)
        # Equal columns, another basis: the memory grows only what was
        # factored against its own layers.
        twin = SubspaceBasis(3, mem.layers[1].basis.copy())
        factors = [
            factor(mem.layers[0], gen.normal(size=(6, 4))),
            factor(twin, gen.normal(size=(3, 4))),
        ]
        with pytest.raises(ValueError, match="layer 1's factorization"):
            mem.extend_all(factors)
        assert all(a is b for a, b in zip(mem.layers, layers))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            SubspaceMemory([4], 1.0001)
