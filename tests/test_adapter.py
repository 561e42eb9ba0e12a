import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.adapter import (
    AdaptedLinear,
    LoraBranch,
    expand_branch,
    inflora_design,
    olora_penalty_node,
)
from gatedlora.errors import NoFreeSubspace, ShapeMismatch
from gatedlora.numerics import Rng, sym_eig
from gatedlora.optim import AdamW
from gatedlora.subspace import SubspaceBasis

from conftest import assert_close_rel, finite_difference, total


def fresh_layer(rng, d_out=5, d_in=4):
    return AdaptedLinear(rng.normal(d_out, d_in, 1.0))


# Value-form references for the adapted layer and the O-LoRA penalty: the
# package computes both only as graph nodes, and these are what the node
# paths are checked against.


def delta(branch):
    """The branch's weight update, up @ down."""
    return branch.up.value @ branch.down.value


def integrate(branches, coeffs):
    """Coefficient-weighted sum of branch products."""
    if len(coeffs) != len(branches):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(branches)} branches")
    for a_i in coeffs:
        if not 0.0 <= a_i <= 1.0:
            raise ValueError(f"integration coefficient {a_i} outside [0, 1]")
    if not branches:
        raise ShapeMismatch("integrate needs at least one branch for its shape")
    summed = np.zeros((branches[0].up.value.shape[0], branches[0].down.value.shape[1]))
    for a_i, branch in zip(coeffs, branches):
        summed += a_i * delta(branch)
    return summed


def adapted_forward(layer, coeffs, h):
    """W h plus the coefficient-weighted branch contributions."""
    rows = [ad.constant(np.full((1, h.shape[1]), a)) for a in coeffs]
    with ad.no_grad():
        out = layer.forward_node(rows, ad.constant(h))
    return out.value


def olora_penalty(branches, lam):
    """lam * sum of squared row-space overlaps of the newest branch with
    every frozen one; zero when the row spaces are mutually orthogonal."""
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if len(branches) <= 1:
        return 0.0
    new = branches[-1].down.value
    overlap_sq = 0.0
    for old in branches[:-1]:
        overlap = old.down.value @ new.T
        overlap_sq += float(np.sum(overlap * overlap))
    return lam * overlap_sq


class TestIntegrate:
    def test_zero_init_branch_gives_zero(self, rng):
        layer = fresh_layer(rng)
        expand_branch(layer, 2, rng.child("b"))
        assert np.max(np.abs(integrate(layer.branches, [1.0]))) == 0.0

    def test_all_coefficients_zero(self, rng):
        layer = fresh_layer(rng)
        b = expand_branch(layer, 2, rng.child("b"))
        b.up.value[:] = rng.normal(5, 2, 1.0)
        assert np.max(np.abs(integrate(layer.branches, [0.0]))) == 0.0

    def test_hand_product(self):
        branch = LoraBranch(np.array([[1.0], [0.0]]), np.array([[2.0, 0.0]]))
        out = integrate([branch], [0.5])
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_coefficient_range_enforced(self):
        branch = LoraBranch(np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            integrate([branch], [1.5])

    def test_length_mismatch(self):
        branch = LoraBranch(np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ShapeMismatch):
            integrate([branch], [0.5, 0.5])


class TestAdaptedForward:
    def test_zero_branches_is_frozen_weight(self, rng):
        layer = fresh_layer(rng)
        expand_branch(layer, 2, rng.child("b"))
        h = rng.normal(4, 3, 1.0)
        assert np.allclose(adapted_forward(layer, [1.0], h), layer.weight @ h)

    def test_matches_integrate_then_multiply(self, rng):
        layer = fresh_layer(rng)
        for tag in "ab":
            br = expand_branch(layer, 2, rng.child(tag))
            br.up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 6, 1.0)
        coeffs = [0.3, 0.9]
        via_sum = adapted_forward(layer, coeffs, h)
        via_integrated = (layer.weight + integrate(layer.branches, coeffs)) @ h
        assert np.max(np.abs(via_sum - via_integrated)) <= 1e-12

    def test_unit_coefficients_reduce_to_plain_addition(self, rng):
        layer = fresh_layer(rng)
        for tag in "ab":
            br = expand_branch(layer, 2, rng.child(tag))
            br.up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 3, 1.0)
        plain = layer.weight @ h + sum(delta(b) @ h for b in layer.branches)
        assert np.allclose(adapted_forward(layer, [1.0, 1.0], h), plain)

    def test_node_path_matches_value_path(self, rng):
        layer = fresh_layer(rng)
        br = expand_branch(layer, 2, rng.child("b"))
        br.up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 3, 1.0)
        coeffs = rng.uniform(3).reshape(1, 3)
        node = layer.forward_node([ad.constant(coeffs)], ad.constant(h))
        vals = layer.weight @ h + coeffs * (br.up.value @ (br.down.value @ h))
        assert np.allclose(node.value, vals, atol=1e-14)


class TestOloraPenalty:
    def test_single_branch_penalty_zero(self):
        branch = LoraBranch(np.zeros((3, 1)), np.ones((1, 3)))
        assert olora_penalty([branch], 0.5) == 0.0
        assert olora_penalty_node([branch], 0.5) is None

    def test_orthogonal_rows_zero(self):
        b1 = LoraBranch(np.zeros((3, 1)), np.array([[1.0, 0.0, 0.0]]))
        b2 = LoraBranch(np.zeros((3, 1)), np.array([[0.0, 1.0, 0.0]]))
        assert olora_penalty([b1, b2], 1.0) == 0.0

    def test_identical_unit_rows(self):
        b1 = LoraBranch(np.zeros((2, 1)), np.array([[1.0, 0.0]]))
        b2 = LoraBranch(np.zeros((2, 1)), np.array([[1.0, 0.0]]))
        assert olora_penalty([b1, b2], 1.0) == pytest.approx(1.0)

    def test_zero_iff_row_products_vanish(self, rng):
        for trial in range(30):
            gen = rng.child(f"t{trial}")
            rows = [gen.normal(2, 5, 1.0) for _ in range(3)]
            branches = [LoraBranch(np.zeros((4, 2)), r) for r in rows]
            pen = olora_penalty(branches, 1.0)
            products = [rows[i] @ rows[-1].T for i in range(2)]
            vanish = all(np.max(np.abs(p)) <= 1e-10 for p in products)
            assert (pen <= 1e-20) == vanish

    def test_node_matches_value_and_finite_difference(self, rng):
        old = [LoraBranch(np.zeros((3, 2)), rng.child(t).normal(2, 4, 1.0)) for t in "ab"]
        new_rows = rng.child("new").normal(2, 4, 1.0)
        lam = 0.7

        def value_of(rows):
            branches = old + [LoraBranch(np.zeros((3, 2)), rows)]
            return olora_penalty(branches, lam)

        branches = old + [LoraBranch(np.zeros((3, 2)), new_rows)]
        node = olora_penalty_node(branches, lam)
        assert node.value[0, 0] == pytest.approx(value_of(new_rows), rel=1e-12)
        ad.backward(node)
        numeric = finite_difference(lambda ps: value_of(ps[0]), [new_rows.copy()])
        assert_close_rel(branches[-1].down.grad, numeric[0], rel=1e-4, floor=1e-6)


class TestInfloraDesign:
    def test_empty_protected_space_gives_principal_directions(self, rng):
        h = rng.normal(5, 40, 1.0)
        rows = inflora_design(h, SubspaceBasis(5), 2)
        evals, evecs = sym_eig(h @ h.T)
        for j in range(2):
            # principal directions up to sign
            dot = abs(rows[j] @ evecs[:, j])
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_rows_orthonormal_and_orthogonal_to_protected(self, rng):
        gen = np.random.default_rng(0)
        q, _ = np.linalg.qr(gen.normal(size=(6, 2)))
        protected = SubspaceBasis(6, q)
        h = rng.normal(6, 30, 1.0)
        rows = inflora_design(h, protected, 3)
        assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-8)
        assert np.max(np.abs(rows @ q)) <= 1e-8

    def test_full_protected_space_raises(self):
        protected = SubspaceBasis(4, np.eye(4))
        with pytest.raises(NoFreeSubspace):
            inflora_design(np.ones((4, 3)), protected, 1)

    def test_degenerate_inputs_with_protected_space(self):
        # inputs excite one free direction plus the protected span, rank 3
        # requested: the other two rows come from the free complement
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 2)))
        protected = SubspaceBasis(6, q)
        v = np.random.default_rng(2).normal(size=6)
        v -= q @ (q.T @ v)
        v /= np.linalg.norm(v)
        h = np.outer(v, np.arange(1.0, 6.0)) + q @ np.ones((2, 5))
        rows = inflora_design(h, protected, 3)
        assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-10)
        assert np.max(np.abs(rows @ q)) <= 1e-10
        assert abs(rows[0] @ v) == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(rows, inflora_design(h, protected, 3))

    def test_degenerate_inputs_completed_deterministically(self):
        # new inputs excite one direction only, rank 2 requested
        h = np.outer(np.array([1.0, 0, 0, 0]), np.ones(5))
        rows = inflora_design(h, SubspaceBasis(4), 2)
        assert np.allclose(rows @ rows.T, np.eye(2), atol=1e-10)
        again = inflora_design(h, SubspaceBasis(4), 2)
        assert np.array_equal(rows, again)


class TestExpandBranch:
    def test_expansion_is_noop_on_outputs(self, rng):
        layer = fresh_layer(rng)
        br = expand_branch(layer, 2, rng.child("a"))
        br.up.value[:] = rng.normal(5, 2, 1.0)
        h = ad.constant(rng.normal(4, 3, 1.0))
        before = layer.forward_node([ad.constant(np.full((1, 3), 0.7))], h)
        expand_branch(layer, 2, rng.child("b"))
        coeffs = [ad.constant(np.full((1, 3), a)) for a in (0.7, 1.0)]
        after = layer.forward_node(coeffs, h)
        assert np.array_equal(before.value, after.value)

    def test_previous_branches_frozen(self, rng):
        layer = fresh_layer(rng)
        first = expand_branch(layer, 2, rng.child("a"))
        assert not first.frozen
        expand_branch(layer, 2, rng.child("b"))
        assert first.frozen
        assert not first.up.requires_grad and not first.down.requires_grad

    def test_designed_rows_are_frozen(self, rng):
        layer = fresh_layer(rng)
        rows = np.vstack([np.eye(4)[:2]])
        br = expand_branch(layer, 2, rng.child("a"), designed_down=rows)
        assert br.trainable_params() == [br.up]
        assert np.array_equal(br.down.value, rows)

    def test_invalid_rank(self, rng):
        layer = fresh_layer(rng)
        with pytest.raises(ValueError):
            expand_branch(layer, 9, rng.child("a"))

    def test_frozen_branch_bytes_survive_training(self, rng):
        layer = fresh_layer(rng)
        first = expand_branch(layer, 2, rng.child("a"))
        first.up.value[:] = rng.normal(5, 2, 1.0)
        frozen_bytes = (first.up.value.tobytes(), first.down.value.tobytes())
        second = expand_branch(layer, 2, rng.child("b"))
        opt = AdamW(second.trainable_params(), lr=1e-2)
        h = rng.normal(4, 6, 1.0)
        ones = ad.constant(np.ones((1, 6)))
        for _ in range(25):
            out = layer.forward_node([ones, ones], ad.constant(h))
            ad.backward(total(ad.silu(out)))
            opt.step()
        assert (first.up.value.tobytes(), first.down.value.tobytes()) == frozen_bytes

    def test_designed_rows_fixed_during_training(self, rng):
        layer = fresh_layer(rng)
        h_new = rng.normal(4, 20, 1.0)
        rows = inflora_design(h_new, SubspaceBasis(4), 2)
        br = expand_branch(layer, 2, rng.child("a"), designed_down=rows)
        opt = AdamW(br.trainable_params(), lr=1e-2)
        for _ in range(25):
            out = layer.forward_node([ad.constant(np.ones((1, 20)))], ad.constant(h_new))
            ad.backward(total(ad.silu(out)))
            opt.step()
        assert np.array_equal(br.down.value, rows)
        assert np.max(np.abs(br.up.value)) > 0  # the trainable half moved
