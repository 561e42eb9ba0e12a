import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.adapter import (
    AdaptedLinear,
    LoraBranch,
    expand_branch,
    inflora_design,
    olora_gram,
)
from gatedlora.errors import NoFreeSubspace, ShapeMismatch
from gatedlora.numerics import Rng, sym_eig
from gatedlora.optim import AdamW
from gatedlora.subspace import SubspaceBasis, factor

import graph as gr
from conftest import (
    assert_close_rel,
    branch_sum,
    finite_difference,
    penalty_chain,
    total,
    upstream,
)


def fresh_layer(rng, d_out=5, d_in=4):
    return AdaptedLinear(rng.normal(d_out, d_in, 1.0))


# Value-form references for the adapted layer and the O-LoRA penalty, which
# the package's forward and penalty gradient are checked against.


def delta(branch):
    """The branch's weight update, up @ down."""
    return branch.up.value @ branch.down_value


def integrate(branches, coeffs):
    """Coefficient-weighted sum of branch products."""
    if len(coeffs) != len(branches):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(branches)} branches")
    for a_i in coeffs:
        if not 0.0 <= a_i <= 1.0:
            raise ValueError(f"integration coefficient {a_i} outside [0, 1]")
    if not branches:
        raise ShapeMismatch("integrate needs at least one branch for its shape")
    summed = np.zeros((branches[0].up.value.shape[0], branches[0].down_value.shape[1]))
    for a_i, branch in zip(coeffs, branches):
        summed += a_i * delta(branch)
    return summed


def adapted_forward(layer, coeffs, h):
    """W h plus the coefficient-weighted branch contributions."""
    fixed = np.array([np.full((1, h.shape[1]), a) for a in coeffs])
    return layer.forward(fixed, None, h)[0]


def olora_penalty(branches, lam):
    """lam * sum of squared row-space overlaps of the newest branch with
    every frozen one; zero when the row spaces are mutually orthogonal."""
    if lam < 0:
        raise ValueError(f"penalty weight must be >= 0, got {lam}")
    if len(branches) <= 1:
        return 0.0
    new = branches[-1].down_value
    overlap_sq = 0.0
    for old in branches[:-1]:
        overlap = old.down_value @ new.T
        overlap_sq += float(np.sum(overlap * overlap))
    return lam * overlap_sq


def olora_penalty_per_step(branches, lam):
    """The penalty as a graph node with its Gram matrix rebuilt from the
    branches, as a training step once built it on every call."""
    gram = np.zeros((branches[0].down_value.shape[1],) * 2)
    for old in branches[:-1]:
        gram += old.down_value.T @ old.down_value
    return penalty_chain(branches[-1].down, gram, lam)


def frozen_layer(branches):
    """A zero-weight layer holding `branches`, oldest first, all frozen."""
    up, down = branches[0].up.value, branches[0].down_value
    layer = AdaptedLinear(np.zeros((len(up), down.shape[1])))
    for branch in branches:
        layer.branch = branch
        layer.freeze()
    return layer


class TestIntegrate:
    def test_zero_init_branch_gives_zero(self, rng):
        layer = fresh_layer(rng)
        b = expand_branch(layer, 2, rng.child("b"))
        assert np.max(np.abs(integrate([b], [1.0]))) == 0.0

    def test_all_coefficients_zero(self, rng):
        layer = fresh_layer(rng)
        b = expand_branch(layer, 2, rng.child("b"))
        b.up.value[:] = rng.normal(5, 2, 1.0)
        assert np.max(np.abs(integrate([b], [0.0]))) == 0.0

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
        branches = []
        for tag in "ab":
            branches.append(expand_branch(layer, 2, rng.child(tag)))
            branches[-1].up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 6, 1.0)
        coeffs = [0.3, 0.9]
        via_sum = adapted_forward(layer, coeffs, h)
        via_integrated = (layer.weight + integrate(branches, coeffs)) @ h
        assert np.max(np.abs(via_sum - via_integrated)) <= 1e-12

    def test_unit_coefficients_reduce_to_plain_addition(self, rng):
        layer = fresh_layer(rng)
        branches = []
        for tag in "ab":
            branches.append(expand_branch(layer, 2, rng.child(tag)))
            branches[-1].up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 3, 1.0)
        plain = layer.weight @ h + sum(delta(b) @ h for b in branches)
        assert np.allclose(adapted_forward(layer, [1.0, 1.0], h), plain)

    def test_node_path_matches_value_path(self, rng):
        layer = fresh_layer(rng)
        br = expand_branch(layer, 2, rng.child("b"))
        br.up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 3, 1.0)
        coeffs = rng.uniform(3).reshape(1, 3)
        out, _ = layer.forward(np.empty((0, 1, 3)), coeffs, h)
        vals = layer.weight @ h + coeffs * (br.up.value @ (br.down.value @ h))
        assert np.allclose(out, vals, atol=1e-14)

    @pytest.mark.parametrize("n_fixed, live", [(1, True), (1, False), (3, False), (2, True)])
    def test_refuses_misplaced_coefficients(self, rng, n_fixed, live):
        # Two frozen branches and no trainable one take two fixed rows.
        # One fixed row and a live one are two coefficients, but the live
        # one would weight a frozen branch; the others miscount.
        layer = fresh_layer(rng)
        for tag in "ab":
            expand_branch(layer, 2, rng.child(tag))
        layer.freeze()
        h = rng.normal(4, 3, 1.0)
        layer.forward(np.ones((2, 1, 3)), None, h)
        with pytest.raises(ShapeMismatch, match="coefficients for 2 frozen"):
            layer.forward(np.ones((n_fixed, 1, 3)), np.ones((1, 3)) if live else None, h)

    @pytest.mark.parametrize(
        "case, folded",
        [
            ("live_gate", 4),
            ("ungated", 4),
            ("inflora", 4),
            ("mixed_rank", 2),
        ],
    )
    def test_fused_frozen_part_matches_per_branch_oracle(self, rng, case, folded):
        # Four frozen branches, then the trainable one. W h and the frozen
        # branches are one `lowrank_sum`, and the trainable branch is one
        # term more; value and every gradient `backward` gives are
        # byte-equal to the graph `branch_sum`, whose frozen part is one
        # chain over the branches' own halves, as `expand_branch` returned
        # them. Gated, the trainable branch's coefficient is the live one;
        # ungated, every coefficient is a fixed 1. In mixed_rank a third
        # branch of another rank is refused before the layer changes: its
        # two branches stay, the second still trainable.
        d, n = 16, 12
        layer = AdaptedLinear(rng.normal(d, d, 1.0))
        branches = []
        for t in range(5):
            if case == "mixed_rank" and t == 2:
                with pytest.raises(ShapeMismatch, match="rank 3"):
                    expand_branch(layer, 3, rng.child(f"b{t}"))
                assert layer.n_branches == folded
                assert layer.branch is branches[-1]
                return
            rows = rng.normal(2, d, 1.0) if case == "inflora" and t == 4 else None
            branches.append(expand_branch(layer, 2, rng.child(f"b{t}"), designed_down=rows))
            branches[-1].up.value[:] = rng.normal(d, 2, 1.0)
        if case == "ungated":
            fixed, live = np.ones((5, 1, n)), None
            coeffs = list(fixed)
        else:
            rows = np.array([rng.uniform(n).reshape(1, n) for _ in range(5)])
            fixed, live = rows[:4], rows[4]
            coeffs = list(fixed) + [gr.parameter(live)]
        h_value = rng.normal(d, n, 1.0)
        params = layer.branch.trainable_params()

        def loss(out):
            return total(gr.sigmoid(out))

        out, cache = layer.forward(fixed, live, h_value)
        assert len(cache.fused[0]) == folded and cache.term[1] is layer.branch
        dh, dlive = layer.backward(cache, upstream(out, loss), True)
        assert (dlive is None) == (live is None)
        got = [out, dh] + [p.grad for p in params] + ([] if live is None else [dlive])

        h = gr.parameter(h_value)
        oracle = branch_sum(layer, branches, coeffs, h)
        gr.backward(loss(oracle))
        want = [oracle.value, h.grad] + [p.grad for p in params]
        want += [a.grad for a in coeffs if not isinstance(a, np.ndarray)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestOloraPenalty:
    def test_single_branch_penalty_zero(self):
        branch = LoraBranch(np.zeros((3, 1)), np.ones((1, 3)))
        assert olora_penalty([branch], 0.5) == 0.0
        layer = AdaptedLinear(np.zeros((3, 3)))
        layer.branch = branch
        assert olora_gram(layer) is None

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

        grad = ad.row_space_penalty_grad(new_rows, olora_gram(frozen_layer(old)), lam)
        numeric = finite_difference(lambda ps: value_of(ps[0]), [new_rows.copy()])
        assert_close_rel(grad, numeric[0], rel=1e-4, floor=1e-6)

    def test_task_gram_matches_per_step_rebuild(self, rng):
        # One Gram built before training serves every step: the gradient's
        # bytes equal the per-step rebuild's while the newest branch trains.
        layer = fresh_layer(rng)
        branches = [expand_branch(layer, 2, rng.child(tag)) for tag in "abc"]
        down = layer.branch.down
        gram = olora_gram(layer)
        opt = AdamW([down], lr=1e-1)
        for _ in range(5):
            gr.backward(olora_penalty_per_step(branches, 0.7))
            oracle_grad = down.grad
            down.grad = ad.row_space_penalty_grad(down.value, gram, 0.7)
            assert down.grad.tobytes() == oracle_grad.tobytes()
            opt.step()
        assert olora_gram(layer).tobytes() == gram.tobytes()


class TestInfloraDesign:
    def test_empty_protected_space_gives_principal_directions(self, rng):
        h = rng.normal(5, 40, 1.0)
        rows = inflora_design(factor(SubspaceBasis(5), h), 2)
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
        rows = inflora_design(factor(protected, h), 3)
        assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-8)
        assert np.max(np.abs(rows @ q)) <= 1e-8

    def test_full_protected_space_raises(self):
        protected = SubspaceBasis(4, np.eye(4))
        with pytest.raises(NoFreeSubspace):
            inflora_design(factor(protected, np.ones((4, 3))), 1)

    def test_degenerate_inputs_with_protected_space(self):
        # inputs excite one free direction plus the protected span, rank 3
        # requested: the other two rows come from the free complement
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 2)))
        protected = SubspaceBasis(6, q)
        v = np.random.default_rng(2).normal(size=6)
        v -= q @ (q.T @ v)
        v /= np.linalg.norm(v)
        h = np.outer(v, np.arange(1.0, 6.0)) + q @ np.ones((2, 5))
        rows = inflora_design(factor(protected, h), 3)
        assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-10)
        assert np.max(np.abs(rows @ q)) <= 1e-10
        assert abs(rows[0] @ v) == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(rows, inflora_design(factor(protected, h), 3))

    def test_degenerate_inputs_completed_deterministically(self):
        # new inputs excite one direction only, rank 2 requested
        h = np.outer(np.array([1.0, 0, 0, 0]), np.ones(5))
        rows = inflora_design(factor(SubspaceBasis(4), h), 2)
        assert np.allclose(rows @ rows.T, np.eye(2), atol=1e-10)
        again = inflora_design(factor(SubspaceBasis(4), h), 2)
        assert np.array_equal(rows, again)


def train_step(layer, fixed, h):
    """Set the gradients of the mean of SiLU over the layer's output on its
    trainable branch halves."""
    out, cache = layer.forward(fixed, None, h)
    layer.backward(cache, upstream(out, lambda o: total(gr.silu(o))), False)


class TestExpandBranch:
    def test_expansion_is_noop_on_outputs(self, rng):
        # The new branch's zero up adds exactly 0. Its expansion also
        # freezes the old branch, which moves it from an `add_branch` term
        # (scaled after its up-product) into the frozen part (scaled before
        # it): the same sum to rounding, within the bound that
        # test_lowrank_sum_matches_per_term_chain derives, here with
        # d = 4, k = 1 and r = 2.
        layer = fresh_layer(rng)
        br = expand_branch(layer, 2, rng.child("a"))
        br.up.value[:] = rng.normal(5, 2, 1.0)
        h = rng.normal(4, 3, 1.0)
        fixed = np.full((1, 1, 3), 0.7)
        before, _ = layer.forward(fixed, None, h)
        expand_branch(layer, 2, rng.child("b"))
        after, _ = layer.forward(fixed, np.ones((1, 3)), h)
        frozen = ad.lowrank_sum(h, layer.weight, fixed, br.up.value, br.down.value)
        assert after.tobytes() == frozen.tobytes()
        u = np.finfo(np.float64).eps / 2
        p = 4 + 1 * 2 + 2
        magnitude = np.abs(layer.weight) @ np.abs(h) + 0.7 * (
            np.abs(br.up.value) @ (np.abs(br.down.value) @ np.abs(h))
        )
        assert np.all(np.abs(after - before) <= 2 * p * u / (1 - p * u) * magnitude)

    def test_freeze_moves_the_branch_into_the_stacks(self, rng):
        # `freeze` appends the trainable branch's halves, byte for byte, to
        # `ups` (as columns) and `downs` (as rows) after the branches
        # frozen before it, and leaves no trainable branch; a second
        # `freeze` changes nothing.
        layer = fresh_layer(rng)
        held = []
        for tag in "ab":
            branch = expand_branch(layer, 2, rng.child(tag))
            branch.up.value[:] = rng.normal(5, 2, 1.0)
            held.append((branch.up.value.copy(), branch.down.value.copy()))
            layer.freeze()
            assert layer.branch is None
            assert layer.frozen_count == len(held)
        want_ups = np.concatenate([up for up, _ in held], axis=1)
        want_downs = np.concatenate([down for _, down in held])
        assert (layer.ups.shape, layer.downs.shape) == ((5, 4), (4, 4))
        assert layer.ups.tobytes() == want_ups.tobytes()
        assert layer.downs.tobytes() == want_downs.tobytes()
        ups, downs = layer.ups, layer.downs
        layer.freeze()
        assert (layer.ups, layer.downs, layer.branch, layer.frozen_count) == (ups, downs, None, 2)

    def test_previous_branches_frozen(self, rng):
        # Expanding freezes the trainable branch: its halves move to the
        # stacks and none of them trains any more.
        layer = fresh_layer(rng)
        first = expand_branch(layer, 2, rng.child("a"))
        assert layer.branch is first and layer.frozen_count == 0
        second = expand_branch(layer, 2, rng.child("b"))
        assert layer.branch is second and layer.frozen_count == 1
        assert layer.ups.tobytes() == first.up.value.tobytes()
        assert layer.downs.tobytes() == first.down.value.tobytes()
        trainable = {id(p) for p in second.trainable_params()}
        assert not trainable & {id(first.up), id(first.down)}

    def test_refuses_another_rank_after_a_freeze(self, rng):
        # The layer's rank outlives its trainable branch: once that branch
        # is frozen, a branch of another rank is still refused, and the
        # layer is left as it was.
        layer = fresh_layer(rng)
        expand_branch(layer, 2, rng.child("a"))
        layer.freeze()
        with pytest.raises(ShapeMismatch, match="rank 3"):
            expand_branch(layer, 3, rng.child("b"))
        assert (layer.frozen_count, layer.branch, layer.downs.shape) == (1, None, (2, 4))

    def test_designed_rows_are_frozen(self, rng):
        layer = fresh_layer(rng)
        rows = np.vstack([np.eye(4)[:2]])
        br = expand_branch(layer, 2, rng.child("a"), designed_down=rows)
        assert br.trainable_params() == [br.up]
        assert np.array_equal(br.down, rows) and not np.shares_memory(br.down, rows)

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
        ones = np.ones((2, 1, 6))
        for _ in range(25):
            train_step(layer, ones, h)
            opt.step()
        assert (layer.ups.tobytes(), layer.downs.tobytes()) == frozen_bytes

    def test_designed_rows_fixed_during_training(self, rng):
        layer = fresh_layer(rng)
        h_new = rng.normal(4, 20, 1.0)
        rows = inflora_design(factor(SubspaceBasis(4), h_new), 2)
        br = expand_branch(layer, 2, rng.child("a"), designed_down=rows)
        opt = AdamW(br.trainable_params(), lr=1e-2)
        for _ in range(25):
            train_step(layer, np.ones((1, 1, 20)), h_new)
            opt.step()
        assert np.array_equal(br.down, rows)
        assert np.max(np.abs(br.up.value)) > 0  # the trainable half moved
