import zlib

import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.errors import NonScalarLoss, ShapeMismatch

from conftest import assert_close_rel, finite_difference, total


def scalar_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestClosedForms:
    def test_sigmoid_gradient_at_zero(self):
        b = ad.parameter([[0.0]])
        ad.backward(ad.sigmoid(b))
        # sigma'(0) = sigma(0) (1 - sigma(0)) = 0.25
        assert b.grad[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_silu_gradient_at_zero(self):
        x = ad.parameter([[0.0]])
        ad.backward(ad.silu(x))
        # silu'(x) = sigma(x) (1 + x (1 - sigma(x))) -> 0.5 at x = 0
        assert x.grad[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_silu_gradient_generic_point(self):
        x = ad.parameter([[0.7]])
        ad.backward(ad.silu(x))
        s = scalar_sigmoid(0.7)
        assert x.grad[0, 0] == pytest.approx(s * (1 + 0.7 * (1 - s)), abs=1e-12)

    @pytest.mark.parametrize(
        "op, value, slope",
        [(ad.sigmoid, [0.0, 1.0], [0.0, 0.0]), (ad.silu, [0.0, 1000.0], [0.0, 1.0])],
        ids=["sigmoid", "silu"],
    )
    def test_saturates_without_overflow(self, op, value, slope):
        # exp(1000) overflows; under filterwarnings=error a warning fails here
        x = ad.parameter([[-1000.0, 1000.0]])
        out = op(x)
        ad.backward(total(out))
        assert np.array_equal(out.value, [value])
        assert np.array_equal(x.grad, [[s / 2 for s in slope]])


class TestMechanics:
    def test_backward_requires_scalar(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(NonScalarLoss):
            ad.backward(ad.silu(p))

    def test_gradients_reset_between_passes(self):
        p = ad.parameter([[1.0, 2.0]])
        ad.backward(total(ad.silu(p)))
        first = p.grad.copy()
        ad.backward(total(ad.silu(p)))
        assert np.array_equal(p.grad, first)  # re-derived, not accumulated

    def test_diamond_graph_accumulates(self):
        # loss = mean(x + x) so dloss/dx = 2/n per entry
        x = ad.parameter([[1.0, 2.0, 3.0]])
        ad.backward(total(ad.add(x, x)))
        assert np.allclose(x.grad, np.full((1, 3), 2.0 / 3.0))

    def test_constant_receives_no_gradient(self):
        c = ad.constant(np.ones((2, 2)))
        p = ad.parameter(np.ones((2, 2)))
        ad.backward(total(ad.add(c, p)))
        assert c.grad is None
        assert p.grad is not None

    def test_only_parents_needing_gradients_recorded(self):
        p = ad.parameter(np.ones((2, 2)))
        out = ad.matmul(ad.constant(np.ones((2, 2))), p)
        assert out.parents == (p,)
        assert len(out.vjps) == 1

    def test_shared_gradient_not_updated_in_place(self):
        # add's vjp hands one array to both parents, so x's later
        # contribution must not write through it into y's gradient.
        x = ad.parameter([[1.0, 2.0, 3.0]])
        y = ad.parameter([[4.0, 5.0, 6.0]])
        ad.backward(total(ad.add(ad.add(x, y), ad.smul(2.0, x))))
        assert np.array_equal(y.grad, np.full((1, 3), 1.0 / 3.0))
        assert np.array_equal(x.grad, np.ones((1, 3)))

    def test_no_grad_builds_no_graph(self):
        p = ad.parameter(np.ones((2, 2)))
        with ad.no_grad():
            out = ad.silu(ad.matmul(p, p))
        assert not out.requires_grad
        assert out.parents == ()
        assert p.requires_grad  # the leaf itself is untouched

    def test_no_grad_restored_after_exception(self):
        p = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            with ad.no_grad():
                ad.matmul(p, ad.constant(np.ones((3, 1))))
        out = ad.silu(p)
        assert out.requires_grad and out.parents == (p,)

    def test_backward_after_no_grad_matches_finite_difference(self):
        w = np.random.default_rng(3).normal(size=(3, 4))
        p = ad.parameter(w)
        with ad.no_grad():
            total(ad.silu(p))
        ad.backward(total(ad.silu(p)))
        numeric = finite_difference(
            lambda ps: float(total(ad.silu(ad.parameter(ps[0]))).value[0, 0]),
            [w.copy()],
        )
        assert_close_rel(p.grad, numeric[0], rel=1e-4, floor=1e-5)

    def test_shape_checks(self):
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            ad.add(a, b)
        with pytest.raises(ShapeMismatch):  # no column-bias broadcast
            ad.add(a, ad.parameter(np.ones((2, 1))))
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, a)
        with pytest.raises(ShapeMismatch):
            ad.scale_columns(ad.parameter(np.ones((1, 2))), a)
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy(ad.parameter(np.ones((3, 2))), np.array([0, 3]))

    @pytest.mark.parametrize(
        "weight, term",
        [
            ((5, 2), ((1, 4), (5, 2), (2, 3))),  # h rows != weight columns
            ((5, 3), ((1, 4), (5, 2), (2, 4))),  # down columns != h rows
            ((5, 3), ((1, 4), (5, 3), (2, 3))),  # up and down ranks differ
            ((5, 3), ((1, 4), (4, 2), (2, 3))),  # up rows != weight rows
            ((5, 3), ((1, 3), (5, 2), (2, 3))),  # coefficient not (1, n)
            ((5, 3), ((4, 1), (5, 2), (2, 3))),
        ],
        ids=["weight", "down", "rank", "up", "coeff_cols", "coeff_rows"],
    )
    def test_lowrank_sum_shape_checks(self, weight, term):
        h = ad.parameter(np.ones((3, 4)))
        ok = tuple(np.ones(s) for s in ((1, 4), (5, 2), (2, 3)))
        with pytest.raises(ShapeMismatch):
            ad.lowrank_sum(h, np.ones(weight), [ok, tuple(np.ones(s) for s in term)])


def _away_from(x, bad, dist=1e-3):
    """Nudge entries off a non-differentiable point so FD is valid there."""
    x = x.copy()
    x[np.abs(x - bad) < dist] += 2 * dist
    return x


# name -> (param shapes, graph builder taking parameter NODES).
# Each builder wraps the op under test in a small mixed graph so the
# chain rule is exercised, not just the local derivative.
_LABELS = np.array([0, 2, 1, 0, 2, 1])
_METRIC_SEED = np.random.default_rng(7).normal(size=(4, 4))
_METRIC = _METRIC_SEED @ _METRIC_SEED.T
# A frozen (5, 3) weight and three frozen rank-2 terms with (1, 4)
# coefficients, for lowrank_sum.
_LOWRANK = np.random.default_rng(11)
_WEIGHT = _LOWRANK.normal(size=(5, 3))
_TERMS = [
    (
        _LOWRANK.uniform(size=(1, 4)),
        _LOWRANK.normal(size=(5, 2)),
        _LOWRANK.normal(size=(2, 3)),
    )
    for _ in range(3)
]

OP_CASES = {
    "matmul": (
        [(3, 4), (4, 2)],
        lambda a, b: total(ad.silu(ad.matmul(a, b))),
    ),
    "add_same_shape": (
        [(3, 2), (3, 2)],
        lambda a, b: total(ad.sigmoid(ad.add(a, b))),
    ),
    "smul": ([(2, 3)], lambda a: total(ad.smul(-1.7, ad.silu(a)))),
    "scale_columns": (
        [(1, 4), (3, 4)],
        lambda s, a: total(ad.scale_columns(ad.sigmoid(s), a)),
    ),
    "sigmoid": ([(3, 3)], lambda a: total(ad.sigmoid(a))),
    "silu": ([(3, 3)], lambda a: total(ad.silu(a))),
    "absval": ([(3, 3)], lambda a: total(ad.absval(a))),
    "sine": ([(3, 3)], lambda a: total(ad.sine(a))),
    "clip_upper": ([(3, 3)], lambda a: total(ad.clip_upper(a, 1.0))),
    "softmax_cross_entropy": (
        [(3, 6)],
        lambda a: ad.softmax_cross_entropy(a, _LABELS),
    ),
    "lowrank_sum": (
        [(3, 4)],
        lambda h: total(ad.silu(ad.lowrank_sum(ad.sine(h), _WEIGHT, _TERMS))),
    ),
    "row_space_penalty": (
        [(2, 4)],
        lambda a: ad.row_space_penalty(a, _METRIC),
    ),
}

_KINKS = {"absval": 0.0, "clip_upper": 1.0}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_finite_difference_per_op(name):
    shapes, builder = OP_CASES[name]
    # crc32, not hash(): str hashes are salted per process, so the draws
    # would differ between runs and a failure could not be reproduced.
    gen = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(20):
        arrays = [gen.normal(size=s) for s in shapes]
        if name in _KINKS:
            arrays = [_away_from(a, _KINKS[name]) for a in arrays]
        nodes = [ad.parameter(a) for a in arrays]
        ad.backward(builder(*nodes))
        analytic = [n.grad for n in nodes]

        def evaluate(params):
            out = builder(*[ad.parameter(p) for p in params])
            return float(out.value[0, 0])

        numeric = finite_difference(evaluate, [a.copy() for a in arrays])
        for got, want in zip(analytic, numeric):
            assert_close_rel(got, want, rel=1e-4, floor=1e-5)


def test_finite_difference_random_compositions():
    """Random gated-forward shaped graphs over the whole op set."""
    gen = np.random.default_rng(42)
    for _ in range(20):
        x = gen.normal(size=(3, 5))
        head = gen.normal(size=(2, 4))
        labels = gen.integers(0, 2, size=5)
        w1 = gen.normal(size=(4, 3))
        w2 = gen.normal(size=(1, 4))

        def graph(a, b):
            h = ad.silu(ad.matmul(a, ad.constant(x)))
            pre = ad.matmul(b, h)
            gate = ad.absval(
                ad.add(ad.smul(2.0, ad.sigmoid(pre)), ad.constant(-np.ones((1, 5))))
            )
            logits = ad.matmul(ad.constant(head), ad.scale_columns(gate, h))
            return ad.softmax_cross_entropy(logits, labels)

        a_node, b_node = ad.parameter(w1), ad.parameter(w2)
        ad.backward(graph(a_node, b_node))
        numeric = finite_difference(
            lambda ps: float(graph(ad.parameter(ps[0]), ad.parameter(ps[1])).value[0, 0]),
            [w1.copy(), w2.copy()],
        )
        assert_close_rel(a_node.grad, numeric[0], rel=1e-4, floor=1e-5)
        assert_close_rel(b_node.grad, numeric[1], rel=1e-4, floor=1e-5)
