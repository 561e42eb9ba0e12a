import inspect
import zlib

import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.errors import NonScalarLoss, ShapeMismatch
from gatedlora.gating import GateFn

from conftest import (
    assert_close_rel,
    branch_chain,
    finite_difference,
    gate_chain,
    graph_nodes,
    penalty_chain,
    sigmoid,
    smul,
    total,
)


def scalar_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def squash(gate):
    """The gate's squash alone: a depth-0 gate whose final row is [[1.0]],
    so its pre-gate is its (1, n) input exactly."""
    return lambda b: ad.gate_mlp(b, [ad.constant([[1.0]])], gate.squash)[0]


class TestClosedForms:
    def test_sigmoid_gradient_at_zero(self):
        b = ad.parameter([[0.0]])
        ad.backward(squash(GateFn.SIGMOID)(b))
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
        [
            (squash(GateFn.SIGMOID), [0.0, 1.0], [0.0, 0.0]),
            (squash(GateFn.ABS_SIGMOID), [1.0, 1.0], [0.0, 0.0]),
            (ad.silu, [0.0, 1000.0], [0.0, 1.0]),
        ],
        ids=["sigmoid", "abs_sigmoid", "silu"],
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
        ad.backward(total(ad.add(ad.add(x, y), ad.add(x, x))))
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
        with pytest.raises(ShapeMismatch):  # coefficient not (1, n)
            ad.add_branch(b, np.ones((1, 3)), b, b, b)
        with pytest.raises(ShapeMismatch):  # final gate row maps to 2 rows
            ad.gate_mlp(a, [ad.parameter(np.ones((2, 2)))], GateFn.ABS_SIGMOID.squash)
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
        # Two stacked terms of the shapes given: (2, 1, 4), (2, 5, 2), (2, 2, 3)
        # when well formed.
        h = ad.parameter(np.ones((3, 4)))
        with pytest.raises(ShapeMismatch):
            ad.lowrank_sum(h, np.ones(weight), *(np.ones((2,) + s) for s in term))

    @pytest.mark.parametrize("stack", [0, 1, 2])
    def test_lowrank_sum_stacks_must_agree_in_depth(self, stack):
        h = ad.parameter(np.ones((3, 4)))
        stacks = [np.ones((2, 1, 4)), np.ones((2, 5, 2)), np.ones((2, 2, 3))]
        stacks[stack] = stacks[stack][:1]
        with pytest.raises(ShapeMismatch):
            ad.lowrank_sum(h, np.ones((5, 3)), *stacks)

    @pytest.mark.parametrize("n", [16, 32, 256])
    @pytest.mark.parametrize("k", [0, 1, 2, 9, 14, 17])
    def test_lowrank_sum_matches_per_term_chain(self, k, n):
        # At the bench's dims (64 wide, rank 8): value and h-gradient equal
        # the per-branch chain over constants byte for byte. The terms go
        # in chunks of 16 at 16 columns, 8 at 32 and 1 at 256, so k = 9,
        # 14 and 17 span two or three chunks at 32 columns, and k >= 2 two
        # or more at 256.
        gen = np.random.default_rng(k * 1000 + n)
        d, r = 64, 8
        weight = gen.normal(size=(d, d))
        coeffs = gen.uniform(size=(k, 1, n))
        ups = gen.normal(size=(k, d, r))
        downs = gen.normal(size=(k, r, d))
        h_value = gen.normal(size=(d, n))
        results = []
        for fused in (True, False):
            h = ad.parameter(h_value)
            if fused:
                out = ad.lowrank_sum(h, weight, coeffs, ups, downs)
            else:
                out = ad.matmul(ad.constant(weight), h)
                for a, up, down in zip(coeffs, ups, downs):
                    out = branch_chain(out, a, ad.constant(up), ad.constant(down), h)
            # scaled so that no entry saturates the sigmoid to a 0 gradient
            ad.backward(total(sigmoid(smul(0.05, out))))
            results.append((out.value.tobytes(), h.grad.tobytes()))
        assert results[0] == results[1]


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
# coefficients, for lowrank_sum: stacked coefficients (3, 1, 4), ups
# (3, 5, 2) and downs (3, 2, 3).
_LOWRANK = np.random.default_rng(11)
_WEIGHT = _LOWRANK.normal(size=(5, 3))
_TERMS = [
    np.stack(part)
    for part in zip(
        *[
            (
                _LOWRANK.uniform(size=(1, 4)),
                _LOWRANK.normal(size=(5, 2)),
                _LOWRANK.normal(size=(2, 3)),
            )
            for _ in range(3)
        ]
    )
]


def _two_branches(out, a, up, down, h):
    # add_branch on h, then on a down-product node
    h = ad.silu(h)
    out = ad.add_branch(out, a, up, down, h)
    return total(ad.silu(ad.add_branch(out, a, up, None, ad.matmul(down, h))))


OP_CASES = {
    "matmul": (
        [(3, 4), (4, 2)],
        lambda a, b: total(ad.silu(ad.matmul(a, b))),
    ),
    "add": (
        [(3, 2), (3, 2)],
        lambda a, b: total(ad.silu(ad.add(a, b))),
    ),
    "silu": ([(3, 3)], lambda a: total(ad.silu(a))),
    "softmax_cross_entropy": (
        [(3, 6)],
        lambda a: ad.softmax_cross_entropy(a, _LABELS),
    ),
    "lowrank_sum": (
        [(3, 4)],
        lambda h: total(ad.silu(ad.lowrank_sum(ad.silu(h), _WEIGHT, *_TERMS))),
    ),
    "row_space_penalty": (
        [(2, 4)],
        lambda a: ad.row_space_penalty(a, _METRIC, 0.7),
    ),
    # The plain-sigmoid gate through two SiLU layers, plus the ABS gate at
    # depth 0 on a (1, 1) row c, whose pre-gate c * x is 0 only where c or
    # x is (see _KINKS).
    "gate_mlp": (
        [(1, 4), (3, 1), (3, 3), (1, 3), (1, 1)],
        lambda x, w0, w1, w2, c: total(
            ad.add(
                ad.gate_mlp(x, [w0, w1, w2], GateFn.SIGMOID.squash)[0],
                ad.gate_mlp(x, [c], GateFn.ABS_SIGMOID.squash)[0],
            )
        ),
    ),
    "add_branch": ([(5, 4), (1, 4), (5, 2), (2, 3), (3, 4)], _two_branches),
}

_KINKS = {"gate_mlp": 0.0}


def test_op_cases_cover_exactly_the_ops():
    # The module's rule: no op without a finite-difference check.
    ops = {
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert ops - {"no_grad", "parameter", "constant", "backward"} == set(OP_CASES)


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


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_vjps_leave_the_upstream_gradient_alone(name):
    # backward() hands a node's gradient to all of its vjps, and add's vjp
    # passes it on as is, so a vjp that wrote to it would change what the
    # node's other parents (or another node's) receive. Every vjp of every
    # node in the op's case runs on a read-only gradient, where numpy
    # refuses any write.
    shapes, builder = OP_CASES[name]
    gen = np.random.default_rng(zlib.crc32(name.encode()) + 1)
    loss = builder(*[ad.parameter(gen.normal(size=s)) for s in shapes])
    ops = set()
    for node in graph_nodes(loss):
        g = gen.normal(size=node.shape)
        g.flags.writeable = False
        before = g.tobytes()
        for vjp in node.vjps:
            vjp(g)
            ops.add(vjp.__qualname__.split(".")[0])
        assert g.tobytes() == before
    assert name in ops  # the op under test is in its case's graph


def test_finite_difference_random_compositions():
    """Random gated-forward shaped graphs over the whole op set."""
    gen = np.random.default_rng(42)
    for _ in range(20):
        x = gen.normal(size=(3, 5))
        head = gen.normal(size=(2, 4))
        labels = gen.integers(0, 2, size=5)
        up = gen.normal(size=(4, 2))
        down = gen.normal(size=(2, 4))
        w1 = gen.normal(size=(4, 3))
        w2 = gen.normal(size=(1, 4))

        def graph(a, b):
            # a is both a gate layer and the backbone layer before the
            # gated branch, which reads and adds to h
            h = ad.silu(ad.matmul(a, ad.constant(x)))
            gate, _ = ad.gate_mlp(ad.constant(x), [a, b], GateFn.ABS_SIGMOID.squash)
            out = ad.add_branch(h, gate, ad.constant(up), ad.constant(down), h)
            logits = ad.matmul(ad.constant(head), out)
            return ad.softmax_cross_entropy(logits, labels)

        a_node, b_node = ad.parameter(w1), ad.parameter(w2)
        ad.backward(graph(a_node, b_node))
        numeric = finite_difference(
            lambda ps: float(graph(ad.parameter(ps[0]), ad.parameter(ps[1])).value[0, 0]),
            [w1.copy(), w2.copy()],
        )
        assert_close_rel(a_node.grad, numeric[0], rel=1e-4, floor=1e-5)
        assert_close_rel(b_node.grad, numeric[1], rel=1e-4, floor=1e-5)


def _weighted_total(node, gen):
    """A random weighting of the node's entries as a 1x1 node, so that its
    upstream gradient is a dense random (m, n) array."""
    m, n = node.shape
    rows = ad.constant(gen.normal(size=(1, m)))
    cols = ad.constant(gen.normal(size=(n, 1)))
    return ad.matmul(ad.matmul(rows, node), cols)


def _fused_and_chain(build_fused, build_chain, arrays, trainable, seed):
    """Build each form on fresh leaves (parameters where `trainable`,
    constants elsewhere), run backward from one random weighting, and
    return each form's value, extra outputs and leaf gradients as bytes."""
    results = []
    for build in (build_fused, build_chain):
        leaves = [
            ad.parameter(a) if t else ad.constant(a) for a, t in zip(arrays, trainable)
        ]
        out, extra = build(*leaves)
        ad.backward(_weighted_total(out, np.random.default_rng(seed)))
        results.append(
            [out.value.tobytes()]
            + [e.tobytes() for e in extra]
            + [None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves]
        )
    return results


class TestFusedOpsMatchTheirChains:
    """Each fused op against the chain of elementary nodes it stands for
    (`conftest.gate_chain`, `branch_chain`, `penalty_chain`): value, every
    extra output and every leaf's gradient, byte for byte."""

    @pytest.mark.parametrize("n", [16, 32, 256])
    @pytest.mark.parametrize(
        "depth, hidden_grad", [(0, True), (2, True), (2, False)], ids=["0", "2", "2_final_row"]
    )
    @pytest.mark.parametrize("absolute", [True, False], ids=["abs_sigmoid", "sigmoid"])
    @pytest.mark.parametrize("x_grad", [False, True], ids=["x_const", "x_param"])
    def test_gate_mlp(self, absolute, depth, n, x_grad, hidden_grad):
        # The bench's gate dims (64 in, 32 hidden). Column 3 of x is 0, so
        # its pre-gate is exactly 0: the ABS gate's kink, where both forms
        # give a zero gradient. With hidden_grad False only the final row
        # (and x, when x_grad) trains.
        gen = np.random.default_rng(depth * 1000 + n + absolute)
        gate = GateFn.ABS_SIGMOID if absolute else GateFn.SIGMOID
        shapes = [(32, 64), (64, 32), (1, 64)][2 - depth :]
        x = gen.normal(size=(64, n))
        x[:, 3] = 0.0
        weights = [gen.normal(scale=0.3, size=s) for s in shapes]
        m = len(weights)
        results = _fused_and_chain(
            lambda x, *w: ad.gate_mlp(x, list(w), gate.squash),
            lambda x, *w: gate_chain(x, list(w), absolute),
            [x] + weights,
            [x_grad] + [hidden_grad] * (m - 1) + [True],
            seed=n,
        )
        assert results[0] == results[1]
        if absolute:
            out = ad.gate_mlp(ad.constant(x), [ad.constant(w) for w in weights], gate.squash)[0]
            assert out.value[0, 3] == 0.0

    @pytest.mark.parametrize("n", [16, 32, 256])
    @pytest.mark.parametrize(
        "coeff, trainable",
        [
            # trainable: out, up, down, h
            ("node", (True, True, True, True)),
            ("const_node", (True, True, True, True)),
            ("row", (False, True, True, False)),  # a training step's layer 1
            ("row", (True, True, False, True)),  # InfLoRA's layer 2: down fixed
        ],
        ids=["node", "const_node", "row", "row_down_fixed"],
    )
    @pytest.mark.parametrize("down_node", [False, True], ids=["h", "down_product"])
    def test_add_branch(self, coeff, trainable, n, down_node):
        # The coefficient is a trainable node, a constant node or a row
        # array. With down_node the branch takes down @ h as a matmul node.
        gen = np.random.default_rng(n + len(coeff) + sum(trainable))

        def branch(out, a, up, down, h):
            if down_node:
                return ad.add_branch(out, a, up, None, ad.matmul(down, h))
            return ad.add_branch(out, a, up, down, h)

        d, r = 64, 8
        row = gen.uniform(size=(1, n))
        arrays = [
            gen.normal(size=(d, n)),
            gen.normal(size=(d, r)),
            gen.normal(size=(r, d)),
            gen.normal(size=(d, n)),
        ]
        if coeff == "row":
            fused = lambda out, *rest: (branch(out, row, *rest), [])
            chain = lambda out, *rest: (branch_chain(out, row, *rest), [])
        else:
            arrays.insert(1, row)
            trainable = trainable[:1] + (coeff == "node",) + trainable[1:]
            fused = lambda *leaves: (branch(*leaves), [])
            chain = lambda *leaves: (branch_chain(*leaves), [])
        results = _fused_and_chain(fused, chain, arrays, trainable, seed=n)
        assert results[0] == results[1]

    @pytest.mark.parametrize("lam", [0.5, 0.7, 3.0])
    def test_row_space_penalty(self, lam):
        gen = np.random.default_rng(int(lam * 10))
        old = gen.normal(size=(24, 64))
        s = old.T @ old
        results = _fused_and_chain(
            lambda x: (ad.row_space_penalty(x, s, lam), []),
            lambda x: (penalty_chain(x, s, lam), []),
            [gen.normal(size=(8, 64))],
            [True],
            seed=3,
        )
        assert results[0] == results[1]
