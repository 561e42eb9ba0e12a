import inspect
import zlib

import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.errors import ShapeMismatch
from gatedlora.gating import GateFn

import graph as gr
from conftest import (
    assert_close_rel,
    branch_chain,
    finite_difference,
    gate_chain,
    lowrank_chain,
    penalty_chain,
    total,
    upstream,
)


def scalar_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# The package's kernels as nodes of the oracle graph (`tests/graph.py`), so
# that finite differences, compositions and the chains of elementary
# nodes can check them: each node's value is the forward kernel's and each
# vjp calls the backward kernel. Named after the kernel each stands for.


def _once(chain):
    """`chain(g)` computed once per upstream gradient: the node's vjps each
    read their parent's share of one call of a backward kernel (backward()
    hands every vjp of a node the same array)."""
    last: list = [None, None]

    def shares(g):
        if last[0] is not g:
            last[:] = g, chain(g)
        return last[1]

    return shares


def silu(a):
    return gr.DiffNode(ad.silu(a.value), ((a, lambda g: ad.silu_vjp(g, a.value)),))


def gate_input_vjp(g, cache):
    """The gate input's share of the gate row's gradient g: the chain's
    backward pass carried on below the first layer, in its order. The
    package never takes it (a gate's pooled input takes no gradient), so
    only the cases here that differentiate through a gate's input use it."""
    weights, trace, acts, v, squash_vjp = cache
    g = squash_vjp(g)
    g = g * v * (1.0 - v)
    for i in range(len(weights) - 1, -1, -1):
        g = weights[i].T @ g
        if i:
            z, sig = acts[i - 1]
            g = g * sig * (1.0 + z * (1.0 - sig))
    return g


def gate_mlp(x, weights, squash):
    """The gate row as a node, and the trace. The weights' shares are
    `gate_mlp_vjp`'s; the input's, `gate_input_vjp`'s."""
    row, cache = ad.gate_mlp(x.value, [w.value for w in weights], squash)
    shares = _once(lambda g: ad.gate_mlp_vjp(g, cache))
    inputs = [(x, lambda g: gate_input_vjp(g, cache))]
    inputs += [(w, lambda g, i=i: shares(g)[i]) for i, w in enumerate(weights)]
    return gr.DiffNode(row, inputs), cache.trace


def add_branch(out, coeff, up, down, h):
    """out + coeff * (up @ (down @ h)); with `down` None, h is the branch's
    down-product itself. up's share is `add_branch_vjp`'s; the
    coefficient's, the down-product's and that product's shares for down
    and h are the chain's, as `AdaptedLinear.backward` takes them."""
    a = coeff if isinstance(coeff, np.ndarray) else coeff.value
    z = h.value if down is None else down.value @ h.value
    value, contrib = ad.add_branch(out.value, a, up.value, z)
    shares = _once(lambda g: ad.add_branch_vjp(g, a, z))

    def dz(g):
        return up.value.T @ shares(g)[1]

    inputs = [(out, lambda g: g)]
    if not isinstance(coeff, np.ndarray):
        inputs.append((coeff, lambda g: (g * contrib).sum(axis=0, keepdims=True)))
    inputs.append((up, lambda g: shares(g)[0]))
    if down is None:
        inputs.append((h, dz))
    else:
        inputs += [
            (down, lambda g: dz(g) @ h.value.T),
            (h, lambda g: down.value.T @ dz(g)),
        ]
    return gr.DiffNode(value, inputs)


def lowrank_sum(h, weight, coeffs, ups, downs):
    return gr.DiffNode(
        ad.lowrank_sum(h.value, weight, coeffs, ups, downs),
        ((h, lambda g: ad.lowrank_sum_vjp(g, weight, coeffs, ups, downs)),),
    )


def softmax_cross_entropy(logits, labels):
    """The oracle's loss value, with the kernel's gradient."""
    value = gr.softmax_cross_entropy(gr.constant(logits.value), labels).value
    grad = ad.softmax_cross_entropy_grad(logits.value, labels)
    return gr.DiffNode(value, ((logits, lambda g: g[0, 0] * grad),))


def row_space_penalty(x, s, lam):
    """lam * tr(X S X^T), with the kernel's gradient."""
    value = lam * gr.row_space_penalty(gr.constant(x.value), s).value
    return gr.DiffNode(
        value, ((x, lambda g: g[0, 0] * ad.row_space_penalty_grad(x.value, s, lam)),)
    )


def squash(gate):
    """The gate's squash alone: a depth-0 gate whose final row is [[1.0]],
    so its pre-gate is its (1, n) input exactly."""
    return lambda b: gate_mlp(b, [gr.constant([[1.0]])], gate.squash)[0]


class TestClosedForms:
    def test_sigmoid_gradient_at_zero(self):
        b = gr.parameter([[0.0]])
        gr.backward(squash(GateFn.SIGMOID)(b))
        # sigma'(0) = sigma(0) (1 - sigma(0)) = 0.25
        assert b.grad[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_silu_gradient_at_zero(self):
        x = gr.parameter([[0.0]])
        gr.backward(silu(x))
        # silu'(x) = sigma(x) (1 + x (1 - sigma(x))) -> 0.5 at x = 0
        assert x.grad[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_silu_gradient_generic_point(self):
        x = gr.parameter([[0.7]])
        gr.backward(silu(x))
        s = scalar_sigmoid(0.7)
        assert x.grad[0, 0] == pytest.approx(s * (1 + 0.7 * (1 - s)), abs=1e-12)

    @pytest.mark.parametrize(
        "op, value, slope",
        [
            (squash(GateFn.SIGMOID), [0.0, 1.0], [0.0, 0.0]),
            (squash(GateFn.ABS_SIGMOID), [1.0, 1.0], [0.0, 0.0]),
            (silu, [0.0, 1000.0], [0.0, 1.0]),
        ],
        ids=["sigmoid", "abs_sigmoid", "silu"],
    )
    def test_saturates_without_overflow(self, op, value, slope):
        # exp(1000) overflows; under filterwarnings=error a warning fails here
        x = gr.parameter([[-1000.0, 1000.0]])
        out = op(x)
        gr.backward(total(out))
        assert np.array_equal(out.value, [value])
        assert np.array_equal(x.grad, [[s / 2 for s in slope]])


class TestMechanics:
    def test_backward_requires_scalar(self):
        p = gr.parameter(np.ones((2, 2)))
        with pytest.raises(gr.NonScalarLoss):
            gr.backward(gr.silu(p))

    def test_gradients_reset_between_passes(self):
        p = gr.parameter([[1.0, 2.0]])
        gr.backward(total(gr.silu(p)))
        first = p.grad.copy()
        gr.backward(total(gr.silu(p)))
        assert np.array_equal(p.grad, first)  # re-derived, not accumulated

    def test_diamond_graph_accumulates(self):
        # loss = mean(x + x) so dloss/dx = 2/n per entry
        x = gr.parameter([[1.0, 2.0, 3.0]])
        gr.backward(total(gr.add(x, x)))
        assert np.allclose(x.grad, np.full((1, 3), 2.0 / 3.0))

    def test_constant_receives_no_gradient(self):
        c = gr.constant(np.ones((2, 2)))
        p = gr.parameter(np.ones((2, 2)))
        gr.backward(total(gr.add(c, p)))
        assert c.grad is None
        assert p.grad is not None

    def test_only_parents_needing_gradients_recorded(self):
        p = gr.parameter(np.ones((2, 2)))
        out = gr.matmul(gr.constant(np.ones((2, 2))), p)
        assert out.parents == (p,)
        assert len(out.vjps) == 1

    def test_shared_gradient_not_updated_in_place(self):
        # add's vjp hands one array to both parents, so x's later
        # contribution must not write through it into y's gradient.
        x = gr.parameter([[1.0, 2.0, 3.0]])
        y = gr.parameter([[4.0, 5.0, 6.0]])
        gr.backward(total(gr.add(gr.add(x, y), gr.add(x, x))))
        assert np.array_equal(y.grad, np.full((1, 3), 1.0 / 3.0))
        assert np.array_equal(x.grad, np.ones((1, 3)))

    def test_no_grad_builds_no_graph(self):
        p = gr.parameter(np.ones((2, 2)))
        with gr.no_grad():
            out = gr.silu(gr.matmul(p, p))
        assert not out.requires_grad
        assert out.parents == ()

    def test_no_grad_restored_after_exception(self):
        p = gr.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            with gr.no_grad():
                gr.matmul(p, gr.constant(np.ones((3, 1))))
        out = gr.silu(p)
        assert out.requires_grad and out.parents == (p,)

    def test_backward_after_no_grad_matches_finite_difference(self):
        w = np.random.default_rng(3).normal(size=(3, 4))
        p = gr.parameter(w)
        with gr.no_grad():
            total(gr.silu(p))
        gr.backward(total(gr.silu(p)))
        numeric = finite_difference(
            lambda ps: float(total(gr.silu(gr.parameter(ps[0]))).value[0, 0]),
            [w.copy()],
        )
        assert_close_rel(p.grad, numeric[0], rel=1e-4, floor=1e-5)

    def test_shape_checks(self):
        a = gr.parameter(np.ones((2, 3)))
        b = gr.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeMismatch):
            gr.add(a, b)
        with pytest.raises(ShapeMismatch):  # no column-bias broadcast
            gr.add(a, gr.parameter(np.ones((2, 1))))
        with pytest.raises(ShapeMismatch):
            gr.matmul(a, a)
        square = np.ones((2, 2))
        with pytest.raises(ShapeMismatch):  # coefficient not (1, n)
            ad.add_branch(square, np.ones((1, 3)), square, square)
        with pytest.raises(ShapeMismatch):  # final gate row maps to 2 rows
            ad.gate_mlp(np.ones((2, 3)), [square], GateFn.ABS_SIGMOID.squash)
        with pytest.raises(ShapeMismatch):
            ad.softmax_cross_entropy_grad(np.ones((3, 2)), np.array([0, 3]))
        with pytest.raises(ShapeMismatch):
            ad.row_space_penalty_grad(np.ones((2, 3)), square, 0.5)

    @pytest.mark.parametrize(
        "weight, term",
        [
            ((5, 2), ((2, 1, 4), (5, 4), (4, 3))),  # h rows != weight columns
            ((5, 3), ((2, 1, 4), (5, 4), (4, 4))),  # down columns != h rows
            ((5, 3), ((2, 1, 4), (5, 3), (4, 3))),  # ups' and downs' ranks differ
            ((5, 3), ((2, 1, 4), (4, 4), (4, 3))),  # up rows != weight rows
            ((5, 3), ((2, 1, 3), (5, 4), (4, 3))),  # coefficient not (1, n)
            ((5, 3), ((2, 4, 1), (5, 4), (4, 3))),
        ],
        ids=["weight", "down", "rank", "up", "coeff_cols", "coeff_rows"],
    )
    def test_lowrank_sum_shape_checks(self, weight, term):
        # Two rank-2 terms of the shapes given: coefficients (2, 1, 4), ups
        # (5, 4) side by side and downs (4, 3) stacked when well formed.
        with pytest.raises(ShapeMismatch):
            ad.lowrank_sum(np.ones((3, 4)), np.ones(weight), *(np.ones(s) for s in term))

    @pytest.mark.parametrize("stack", [0, 1, 2])
    def test_lowrank_sum_stacks_must_agree_in_depth(self, stack):
        # The k coefficient rows must split the concatenated rank into k
        # equal terms: 3 rows on rank 4, 2 rows on rank 5, or none on 4.
        coeffs, rank = [((3, 1, 4), 4), ((2, 1, 4), 5), ((0, 1, 4), 4)][stack]
        with pytest.raises(ShapeMismatch):
            ad.lowrank_sum(
                np.ones((3, 4)), np.ones((5, 3)),
                np.ones(coeffs), np.ones((5, rank)), np.ones((rank, 3)),
            )

    @pytest.mark.parametrize("n", [16, 32, 256])
    @pytest.mark.parametrize("k", [0, 1, 2, 9, 14, 17, 31])
    def test_lowrank_sum_matches_per_term_chain(self, k, n):
        """At the bench's dims (d = 64 wide, rank r = 8): value and
        h-gradient equal the concatenated chain (`lowrank_chain`) over
        constants byte for byte, and are near the per-term chain, which adds
        one `branch_chain` per term.

        The bound: a length-p dot product computed in floating point is off
        by at most gamma_p = p u / (1 - p u) times the dot product of the
        operands' magnitudes, u = 2^-53. The concatenated value takes
        D h (length d), the scale, U (...) (length k r), W h (d) and one
        add: within gamma_{d + k r + 2} of the exact value, entrywise, times
        M = |W| |h| + |U| (|A| * (|D| |h|)). The per-term chain takes down_i h
        (d), up_i (...) (r), the scale and the k adds of the running sum:
        within gamma_{d + r + k + 1} M, and r + k <= k r + 1. So the two
        differ by at most 2 gamma_{d + k r + 2} M. The h-gradient
        W.T g + D.T (A * (U.T g)) has the same bound with
        M = |W|.T |g| + |D|.T (|A| * (|U|.T |g|)), as the layer is square.
        Both paths read the same upstream gradient g: the loss is linear in
        the output, with a random weight per entry.
        """
        gen = np.random.default_rng(k * 1000 + n)
        d, r = 64, 8
        weight = gen.normal(size=(d, d))
        coeffs = gen.uniform(size=(k, 1, n))
        terms = [(gen.normal(size=(d, r)), gen.normal(size=(r, d))) for _ in range(k)]
        ups = np.concatenate([np.empty((d, 0))] + [up for up, _ in terms], axis=1)
        downs = np.concatenate([np.empty((0, d))] + [down for _, down in terms])
        h_value = gen.normal(size=(d, n))
        loss_weight = gr.constant(gen.normal(size=(d, n)))

        def run(build):
            h = gr.parameter(h_value)
            out = build(h)
            gr.backward(total(gr.scale_columns(loss_weight, out)))
            return out.value, h.grad

        def per_term(h):
            out = gr.matmul(gr.constant(weight), h)
            for a, (up, down) in zip(coeffs, terms):
                out = branch_chain(out, a, gr.constant(up), gr.constant(down), h)
            return out

        got = run(lambda h: lowrank_sum(h, weight, coeffs, ups, downs))
        chain = run(lambda h: lowrank_chain(weight, coeffs, ups, downs, h))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in chain]

        scale = np.repeat(np.abs(coeffs[:, 0]), r, axis=0)
        g = np.abs(upstream(got[0], lambda out: total(gr.scale_columns(loss_weight, out))))
        magnitudes = [
            np.abs(weight) @ np.abs(h_value) + np.abs(ups) @ (scale * (np.abs(downs) @ np.abs(h_value))),
            np.abs(weight).T @ g + np.abs(downs).T @ (scale * (np.abs(ups).T @ g)),
        ]
        p = d + k * r + 2
        u = np.finfo(np.float64).eps / 2
        gamma = p * u / (1 - p * u)
        for fused, term, m in zip(got, run(per_term), magnitudes):
            assert np.all(np.abs(fused - term) <= 2 * gamma * m)


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
# coefficients, for lowrank_sum: coefficients (3, 1, 4), ups (5, 6) side by
# side and downs (6, 3) stacked.
_LOWRANK = np.random.default_rng(11)
_WEIGHT = _LOWRANK.normal(size=(5, 3))
_TERMS = [
    _LOWRANK.uniform(size=(3, 1, 4)),
    _LOWRANK.normal(size=(5, 6)),
    _LOWRANK.normal(size=(6, 3)),
]


def _two_branches(out, a, up, down, h):
    # add_branch on h, then on a down-product node
    h = silu(h)
    out = add_branch(out, a, up, down, h)
    return total(silu(add_branch(out, a, up, None, gr.matmul(down, h))))


OP_CASES = {
    "matmul": (
        [(3, 4), (4, 2)],
        lambda a, b: total(silu(gr.matmul(a, b))),
    ),
    "add": (
        [(3, 2), (3, 2)],
        lambda a, b: total(silu(gr.add(a, b))),
    ),
    "silu": ([(3, 3)], lambda a: total(silu(a))),
    "softmax_cross_entropy": (
        [(3, 6)],
        lambda a: softmax_cross_entropy(a, _LABELS),
    ),
    "lowrank_sum": (
        [(3, 4)],
        lambda h: total(silu(lowrank_sum(silu(h), _WEIGHT, *_TERMS))),
    ),
    "row_space_penalty": (
        [(2, 4)],
        lambda a: row_space_penalty(a, _METRIC, 0.7),
    ),
    # The plain-sigmoid gate through two SiLU layers, plus the ABS gate at
    # depth 0 on a (1, 1) row c, whose pre-gate c * x is 0 only where c or
    # x is (see _KINKS).
    "gate_mlp": (
        [(1, 4), (3, 1), (3, 3), (1, 3), (1, 1)],
        lambda x, w0, w1, w2, c: total(
            gr.add(
                gate_mlp(x, [w0, w1, w2], GateFn.SIGMOID.squash)[0],
                gate_mlp(x, [c], GateFn.ABS_SIGMOID.squash)[0],
            )
        ),
    ),
    "add_branch": ([(5, 4), (1, 4), (5, 2), (2, 3), (3, 4)], _two_branches),
}

_KINKS = {"gate_mlp": 0.0}


# Ops of the oracle graph itself, which the package's kernels do not name.
GRAPH_OPS = {"matmul", "add"}


def test_op_cases_cover_exactly_the_ops():
    # The module's rule: no kernel without a finite-difference check. A
    # kernel is a forward, its backward (`*_vjp`) or a gradient (`*_grad`).
    kernels = {
        name.removesuffix("_vjp").removesuffix("_grad")
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert kernels == set(OP_CASES) - GRAPH_OPS


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
        nodes = [gr.parameter(a) for a in arrays]
        gr.backward(builder(*nodes))
        analytic = [n.grad for n in nodes]

        def evaluate(params):
            out = builder(*[gr.parameter(p) for p in params])
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
    loss = builder(*[gr.parameter(gen.normal(size=s)) for s in shapes])
    ops = set()
    for node in gr.nodes(loss):
        g = gen.normal(size=node.value.shape)
        g.flags.writeable = False
        before = g.tobytes()
        for vjp in getattr(node, "vjps", ()):
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
            h = silu(gr.matmul(a, gr.constant(x)))
            gate, _ = gate_mlp(gr.constant(x), [a, b], GateFn.ABS_SIGMOID.squash)
            out = add_branch(h, gate, gr.constant(up), gr.constant(down), h)
            logits = gr.matmul(gr.constant(head), out)
            return softmax_cross_entropy(logits, labels)

        a_node, b_node = gr.parameter(w1), gr.parameter(w2)
        gr.backward(graph(a_node, b_node))
        numeric = finite_difference(
            lambda ps: float(graph(gr.parameter(ps[0]), gr.parameter(ps[1])).value[0, 0]),
            [w1.copy(), w2.copy()],
        )
        assert_close_rel(a_node.grad, numeric[0], rel=1e-4, floor=1e-5)
        assert_close_rel(b_node.grad, numeric[1], rel=1e-4, floor=1e-5)


def _weighted_total(node, gen):
    """A random weighting of the node's entries as a 1x1 node, so that its
    upstream gradient is a dense random (m, n) array."""
    m, n = node.shape
    rows = gr.constant(gen.normal(size=(1, m)))
    cols = gr.constant(gen.normal(size=(n, 1)))
    return gr.matmul(gr.matmul(rows, node), cols)


def _fused_and_chain(build_fused, build_chain, arrays, trainable, seed):
    """Build each form on fresh leaves (parameters where `trainable`,
    constants elsewhere), run backward from one random weighting, and
    return each form's value, extra outputs and leaf gradients as bytes."""
    results = []
    for build in (build_fused, build_chain):
        leaves = [
            gr.parameter(a) if t else gr.constant(a) for a, t in zip(arrays, trainable)
        ]
        out, extra = build(*leaves)
        gr.backward(_weighted_total(out, np.random.default_rng(seed)))
        results.append(
            [out.value.tobytes()]
            + [e.tobytes() for e in extra]
            + [None if leaf.grad is None else leaf.grad.tobytes() for leaf in leaves]
        )
    return results


class TestFusedOpsMatchTheirChains:
    """Each kernel against the chain of elementary nodes it stands for
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
            lambda x, *w: gate_mlp(x, list(w), gate.squash),
            lambda x, *w: gate_chain(x, list(w), absolute),
            [x] + weights,
            [x_grad] + [hidden_grad] * (m - 1) + [True],
            seed=n,
        )
        assert results[0] == results[1]
        if absolute:
            out = gate_mlp(gr.constant(x), [gr.constant(w) for w in weights], gate.squash)[0]
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
                return add_branch(out, a, up, None, gr.matmul(down, h))
            return add_branch(out, a, up, down, h)

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
        # The kernel is the gradient from a unit loss gradient: the
        # penalty's, when it is a term of the loss.
        gen = np.random.default_rng(int(lam * 10))
        old = gen.normal(size=(24, 64))
        s = old.T @ old
        x = gr.parameter(gen.normal(size=(8, 64)))
        gr.backward(penalty_chain(x, s, lam))
        assert ad.row_space_penalty_grad(x.value, s, lam).tobytes() == x.grad.tobytes()
