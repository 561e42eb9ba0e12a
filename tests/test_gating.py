import math

import numpy as np
import pytest

from gatedlora.errors import (
    DimMismatch,
    EmptyInput,
    IdOutOfRange,
    NonFinite,
    ShapeMismatch,
)
from gatedlora.gating import (
    GateFn,
    GatingModule,
    constrain_update,
    gating_layer_shapes,
    init_new_gating,
)
from gatedlora.numerics import Rng, gaussian_init
from gatedlora.optim import AdamW
from gatedlora.subspace import SubspaceBasis, SubspaceMemory, factor

import graph as gr
from conftest import coefficient_nodes, pool_embed, total, upstream


class TestGateFn:
    def test_zero_maps_to_zero(self):
        assert GateFn.ABS_SIGMOID.scalar(0.0) == 0.0

    def test_abs_sigmoid_closed_form(self):
        # sigmoid(ln 3) = 0.75, so |2*0.75 - 1| = 0.5
        assert GateFn.ABS_SIGMOID.scalar(math.log(3)) == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        gen = np.random.default_rng(0)
        for variant in GateFn:
            for b in gen.normal(scale=5.0, size=200):
                v = variant.scalar(float(b))
                assert 0.0 <= v <= 1.0

    def test_abs_sigmoid_even_symmetry_exact(self):
        gen = np.random.default_rng(1)
        gate = GateFn.ABS_SIGMOID
        for b in gen.normal(scale=3.0, size=500):
            assert gate.scalar(float(b)) == gate.scalar(float(-b))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            GateFn.ABS_SIGMOID.scalar(float("nan"))

    def test_sigmoid_scalar_saturates_without_overflow(self):
        assert GateFn.SIGMOID.scalar(-1000.0) == 0.0
        assert GateFn.SIGMOID.scalar(1000.0) == 1.0

    def test_node_path_matches_scalar_path(self):
        gen = np.random.default_rng(2)
        b = gen.normal(scale=2.0, size=(1, 50))
        for variant in GateFn:
            # depth 0 with final row [[1.0]]: the pre-gate is b itself
            out, _ = GatingModule([np.array([[1.0]])], variant).forward_values(b)
            want = [variant.scalar(float(x)) for x in b[0]]
            assert np.allclose(out, want, atol=1e-12)


class TestPoolEmbed:
    def test_two_token_mean(self):
        table = np.array([[9.0, 9.0], [1.0, 0.0], [0.0, 1.0]])
        out = pool_embed([1, 2], table)
        assert np.allclose(out, [[0.5], [0.5]])

    def test_single_token(self):
        table = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(pool_embed([2], table).ravel(), table[2])

    def test_repeated_token_invariance(self):
        table = np.random.default_rng(0).normal(size=(5, 4))
        once = pool_embed([3], table)
        thrice = pool_embed([3, 3, 3], table)
        assert np.allclose(once, thrice)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            pool_embed([], np.ones((3, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(IdOutOfRange):
            pool_embed([3], np.ones((3, 2)))
        with pytest.raises(IdOutOfRange):
            pool_embed([-1], np.ones((3, 2)))
        # float ids are rejected, not truncated to rows 1 and 2
        with pytest.raises(IdOutOfRange, match="integers"):
            pool_embed([1.7, 2.2], np.ones((3, 2)))


def make_module(rng, d=6, w=4, gate=GateFn.ABS_SIGMOID, std=0.5):
    shapes = gating_layer_shapes(d, w)
    weights = [gaussian_init(rng.child(f"w{i}"), *s, std) for i, s in enumerate(shapes)]
    return GatingModule(weights, gate)


class TestGatingForward:
    def test_zero_final_layer_gives_zero_gate(self, rng):
        mod = make_module(rng)
        mod.params[-1].value[:] = 0.0
        out, _ = mod.forward_values(np.random.default_rng(0).normal(size=(6, 7)))
        assert np.max(np.abs(out)) == 0.0

    def test_depth_zero_reduces_to_gate_fn(self):
        mod = GatingModule([np.array([[1.0, 0.0]])], GateFn.ABS_SIGMOID)
        out, trace = mod.forward_values(np.array([[math.log(3)], [7.0]]))
        assert out[0] == pytest.approx(0.5, abs=1e-12)
        assert len(trace) == 1

    def test_orthogonal_final_layer_kills_span(self):
        # depth 0: input in span(e1), final row orthogonal to it
        mod = GatingModule([np.array([[0.0, 2.0]])], GateFn.ABS_SIGMOID)
        out, _ = mod.forward_values(np.array([[5.0], [0.0]]))
        assert abs(out[0]) <= 1e-9

    def test_trace_shapes(self, rng):
        mod = make_module(rng, d=6, w=4)
        out, trace = mod.forward_values(np.zeros((6, 3)))
        assert [t.shape[0] for t in trace] == [6, 4, 6]
        assert all(t.shape[1] == 3 for t in trace)

    def test_output_in_unit_interval(self, rng):
        mod = make_module(rng, std=2.0)
        x = np.random.default_rng(1).normal(size=(6, 64))
        out, _ = mod.forward_values(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_node_and_value_paths_agree(self, rng):
        # `forward_values` reads `forward`'s row and trace, and both equal
        # the oracle graph's byte for byte.
        mod = make_module(rng)
        x = np.random.default_rng(2).normal(size=(6, 5))
        row, cache = mod.forward(x)
        vals, trace_v = mod.forward_values(x)
        node = coefficient_nodes([mod], gr.constant(x))[0]
        assert row.tobytes() == node.value.tobytes() == vals.reshape(1, -1).tobytes()
        assert [a.tobytes() for a in cache.trace] == [b.tobytes() for b in trace_v]

    def test_shape_mismatch(self, rng):
        mod = make_module(rng)
        with pytest.raises(ShapeMismatch):
            mod.forward_values(np.zeros((5, 2)))

    def test_nonfinite_pre_gate_rejected(self, rng):
        mod = make_module(rng)
        x = np.zeros((6, 3))
        x[2, 1] = np.nan
        with pytest.raises(NonFinite):
            mod.forward(x)


def memory_from_module(module, inputs, eps=1.0):
    mem = SubspaceMemory(module.input_dims, eps)
    _, trace = module.forward_values(inputs)
    mem.extend_all([factor(basis, h) for basis, h in zip(mem.layers, trace)])
    return mem


class TestInitNewGating:
    def test_first_task_projection_is_noop(self, rng):
        shapes = gating_layer_shapes(6, 4)
        mem = SubspaceMemory([s[1] for s in shapes], 0.99)
        mod = init_new_gating(
            None, mem, Rng(3), shapes=shapes, gate=GateFn.ABS_SIGMOID
        )
        # same stream without projection must give identical weights
        raw = [
            gaussian_init(Rng(3), *s, 0.02)
            for s in shapes[:-1]
        ]
        again = init_new_gating(
            None, mem, Rng(3), shapes=shapes, gate=GateFn.ABS_SIGMOID,
            project_final=False,
        )
        for a, b in zip(mod.params, again.params):
            assert np.array_equal(a.value, b.value)

    def test_hidden_layers_copied_from_previous(self, rng):
        prev = make_module(rng)
        mem = SubspaceMemory(prev.input_dims, 0.99)
        new = init_new_gating(
            prev, mem, Rng(5), shapes=gating_layer_shapes(6, 4),
            gate=GateFn.ABS_SIGMOID,
        )
        for a, b in zip(new.params[:-1], prev.params[:-1]):
            assert np.array_equal(a.value, b.value)

    def test_full_memory_zeroes_final_layer(self, rng):
        prev = make_module(rng)
        mem = SubspaceMemory(prev.input_dims, 1.0)
        mem.layers[-1] = SubspaceBasis(6, np.eye(6))
        new = init_new_gating(
            prev, mem, Rng(7), shapes=gating_layer_shapes(6, 4),
            gate=GateFn.ABS_SIGMOID,
        )
        assert np.max(np.abs(new.params[-1].value)) <= 1e-12
        out, _ = new.forward_values(np.random.default_rng(0).normal(size=(6, 9)))
        assert np.max(np.abs(out)) <= 1e-12

    def test_projection_residual(self, rng):
        # few old samples, so the captured span leaves a real complement
        prev = make_module(rng)
        x = np.random.default_rng(4).normal(size=(6, 3))
        mem = memory_from_module(prev, x)
        new = init_new_gating(
            prev, mem, Rng(11), shapes=gating_layer_shapes(6, 4),
            gate=GateFn.ABS_SIGMOID,
        )
        final = new.params[-1].value
        basis = mem.layers[2].basis
        assert np.max(np.abs(basis.T @ final.T)) <= 1e-9 * max(
            np.max(np.abs(final)), 1e-30
        )

    def test_zero_gate_on_old_span_inputs(self, rng):
        prev = make_module(rng)
        x = np.random.default_rng(8).normal(size=(6, 10))
        mem = memory_from_module(prev, x)
        new = init_new_gating(
            prev, mem, Rng(13), shapes=gating_layer_shapes(6, 4),
            gate=GateFn.ABS_SIGMOID,
        )
        out, _ = new.forward_values(x)
        assert np.max(np.abs(out)) <= 1e-8

    def test_dim_mismatch(self, rng):
        mem = SubspaceMemory([5, 4, 6], 0.99)
        with pytest.raises(DimMismatch):
            init_new_gating(
                None, mem, Rng(1), shapes=gating_layer_shapes(6, 4),
                gate=GateFn.ABS_SIGMOID,
            )


class TestConstrainUpdate:
    def test_empty_basis_unchanged(self):
        delta = np.arange(6.0).reshape(2, 3)
        out = constrain_update(delta, SubspaceBasis(3))
        assert np.array_equal(out, delta)

    def test_basis_row_annihilated(self):
        basis = SubspaceBasis(3, np.array([[1.0], [0.0], [0.0]]))
        delta = np.array([[1.0, 0.0, 0.0]])
        assert np.max(np.abs(constrain_update(delta, basis))) <= 1e-12

    def test_orthogonal_component_untouched(self):
        basis = SubspaceBasis(3, np.array([[1.0], [0.0], [0.0]]))
        delta = np.array([[2.0, 3.0, 4.0]])  # e1 component + orthogonal part
        out = constrain_update(delta, basis)
        assert np.allclose(out, [[0.0, 3.0, 4.0]])

    def test_scaled_residual(self):
        gen = np.random.default_rng(6)
        q, _ = np.linalg.qr(gen.normal(size=(8, 3)))
        basis = SubspaceBasis(8, q)
        delta = gen.normal(size=(4, 8))
        out = constrain_update(delta, basis)
        assert np.max(np.abs(out @ q)) <= 1e-9 * np.max(np.abs(delta))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            constrain_update(np.zeros((2, 4)), SubspaceBasis(3))


class TestInvarianceUnderConstrainedTraining:
    def train(self, module, mem, x_new, steps, constrained):
        opt = AdamW(module.params, lr=2e-2)
        transforms = {}
        if constrained:
            for i, p in enumerate(module.params):
                transforms[p] = (
                    lambda delta, b=mem.layers[i]: constrain_update(delta, b)
                )
        for _ in range(steps):
            out, cache = module.forward(x_new)
            module.backward(cache, upstream(out, lambda o: gr.smul(-1.0, total(o))))
            opt.step(transforms)

    def setup_pair(self, seed):
        # Old data must not excite every direction of the 6-dim layers:
        # with the span saturated the projected gate is identically zero
        # (correct, but then there is nothing left to train or contrast).
        rng = Rng(seed)
        prev = make_module(rng)
        gen = np.random.default_rng(seed)
        x_old = gen.normal(size=(6, 4))
        mem = memory_from_module(prev, x_old)
        new = init_new_gating(
            prev, mem, rng.child("new"), shapes=gating_layer_shapes(6, 4),
            gate=GateFn.ABS_SIGMOID,
        )
        # new-task inputs deliberately overlap the old span so unconstrained
        # training would disturb old responses
        x_new = 0.6 * np.repeat(x_old, 2, axis=1) + 0.4 * gen.normal(size=(6, 8))
        return new, mem, x_old, x_new

    def test_old_outputs_and_traces_pinned(self):
        module, mem, x_old, x_new = self.setup_pair(21)
        out0, trace0 = module.forward_values(x_old)
        self.train(module, mem, x_new, steps=120, constrained=True)
        out1, trace1 = module.forward_values(x_old)
        assert np.max(np.abs(out1 - out0)) <= 1e-6
        for a, b in zip(trace0, trace1):
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_unconstrained_training_moves_old_outputs(self):
        module, mem, x_old, x_new = self.setup_pair(21)
        out0, _ = module.forward_values(x_old)
        self.train(module, mem, x_new, steps=120, constrained=False)
        out1, _ = module.forward_values(x_old)
        assert np.max(np.abs(out1 - out0)) > 1e-2

    def test_training_still_learns_on_new_inputs(self):
        module, mem, x_old, x_new = self.setup_pair(33)
        before = module.forward_values(x_new)[0].mean()
        self.train(module, mem, x_new, steps=120, constrained=True)
        after = module.forward_values(x_new)[0].mean()
        assert after > before  # the gate can still open off the old span


class TestGateSequence:
    """A run's gate modules, one per task, each built from the one before
    (`init_new_gating`). Only the newest trains: the run holds it apart as
    `ContinualState.gate` until its task ends (see
    `test_only_the_training_gate_trains` in `test_continual.py`)."""

    def two_gates(self, rng):
        first = make_module(rng.child("a"))
        second = init_new_gating(
            first, SubspaceMemory(first.input_dims, 0.99), rng.child("b"),
            shapes=gating_layer_shapes(6, 4), gate=GateFn.ABS_SIGMOID,
        )
        return [first, second]

    def test_frozen_weights_bit_identical_after_training(self, rng):
        gates = self.two_gates(rng)
        old_bytes = [p.value.tobytes() for p in gates[0].params]
        mem = SubspaceMemory(gates[1].input_dims, 0.99)
        x = np.random.default_rng(0).normal(size=(6, 16))
        TestInvarianceUnderConstrainedTraining().train(
            gates[1], mem, x, steps=50, constrained=False
        )
        assert [p.value.tobytes() for p in gates[0].params] == old_bytes

    def test_coefficient_values_all_modules(self, rng):
        rows = coefficient_nodes(self.two_gates(rng), gr.constant(np.zeros((6, 4))))
        assert len(rows) == 2
        assert all(r.shape == (1, 4) for r in rows)
