import numpy as np
import pytest

from gatedlora.autodiff import Param
from gatedlora.optim import BETA1, BETA2, EPS, WEIGHT_DECAY, AdamW


def first_step_setup():
    p = Param([[2.0, -1.0]])
    p.grad = np.array([[0.5, -0.25]])
    opt = AdamW([p], lr=0.1)
    return p, opt


# On the first step the bias-corrected moments are g and g**2, so the Adam
# part is g / (|g| + eps): 1/(1 + 2e-8) and -1/(1 + 4e-8). Decay adds
# 0.01 * value; lr scales both.
#   -0.1 * ( 0.99999998 + 0.01 *  2.0) = -0.101999998
#   -0.1 * (-0.99999996 + 0.01 * -1.0) =  0.100999996
FIRST_DELTA = [[-0.101999998, 0.100999996]]


def test_first_step_transform_sees_decay_inclusive_delta():
    p, opt = first_step_setup()
    seen = []

    def transform(delta):
        seen.append(delta.copy())
        return np.zeros_like(delta)

    opt.step({p: transform})
    assert seen[0] == pytest.approx(np.array(FIRST_DELTA), rel=1e-12)
    # The transform owns the whole step: zeroing it also cancels the decay.
    assert np.array_equal(p.value, [[2.0, -1.0]])
    assert p.grad is None


def test_first_step_without_transform():
    p, opt = first_step_setup()
    opt.step()
    assert p.value == pytest.approx(np.array([[2.0, -1.0]]) + FIRST_DELTA, rel=1e-12)


def test_param_without_gradient_raises():
    # An optimizer holds only what trains, and every step's backward pass
    # sets each of its gradients: a missing one is an error, named, and
    # nothing moves.
    p, q = Param([[1.0]]), Param([[2.0, 3.0]])
    p.grad = np.array([[0.5]])
    opt = AdamW([p, q], lr=0.1)
    with pytest.raises(ValueError, match=r"param 1 of 2 \(\(1, 2\)\) has no gradient"):
        opt.step()
    assert opt.step_count == 0
    assert np.array_equal(p.value, [[1.0]]) and np.array_equal(p.grad, [[0.5]])
    assert np.array_equal(q.value, [[2.0, 3.0]])
    assert not opt._m.any() and not opt._v.any()


def reference_adamw_step(params, m, v, step_count, lr, transforms=None):
    """AdamW step number `step_count` (from 1), one parameter at a time,
    with each parameter's moments in the lists `m` and `v` (updated in
    place): the oracle `AdamW.step` must match byte for byte."""
    bc1 = 1.0 - BETA1**step_count
    bc2 = 1.0 - BETA2**step_count
    for i, p in enumerate(params):
        g = p.grad
        m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
        v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g
        m_hat = m[i] / bc1
        v_hat = v[i] / bc2
        delta = -lr * (m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * p.value)
        if transforms and p in transforms:
            delta = transforms[p](delta)
        p.value = p.value + delta
        p.grad = None


SHAPES = [(3, 4), (1, 5), (6, 2), (4, 1)]


def test_one_pass_step_matches_per_parameter_loop():
    # Mixed shapes, a projecting transform on param 0 and one
    # Fortran-ordered gradient: values and the transform's inputs are
    # byte-equal to the loop's on every step, and no step writes a value in
    # place.
    gen = np.random.default_rng(3)
    start = [gen.normal(size=s) for s in SHAPES]
    u = gen.normal(size=(4, 1))
    u /= np.linalg.norm(u)
    ours = [Param(a) for a in start]
    theirs = [Param(a) for a in start]
    seen = {"ours": [], "theirs": []}

    def project(key):
        def transform(delta):
            seen[key].append(delta.tobytes())
            return delta - (delta @ u) @ u.T

        return transform

    opt = AdamW(ours, lr=0.05)
    m = [np.zeros(s) for s in SHAPES]
    v = [np.zeros(s) for s in SHAPES]
    for step in range(1, 7):
        for i, s in enumerate(SHAPES):
            g = gen.normal(size=s)
            if i == 2 and step == 3:
                g = np.asfortranarray(g)
            ours[i].grad, theirs[i].grad = g, g.copy()
        before = [(p.value, p.value.tobytes()) for p in ours]
        opt.step({ours[0]: project("ours")})
        reference_adamw_step(theirs, m, v, step, 0.05, {theirs[0]: project("theirs")})
        for i, (a, b) in enumerate(zip(ours, theirs)):
            assert a.value.tobytes() == b.value.tobytes(), f"param {i}, step {step}"
            assert a.value.shape == b.value.shape and a.grad is None
        for value, old in before:
            assert value.tobytes() == old
        assert seen["ours"] == seen["theirs"]
    assert len(seen["ours"]) == 6
    assert opt.step_count == 6


def test_empty_parameter_list():
    opt = AdamW([], lr=0.1)
    opt.step()
    opt.step({})
    assert opt.step_count == 2
