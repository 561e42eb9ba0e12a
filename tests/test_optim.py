import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.optim import AdamW


def first_step_setup():
    p = ad.parameter([[2.0, -1.0]])
    p.grad = np.array([[0.5, -0.25]])
    opt = AdamW([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
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


def test_param_without_gradient_is_skipped():
    p = ad.parameter([[1.0]])
    AdamW([p], lr=0.1).step()
    assert np.array_equal(p.value, [[1.0]])
