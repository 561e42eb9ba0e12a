import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.numerics import Rng


@pytest.fixture
def rng():
    return Rng(1234)


def finite_difference(fn, params, h=1e-5):
    """Central-difference gradients of a scalar fn w.r.t. a list of arrays.

    fn(params) must rebuild its computation from scratch each call and
    return a float. This is the independent oracle for every analytic
    gradient in the package.
    """
    grads = []
    for k, p in enumerate(params):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ij = it.multi_index
            orig = p[ij]
            p[ij] = orig + h
            up = fn(params)
            p[ij] = orig - h
            down = fn(params)
            p[ij] = orig
            g[ij] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def total(node):
    """Collapse any (m, n) node to 1x1, the mean of its entries, by
    matmuls with constant vectors of 1/m and 1/n."""
    m, n = node.shape
    rows = ad.constant(np.full((1, m), 1.0 / m))
    cols = ad.constant(np.full((n, 1), 1.0 / n))
    return ad.matmul(ad.matmul(rows, node), cols)


def assert_close_rel(actual, expected, rel=1e-4, floor=1e-6):
    """Relative comparison with an absolute floor for near-zero entries."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    denom = np.maximum(np.abs(expected), floor)
    err = np.max(np.abs(actual - expected) / denom)
    assert err <= rel, f"max relative error {err:.3e} > {rel:.0e}"
