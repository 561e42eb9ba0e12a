import numpy as np
import pytest

from gatedlora import autodiff as ad
from gatedlora.model import _token_ids
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


def pool_embed(tokens, embedding):
    """Mean of the embedding rows indexed by a token-id sequence, as a
    column vector (d, 1): the oracle of pooling, which the batched gather
    in `gatedlora.model` must match byte for byte."""
    ids = _token_ids(tokens, embedding.shape[0])
    return embedding[ids].mean(axis=0).reshape(-1, 1)


def coefficient_nodes(gates, pooled):
    """Every gate module's (1, n) output node on a pooled batch, each run
    fresh."""
    return [m.forward_node(pooled)[0] for m in gates]


def branch_sum(layer, coeffs, h):
    """W h + sum_i a_i * up_i(down_i h) over the layer's first len(coeffs)
    branches, one matmul, scale_columns and add node per step: the
    per-branch oracle `AdaptedLinear.forward_node` must match byte for
    byte, value and gradients."""
    out = ad.matmul(ad.constant(layer.weight), h)
    for a_i, branch in zip(coeffs, layer.branches):
        contrib = ad.matmul(branch.up, ad.matmul(branch.down, h))
        out = ad.add(out, ad.scale_columns(a_i, contrib))
    return out


def oracle_forward(model, coeffs, pooled):
    """`ToyBackbone.forward_node` with every adapted layer summed by
    `branch_sum`: logits node and each adapted layer's input."""
    h = pooled
    inputs = []
    for i, layer in enumerate(model.adapted_layers):
        if i:
            h = ad.silu(h)
        inputs.append(h.value)
        h = branch_sum(layer, coeffs, h)
    return ad.matmul(ad.constant(model.head), h), inputs


def graph_size(node):
    """Number of nodes reachable from `node` through recorded parents,
    `node` included: the nodes a backward pass from it visits."""
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.parents)
    return len(seen)
