import numpy as np
import pytest

from gatedlora.gating import GateFn
from gatedlora.model import _token_ids
from gatedlora.numerics import Rng

import graph as gr


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
    m, n = node.value.shape
    rows = gr.constant(np.full((1, m), 1.0 / m))
    cols = gr.constant(np.full((n, 1), 1.0 / n))
    return gr.matmul(gr.matmul(rows, node), cols)


def upstream(out, loss):
    """The gradient that the graph `loss(node)` hands back to a node of
    value `out`: what a hand-written backward pass receives from the rest
    of that graph."""
    leaf = gr.parameter(out)
    gr.backward(loss(leaf))
    return leaf.grad


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


# The chains of elementary nodes that the package's kernels stand for:
# `gate_mlp` (`gate_chain`), `add_branch` (`branch_chain`) and
# `row_space_penalty_grad` (`penalty_chain`). Each kernel's value and
# gradients must equal its chain's byte for byte.


def gate_chain(x, weights, absolute):
    """A gate network node by node: SiLU layers, the final row, then
    |2 sigmoid(b) - 1| as abs(2 sigmoid(b) + (-1) * ones) when `absolute`,
    else sigmoid(b). Returns the output node and every layer's input."""
    h = x
    trace = [h.value]
    for w in weights[:-1]:
        h = gr.silu(gr.matmul(w, h))
        trace.append(h.value)
    pre = gr.matmul(weights[-1], h)
    if not absolute:
        return gr.sigmoid(pre), trace
    ones = gr.constant(np.ones(pre.shape))
    return gr.absval(gr.add(gr.smul(2.0, gr.sigmoid(pre)), gr.smul(-1.0, ones))), trace


def coefficient_nodes(gates, pooled):
    """Every gate module's (1, n) output node on a pooled batch, each run
    fresh and node by node (`gate_chain`)."""
    return [
        gate_chain(pooled, m.params, m.gate is GateFn.ABS_SIGMOID)[0] for m in gates
    ]


def branch_chain(out, coeff, up, down, h):
    """out + coeff * (up @ (down @ h)) as matmul, matmul, scale_columns and
    add nodes; an array coefficient becomes a constant node."""
    if isinstance(coeff, np.ndarray):
        coeff = gr.constant(coeff)
    return gr.add(out, gr.scale_columns(coeff, gr.matmul(up, gr.matmul(down, h))))


def penalty_chain(x, s, lam):
    """lam * tr(X S X^T) as a scalar multiply of the unweighted penalty
    node, whose gradient is 2 X S."""
    return gr.smul(lam, gr.row_space_penalty(x, s))


def branch_sum(layer, coeffs, h):
    """W h + sum_i a_i * up_i(down_i h) over the layer's first len(coeffs)
    branches, one `branch_chain` per branch: the per-branch oracle that
    `AdaptedLinear.forward` and `backward` must match byte for byte, value
    and gradients."""
    out = gr.matmul(gr.constant(layer.weight), h)
    for a_i, branch in zip(coeffs, layer.branches):
        out = branch_chain(out, a_i, branch.up, branch.down, h)
    return out


def oracle_forward(model, coeffs, pooled):
    """`ToyBackbone.forward` as a graph, every adapted layer summed by
    `branch_sum`: logits node and each adapted layer's input."""
    h = pooled
    inputs = []
    for i, layer in enumerate(model.adapted_layers):
        if i:
            h = gr.silu(h)
        inputs.append(h.value)
        h = branch_sum(layer, coeffs, h)
    return gr.matmul(gr.constant(model.head), h), inputs
