import numpy as np
import pytest

from gatedlora import continual, subspace
from gatedlora.adapter import expand_branch
from gatedlora.gating import GateFn
from gatedlora.model import _token_ids
from gatedlora.numerics import Rng

import graph as gr


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def eigensolves(monkeypatch):
    """A list that gains the input's shape per `sym_eig` call the package
    makes. `subspace.factor` is its one caller in src
    (`test_only_subspace_factor_eigendecomposes`), so the count is taken at
    the name it calls: `subspace.sym_eig`."""
    calls = []
    solve = subspace.sym_eig
    monkeypatch.setattr(subspace, "sym_eig", lambda a: calls.append(a.shape) or solve(a))
    return calls


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


def sequences(ds):
    """A `Dataset`'s sequences unpacked from `ids` and `lengths`, each a
    list of ints."""
    starts = np.cumsum(ds.lengths) - ds.lengths
    return [ds.ids[s : s + n].tolist() for s, n in zip(starts, ds.lengths)]


def pool_embed(tokens, embedding):
    """Mean of the embedding rows indexed by a token-id sequence, as a
    column vector (d, 1): the oracle of pooling, which the batched gather
    in `gatedlora.model` must match byte for byte."""
    ids = _token_ids(tokens, embedding.shape[0])
    return embedding[ids].mean(axis=0).reshape(-1, 1)


# The chains of elementary nodes that the package's kernels stand for:
# `gate_mlp` (`gate_chain`), `add_branch` (`branch_chain`),
# `lowrank_sum` (`lowrank_chain`) and
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
    add nodes; an array coefficient or down (an InfLoRA branch's designed
    rows) becomes a constant node."""
    coeff, down = (gr.constant(a) if isinstance(a, np.ndarray) else a for a in (coeff, down))
    return gr.add(out, gr.scale_columns(coeff, gr.matmul(up, gr.matmul(down, h))))


def penalty_chain(x, s, lam):
    """lam * tr(X S X^T) as a scalar multiply of the unweighted penalty
    node, whose gradient is 2 X S."""
    return gr.smul(lam, gr.row_space_penalty(x, s))


def lowrank_chain(weight, coeffs, ups, downs, h):
    """`lowrank_sum`'s chain over constants: with A each (1, n) row of the
    (k, 1, n) coeffs repeated for its term's r rows,
    add(matmul(W, h), matmul(U, scale_columns(A, matmul(D, h)))), where U
    is the (m, k r) ups side by side and D the (k r, d) downs stacked;
    matmul(W, h) alone when k is 0."""
    out = gr.matmul(gr.constant(weight), h)
    if not len(coeffs):
        return out
    return gr.add(out, terms_chain(coeffs, ups, downs, h))


def terms_chain(coeffs, ups, downs, h):
    """The k terms of `lowrank_chain` without W h:
    matmul(U, scale_columns(A, matmul(D, h)))."""
    scale = np.repeat(coeffs[:, 0], downs.shape[0] // len(coeffs), axis=0)
    down_h = gr.matmul(gr.constant(downs), h)
    return gr.matmul(gr.constant(ups), gr.scale_columns(gr.constant(scale), down_h))


def frozen_chain(layer, branches, coeffs, h):
    """W h plus the layer's frozen branches, the first `layer.frozen_count`
    of `branches`, as one `lowrank_chain` built from their own halves,
    never from the layer's stacks, each weighted by its coefficient (an
    array, or a node whose value is read as a constant)."""
    k = layer.frozen_count
    lead = branches[:k]
    rows = [a if isinstance(a, np.ndarray) else a.value for a in coeffs[:k]]
    return lowrank_chain(
        layer.weight,
        np.reshape(rows, (k, 1, h.value.shape[1])),
        np.concatenate([np.empty((layer.out_dim, 0))] + [b.up.value for b in lead], axis=1),
        np.concatenate([np.empty((0, layer.in_dim))] + [b.down_value for b in lead]),
        h,
    )


def branch_sum(layer, branches, coeffs, h, frozen=None):
    """W h + sum_i a_i * up_i(down_i h) over `branches`, every branch
    `expand_branch` returned for the layer, oldest first, each weighted by
    its coefficient: the oracle that `AdaptedLinear.forward` and `backward`
    must match byte for byte, value and gradients. The layer's frozen
    branches are one `frozen_chain`, or the node `frozen` when given (a
    held pool's `running_sum`); the trainable one after them is one
    `branch_chain`."""
    assert len(branches) == len(coeffs) == layer.n_branches
    k = layer.frozen_count
    out = frozen_chain(layer, branches, coeffs, h) if frozen is None else frozen
    for a_i, branch in zip(coeffs[k:], branches[k:]):
        out = branch_chain(out, a_i, branch.up, branch.down, h)
    return out


def running_sum(layer, coeffs, h, last):
    """The oracle of a held pool's memo of the layer's frozen output
    (`continual.Pool.frozen`) as the pool is read once after each task: at
    the first read (`last` None) the layer's `frozen_chain`; at each later
    one `last`'s node plus one `terms_chain` per branch frozen since, in
    task order. Branches are read from `EXPANDED`, each weighted by its
    coefficient in `coeffs`. Returns the node and how many frozen branches
    it holds, the `last` of the next read."""
    k = layer.frozen_count
    branches = EXPANDED.get(layer, [])
    if last is None:
        return frozen_chain(layer, branches, coeffs, h), k
    out, j = last
    for a, branch in zip(coeffs[j:k], branches[j:k]):
        row = a if isinstance(a, np.ndarray) else a.value
        out = gr.add(out, terms_chain(row[None], branch.up.value, branch.down_value, h))
    return out, k


# Every branch `expand_branch` has returned in a `continual` run, per
# adapted layer, oldest first (`record_branches`). A branch keeps the
# halves it trained, and once frozen nothing changes them, so the oracles
# read each branch from here.
EXPANDED = {}


@pytest.fixture
def record_branches(monkeypatch):
    """Record in `EXPANDED` every branch that `learn_task` expands during
    the test, and empty it after."""

    def recording(layer, *args, **kwargs):
        branch = expand_branch(layer, *args, **kwargs)
        EXPANDED.setdefault(layer, []).append(branch)
        return branch

    monkeypatch.setattr(continual, "expand_branch", recording)
    yield
    EXPANDED.clear()


def oracle_forward(model, coeffs, pooled, frozen=None):
    """`ToyBackbone.forward` as a graph, every adapted layer summed by
    `branch_sum` over its branches in `EXPANDED`, the first on the node
    `frozen` of its frozen output when given: logits node and each adapted
    layer's input."""
    h = pooled
    inputs = []
    for i, layer in enumerate(model.adapted_layers):
        if i:
            h = gr.silu(h)
        inputs.append(h.value)
        h = branch_sum(layer, EXPANDED.get(layer, []), coeffs, h, None if i else frozen)
    return gr.matmul(gr.constant(model.head), h), inputs
