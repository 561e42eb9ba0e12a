"""AdamW over `Param` leaves, in one pass over flat vectors.

Only the learning rate is set per optimizer. The rest is fixed: moment
decay rates beta1 = 0.9 and beta2 = 0.999, eps = 1e-8 in the step's
denominator and decoupled weight decay 0.01. The decay folds into the
proposed step, and an optional per-parameter transform is applied to
that full step before the parameter moves. The gating constraints hook
in there: projecting the final delta (moments and decay included) is
what actually guarantees the update never touches the protected
subspace, since Adam steps are not parallel to raw gradients.

The moments of all parameters live in two flat vectors, updated in
place. A step gathers the gradients, every parameter's (a backward pass
sets each trainable weight's), and values once and applies each
elementwise operation to every parameter at the same time; elementwise
IEEE arithmetic rounds each entry on its own, so the result is
bit-identical to updating the parameters one at a time. Each parameter
then moves by its slice of the flat delta into a new array of its own:
no value is written in place, because a forward's cache and the layers'
frozen-branch stacks hold values, and no parameter's value keeps
another's storage alive once it is frozen.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .autodiff import Param

DeltaTransform = Callable[[np.ndarray], np.ndarray]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    def __init__(self, params: list[Param], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        sizes = [p.value.size for p in self.params]
        self._spans = [slice(e - n, e) for n, e in zip(sizes, np.cumsum(sizes))]
        self._m = np.zeros(sum(sizes))
        self._v = np.zeros(sum(sizes))

    def step(
        self, transforms: Optional[dict[Param, DeltaTransform]] = None
    ) -> None:
        """Apply one update from the gradients currently on the params.

        transforms maps a param node to a callable reshaping that param's
        proposed delta (projection constraints plug in here). Gradients
        are consumed: they are cleared after the step. ValueError, before
        anything moves, when a param holds no gradient.
        """
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"param {i} of {len(self.params)} ({p.value.shape}) has no gradient")
        self.step_count += 1
        if not self.params:
            return
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        g = np.concatenate([p.grad.ravel() for p in self.params])
        value = np.concatenate([p.value.ravel() for p in self.params])
        # The per-parameter update's operations in its order:
        # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g in place, then
        # delta = -lr ((m / bc1) / (sqrt(v / bc2) + eps) + decay value).
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += EPS
        delta = m / bc1
        delta /= denom
        value *= WEIGHT_DECAY
        delta += value
        delta *= -self.lr
        for p, span in zip(self.params, self._spans):
            step = delta[span].reshape(p.value.shape)
            if transforms and p in transforms:
                step = transforms[p](step)
            p.value = p.value + step
            p.grad = None
