"""AdamW over autodiff parameter leaves.

Only the learning rate is set per optimizer. The rest is fixed: moment
decay rates beta1 = 0.9 and beta2 = 0.999, eps = 1e-8 in the step's
denominator and decoupled weight decay 0.01. The decay folds into the
proposed step, and an optional per-parameter transform is applied to
that full step before the parameter moves. The gating constraints hook
in there: projecting the final delta (moments and decay included) is
what actually guarantees the update never touches the protected
subspace, since Adam steps are not parallel to raw gradients.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .autodiff import DiffNode

DeltaTransform = Callable[[np.ndarray], np.ndarray]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    def __init__(self, params: list[DiffNode], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(
        self, transforms: Optional[dict[DiffNode, DeltaTransform]] = None
    ) -> None:
        """Apply one update from the gradients currently on the params.

        transforms maps a param node to a callable reshaping that param's
        proposed delta (projection constraints plug in here). Gradients
        are consumed: they are cleared after the step.
        """
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * g
            self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            delta = -self.lr * (
                m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * p.value
            )
            if transforms and p in transforms:
                delta = transforms[p](delta)
            p.value = p.value + delta
            p.grad = None
