"""Adam with decoupled weight decay, and Polyak parameter averaging.

Both operate on a flat float64 parameter vector.  Weight decay is applied
outside the adaptive step: with learning rate zero the parameters still
shrink by exactly ``(1 - weight_decay)`` per step.  The Polyak shadow is
a debiased exponential moving average, i.e. a proper decay-weighted
average of the parameter trajectory (weights summing to one), used for
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamW:
    size: int
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.lr < 0 or not (0 <= self.beta1 < 1) or not (0 <= self.beta2 < 1):
            raise ValueError("invalid Adam hyperparameters")
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The updated parameters, a fresh vector; ``m`` and ``v`` are updated
        in place, with the float operations of the textbook expressions."""
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        sq = (1.0 - self.beta2) * grad
        sq *= grad
        self.v *= self.beta2
        self.v += sq
        update = self.m / (1.0 - self.beta1**self.t)  # lr * m_hat / (sqrt(v_hat) + eps)
        update *= self.lr
        denom = np.divide(self.v, 1.0 - self.beta2**self.t, out=sq)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        out = params - update
        out -= self.weight_decay * params
        return out


@dataclass
class PolyakAverage:
    decay: float = 0.999
    shadow: np.ndarray | None = None
    count: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.decay < 1.0):
            raise ValueError("polyak decay must lie in [0, 1)")

    def update(self, params: np.ndarray) -> None:
        if self.shadow is None:
            self.shadow = np.zeros_like(params)
        self.shadow *= self.decay
        self.shadow += (1.0 - self.decay) * params
        self.count += 1

    def average(self, fallback: np.ndarray | None = None) -> np.ndarray:
        """Debiased average; before any update returns the fallback."""
        if self.count == 0:
            if fallback is None:
                raise ValueError("no updates yet and no fallback given")
            return fallback.copy()
        return self.shadow / (1.0 - self.decay**self.count)
