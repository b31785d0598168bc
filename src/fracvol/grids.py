"""Uniform time grids."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = horizon with n = steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (is_integer(self.steps) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def is_integer(value) -> bool:
    """True for an integer of any integral type, False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
