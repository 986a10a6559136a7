"""Scheme parameters shared by the analytic and simulation layers."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


def node_count_float(n: int) -> float:
    """``float(n)``, or ValueError when ``n`` exceeds the largest float64."""
    if n > sys.float_info.max:
        raise ValueError(
            f"n must be at most {sys.float_info.max!r}, the largest float64; "
            f"got an integer of {n.bit_length()} bits"
        )
    return float(n)


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of the three-phase cooperative update scheme.

    ``n`` nodes are partitioned into ``n // m`` cells of ``m`` nodes each.
    In-cell transmission delays are i.i.d. exponential with rate
    ``lambda_intra``; cell-to-cell delays are i.i.d. exponential with rate
    ``lambda_inter``.
    """

    n: int
    m: int
    lambda_intra: float = 1.0
    lambda_inter: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(
                f"n must be >= 2 (a node is never its own destination), got {self.n}"
            )
        node_count_float(self.n)
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if self.m > self.n:
            raise ValueError(f"m={self.m} exceeds n={self.n}")
        if self.n % self.m != 0:
            raise ValueError(
                f"n={self.n} is not divisible by m={self.m}; the model uses "
                f"exactly n/m cells of m nodes each"
            )
        for name in ("lambda_intra", "lambda_inter"):
            rate = getattr(self, name)
            if not 0 < rate < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {rate}")

    @property
    def cells(self) -> int:
        return self.n // self.m

    @property
    def b(self) -> float:
        """Cell-size exponent: the b solving m = n**b (1.0 when n == m)."""
        if self.n == self.m:
            return 1.0
        return math.log(self.m) / math.log(self.n)
