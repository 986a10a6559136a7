"""Scheme parameters shared by the analytic and simulation layers."""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass


def integer_at_least(name: str, value, minimum: int, why: str = "") -> int:
    """``value`` as an ``int``, or ValueError unless it is a Python or numpy
    integer, not a bool, of at least ``minimum`` (``why`` follows the bound)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}{why}, got {value}")
    return int(value)


def finite_positive(name: str, value) -> float:
    """``value`` as a ``float``, or ValueError unless it is a real number, not
    a bool, above 0 and at most the largest float64."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf:
        with contextlib.suppress(OverflowError):  # an integer beyond the largest float64
            return float(value)
    raise ValueError(f"{name} must be finite and > 0, got {value}")


def cell_exponent(b) -> float:
    """The cell exponent ``b`` of ``m = n**b`` as a ``float``, or ValueError
    unless it is a real number, not a bool, in (0, 1]."""
    if isinstance(b, bool) or not (isinstance(b, numbers.Real) and 0 < b <= 1):
        raise ValueError(f"b must lie in (0, 1], got {b}")
    return float(b)


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
        n = integer_at_least("n", self.n, 2, " (a node is never its own destination)")
        node_count_float(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", integer_at_least("m", self.m, 1))
        if self.m > self.n:
            raise ValueError(f"m={self.m} exceeds n={self.n}")
        if self.n % self.m != 0:
            raise ValueError(
                f"n={self.n} is not divisible by m={self.m}; the model uses "
                f"exactly n/m cells of m nodes each"
            )
        for name in ("lambda_intra", "lambda_inter"):
            object.__setattr__(self, name, finite_positive(name, getattr(self, name)))

    @property
    def cells(self) -> int:
        return self.n // self.m

    @property
    def b(self) -> float:
        """Cell-size exponent: the b solving m = n**b (1.0 when n == m)."""
        if self.n == self.m:
            return 1.0
        return math.log(self.m) / math.log(self.n)
