"""Directed-rounding interval arithmetic over 64-bit floats.

Only what the exclusion bounds' sqrt thresholds need: *, /, log2, and
decisions against exact rationals.  Every float operation is widened
outward by one ulp (two for log2, whose libm implementation is faithful but
not exactly rounded), so the true real value always lies inside its
interval.  Decisions
taken through :func:`compare_ge` and :func:`ceil_of` are therefore reliable;
when an interval straddles the decision boundary they return ``None`` and
the caller must treat the comparison as unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Exact = Union[int, Fraction]


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: Exact) -> "Interval":
        q = Fraction(value)
        f = float(q)
        if Fraction(f) == q:
            return cls(f, f)
        return cls(_down(f), _up(f))

    def __mul__(self, o: "Interval") -> "Interval":
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Interval(_down(min(products)), _up(max(products)))

    def __truediv__(self, o: "Interval") -> "Interval":
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"divisor interval [{o.lo}, {o.hi}] contains zero")
        quotients = (
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        )
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def log2(self) -> "Interval":
        if self.lo <= 0.0:
            raise ValueError(f"log2 needs a positive interval, got [{self.lo}, {self.hi}]")
        return Interval(
            _down(_down(math.log2(self.lo))),
            _up(_up(math.log2(self.hi))),
        )


def ceil_of(interval: Interval) -> int | None:
    """Exact ceiling of the true value, or None when the interval is ambiguous."""
    lo = math.ceil(Fraction(interval.lo))
    hi = math.ceil(Fraction(interval.hi))
    return lo if lo == hi else None


def compare_ge(exact: Exact, interval: Interval) -> bool | None:
    """Decide ``exact >= x`` for the true value x inside the interval.

    Returns ``True`` or ``False`` only when the whole interval agrees, and
    ``None`` when the exact value falls strictly inside it.
    """
    q = Fraction(exact)
    if q >= Fraction(interval.hi):
        return True
    if q < Fraction(interval.lo):
        return False
    return None
