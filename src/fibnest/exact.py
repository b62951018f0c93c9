"""Exact rational scalars, fractional parts, distance to the nearest
integer, and closed rational-endpoint subintervals of [0, 1].

Everything in this module is exact Fraction arithmetic; no floats.
Intervals are closed on both ends: membership is tested on exact
rationals, so keeping endpoints is the safe uniform choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

# The universal exact scalar of the package.
Rat = Fraction

RatLike = Union[Rat, int, str]


def frac(q: RatLike) -> Rat:
    """Fractional part q - floor(q), always in [0, 1)."""
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


def dist_int(q: RatLike) -> Rat:
    """Distance from q to the nearest integer, in [0, 1/2]."""
    f = frac(q)
    return min(f, 1 - f)


@dataclass(frozen=True)
class UnitInterval:
    """Closed subinterval [lo, hi] of [0, 1] with rational endpoints."""

    lo: Rat
    hi: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> Rat:
        return self.hi - self.lo

    def __contains__(self, q: RatLike) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi


FULL_INTERVAL = UnitInterval(Fraction(0), Fraction(1))


def trim(interval: UnitInterval, keep_fraction: RatLike, anchor: str) -> UnitInterval:
    """Shrink an interval to keep_fraction of its length.

    anchor='left' keeps the left end fixed; anchor='middle' keeps the
    midpoint fixed. keep_fraction must lie in (0, 1].
    """
    keep = Fraction(keep_fraction)
    if not 0 < keep <= 1:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep}")
    span = interval.length * keep
    if anchor == "left":
        return UnitInterval(interval.lo, interval.lo + span)
    if anchor == "middle":
        pad = (interval.length - span) / 2
        return UnitInterval(interval.lo + pad, interval.hi - pad)
    raise ValueError(f"anchor must be 'left' or 'middle', got {anchor!r}")


# ---- rendering ----

DECIMAL_DIGITS = 50


def rat_str(q: Rat) -> str:
    """Lossless 'p/q' form, denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(q: Rat, digits: int = DECIMAL_DIGITS) -> str:
    """Fixed-point decimal rendering with round-half-even, done on
    integers so the result is exact for every Fraction."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    scale = 10**digits
    num, den = q.numerator * scale, q.denominator
    t = num // den
    rem2 = 2 * (num - t * den)
    if rem2 > den or (rem2 == den and t % 2 != 0):
        t += 1
    sign = "-" if t < 0 else ""
    whole, digits_part = divmod(abs(t), scale)
    return f"{sign}{whole}.{digits_part:0{digits}d}"
