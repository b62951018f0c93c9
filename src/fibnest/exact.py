"""Exact rational scalars, closed rational-endpoint subintervals of
[0, 1], and their renderings.

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


@dataclass(frozen=True)
class UnitInterval:
    """Closed subinterval [lo, hi] of [0, 1] with rational endpoints."""

    lo: Rat
    hi: Rat

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = Fraction(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
            object.__setattr__(self, "hi", hi)
        # 0 <= lo <= hi <= 1, decided on integers (denominators are positive)
        if not (
            lo.numerator >= 0
            and lo.numerator * hi.denominator <= hi.numerator * lo.denominator
            and hi.numerator <= hi.denominator
        ):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")

    @property
    def length(self) -> Rat:
        return self.hi - self.lo

    def __contains__(self, q: RatLike) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi


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
