"""Exact threshold comparisons against golden-ratio constants in Q(sqrt5).

Quad holds a + b*sqrt(5) with rational a, b, and has only what the
package forms with it: Quad.of lifts a rational, subtraction takes a
rational minus a constant such as 2/(3+sqrt5), sign() decides the result,
and __str__ and decimal() render it. Every decision is
(Quad.of(r) - C).sign(), so no ordering is needed. sign() works on
integers, squaring out the radical, never by floating point. Decimal
rendering uses isqrt bounds; ties cannot occur when the radical part is
nonzero because sqrt5 is irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .exact import DECIMAL_DIGITS, Rat, rat_decimal

QuadLike = Union["Quad", Rat, int]


@dataclass(frozen=True)
class Quad:
    """The exact value a + b*sqrt(5) with rational a, b."""

    a: Rat
    b: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def of(value: QuadLike) -> "Quad":
        if isinstance(value, Quad):
            return value
        return Quad(Fraction(value), Fraction(0))

    def __sub__(self, other: QuadLike) -> "Quad":
        o = Quad.of(other)
        return Quad(self.a - o.a, self.b - o.b)

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt5 decided by a^2 vs 5 b^2;
        # equality would force sqrt5 rational, so it cannot happen here
        d = a * a - 5 * b * b
        if a > 0:
            return 1 if d > 0 else -1
        return 1 if d < 0 else -1

    # ---- rendering ----

    def __str__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt(5)"

    def _floor_scaled(self, scale: int) -> int:
        """floor(value * scale) exactly."""
        # value*scale = (p + q*sqrt5)/d with integers p, q and d > 0
        p = self.a.numerator * scale * self.b.denominator
        q = self.b.numerator * scale * self.a.denominator
        d = self.a.denominator * self.b.denominator
        if q == 0:
            return p // d
        s = math.isqrt(5 * q * q)
        m = p + s if q > 0 else p - s - 1
        return m // d

    def decimal(self, digits: int = DECIMAL_DIGITS) -> str:
        """Round-half-even decimal rendering to `digits` places."""
        if self.b == 0:
            return rat_decimal(self.a, digits)
        scale = 10**digits
        t = self._floor_scaled(scale)
        t2 = self._floor_scaled(2 * scale)
        if t2 - 2 * t >= 1:  # fractional part > 1/2; exact ties are impossible
            t += 1
        sign = "-" if t < 0 else ""
        whole, digits_part = divmod(abs(t), scale)
        return f"{sign}{whole}.{digits_part:0{digits}d}"


GOLDEN_SQ = Quad(Fraction(3, 2), Fraction(1, 2))  # golden^2 = golden + 1
GOLDEN_INV_SQ = Quad(Fraction(3, 2), Fraction(-1, 2))  # 1/golden^2 = 2/(3+sqrt5)

# Display tag for the product-bound threshold, used in report payloads.
THRESHOLD_LABEL = "2/(3+sqrt5)"
