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
        for name in ("a", "b"):
            part = getattr(self, name)
            if not isinstance(part, Fraction):
                object.__setattr__(self, name, Fraction(part))

    @staticmethod
    def of(value: QuadLike) -> "Quad":
        return value if isinstance(value, Quad) else Quad(value, 0)

    def __sub__(self, other: QuadLike) -> "Quad":
        o = Quad.of(other)
        return Quad(self.a - o.a, self.b - o.b)

    def sign(self) -> int:
        # a + b sqrt5 = (x + y sqrt5)/(a.den b.den), a positive denominator
        x = self.a.numerator * self.b.denominator
        y = self.b.numerator * self.a.denominator
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if sx * sy >= 0:
            return sx or sy
        # opposite signs: |x| vs |y|*sqrt5 decided by x^2 vs 5 y^2;
        # equality would force sqrt5 rational, so it cannot happen here
        return sx if x * x > 5 * y * y else sy

    # ---- rendering ----

    def __str__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt(5)"

    def _floor_scaled(self, scale: int) -> int:
        """floor(value * scale) exactly, for b != 0 (decimal renders b = 0 as
        a rational)."""
        # value*scale = (p + q*sqrt5)/d with integers p, q != 0 and d > 0
        p = self.a.numerator * scale * self.b.denominator
        q = self.b.numerator * scale * self.a.denominator
        d = self.a.denominator * self.b.denominator
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
