"""The golden rotation x -> F_{n-1} x mod F_n, whose lattice points
(a, F_{n-1} a mod F_n)/F_n are the witnesses (n, a) (witness_point). The
witness search, the product minimum and the star discrepancy are integer
geometry of this lattice (three-distance theorem, Sos 1958); no other
module knows the rotation.

Step identity: F_{n-1} F_k = F_n F_{k-1} + (-1)^(k-1) F_{n-k} for
1 <= k <= n, F_0 = 0. It holds at k = 1 and 2, and both sides follow the
Fibonacci recurrence in k, as (-1)^(k-1) F_{n-k} + (-1)^(k-2) F_{n-k+1} =
(-1)^k F_{n-k-1}. So, modulo F_n and for 1 <= k < n:

* a step of F_k moves a residue by (-1)^(k-1) F_{n-k} (steps);
* k = n - 1 is Cassini's identity F_{n-1}^2 = (-1)^n, so F_{n-1}^-1 =
  (-1)^n F_{n-1} (cassini_inverse);
* the product minimum lies among 2(n - 2) candidates (candidate_min). For
  a = 1 and x <= F_n/2, F_n dist(x/F_n) dist(F_{n-1} x/F_n) equals
  x^2 |F_{n-1}/F_n - y/x|, which by Legendre's theorem is >= 1/2 unless
  y/x is a convergent F_{k-1}/F_k (a non-reduced multiple scales it by
  g^2 >= 4), while x = 1 scores F_{n-2}/F_n < 1/2 for n >= 4. By the
  symmetry x -> F_n - x every minimizer is F_k or F_n - F_k, 2 <= k < n,
  and both score near(F_k) near(F_{n-k})/F_n. For general a, x -> a x
  permutes the nonzero residues: the same minimum, at y a^-1 mod F_n;
* at err = 0, three of those indices hold it (drift_free_min). Candidate
  k scores F_k F_{n-k} for 2 <= k <= n - 2 (neither exceeds F_n/2), and
  k = n - 1 scores near(F_{n-1}) F_1 = F_{n-2}, so k = 2, n - 2 and n - 1
  all score F_{n-2}. With Lucas numbers L_j = phi^j + psi^j, where
  L_{-j} = (-1)^j L_j, Binet's formula gives 5 F_k F_{n-k} =
  L_n - (-1)^k L_{n-2k}. For 3 <= k <= n - 3, |n - 2k| <= n - 6, and
  L_j < L_{n-4} for 0 <= j <= n - 6 (L_0 = 2 < L_2 = 3, and L_1 < L_2 <
  ...), so 5 F_k F_{n-k} > L_n - L_{n-4} = 5 F_2 F_{n-2}: every other
  index scores strictly more. For n <= 5 the three are every index
  2..n-1. As F_{n-2} = F_n - F_{n-1}, k = n - 2 names the same two
  residues as k = n - 1. So the minimum is F_{n-2}/F_n^2, attained only
  at x = y a^-1 mod F_n with y in {+-1, +-F_{n-1}}, four candidates.

Bases: for n >= 3 and 1 <= k <= n - 2, the vectors
u = (F_k, (-1)^(k-1) F_{n-k}) and v = (F_{k+1}, (-1)^k F_{n-k-1}) lie in
the lattice L = {(a, r) : r = F_{n-1} a mod F_n} by the step identity, and
det(u, v) = (-1)^k (F_k F_{n-k-1} + F_{k+1} F_{n-k}) = (-1)^k F_n by the
addition law F_{i+j} = F_{i+1} F_j + F_i F_{j-1}. L has index F_n in Z^2
(each a has one residue class of r), so two of its vectors with
determinant +-F_n span it: every point is i u + j v with integers i, j
(basis). The point (a, r) = i u + j v has i det(u, v) = a v_r - r v_a, so
a box of c consecutive positions and w consecutive residues crosses at
most 1 + ((c - 1) F_{n-k-1} + (w - 1) F_{k+1})/F_n lines of fixed i.

Cell lemma: the half-open cell {s u + t v : 0 <= s, t < 1} holds exactly
one point of L in every translate, as each real point is s u + t v for one
real pair (s, t) and the points of L are the integer pairs. Its
a-projection is [0, F_k + F_{k+1}) = [0, F_{k+2}); u_r and v_r have
opposite signs, so its r-projection is an open interval of length
F_{n-k} + F_{n-k-1} = F_{n-k+1}, and a translate fits inside any F_{k+2}
consecutive positions and F_{n-k+1} consecutive residues. So such a box
holds a lattice point, and a box of w >= F_j residues, 3 <= j <= n, holds
one in any F_{n+3-j} consecutive positions (k = n + 1 - j); with fewer
residues the period serves, as any F_n consecutive positions take every
residue once. cover_span reads j from bit lengths: with R =
floor(2^32 log_phi 2)/2^32 <= lam = log_phi 2, j = floor((bits(w) - 1) R)
+ 1 has F_j <= phi^(j-1) <= 2^(bits(w)-1) <= w.

Line bound: first_hit caps c by cover_span(n, w) when bits(c) + bits(w) >
bits(F_n) + 1, since no first hit lies past it, and then takes k =
floor((n + floor((bits(c) - bits(w)) R))/2), clamped to [1, n - 2], which
balances the two terms of the line count. With x = log_phi c,
y = log_phi w, phi^(m-2) <= F_m <= phi^(m-1), (b - 1) lam <= log_phi t <
b lam for b = bits(t), and eps = (bits(F_n) + 1)(lam - R) < 0.02 for
n < 10^8:

* x + y < n + 3.46. Uncapped, c w < 2^(bits(F_n)+1) <= 4 F_n; capped
  with j <= 2, w <= 3 and c <= F_n; capped with j >= 3, c <= F_{n+3-j}
  <= phi^(n+2-j) and y < bits(w) lam < j + lam + eps.
* Unclamped, 2k lies in (n + x - y - lam - eps - 2, n + x - y + lam +
  eps), so the two terms are at most phi^(x-k) < phi^3.46 < 5.3 and
  phi^(y+k+2-n) < phi^4.46 < 8.6: fewer than 15 lines.
* k is raised to 1 only when x < lam + 1 + eps, so the terms are below
  2.1 and 1; k is lowered to n - 2 only when c < 2 F_n and w <= 6, so the
  terms are below 2 and 4. Either way fewer than 8 lines.

That the greedy walk of Fibonacci steps in tests/oracles.py returns the
same as first_hit on every box whose position range is shorter than
F_{n-1} is checked by tests, not proved.

Box: a witness (n, a) and a delta name a stage, with windows
I = [alpha, alpha + delta/F_n^2] and J = [beta, beta + delta/F_n^2] at the
witness point (alpha, beta); Box is the one place that forms that width.
rotate is 0 at n = 1, as every residue mod F_1 = 1 is, so Box(1, 0, 1) is
the unit square of the seed, and a stage corrupted to n = 1 still has a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .exact import Rat, UnitInterval
from .fib import fib


def rotate(n: int, x: int) -> int:
    """F_{n-1} x mod F_n, the residue of position x; 0 at n = 1."""
    return fib(n - 1) * x % fib(n) if n > 1 else 0


def witness_point(n: int, a: int) -> tuple[Fraction, Fraction]:
    """The point (a/F_n, frac(F_{n-1} a/F_n)) that a witness (n, a) names."""
    fn = fib(n)
    return Fraction(a, fn), Fraction(rotate(n, a), fn)


@dataclass(frozen=True)
class Box:
    """The stage that a witness (n, a) and a delta name (see above)."""

    n: int
    a: int
    delta: Rat

    @property
    def width(self) -> Rat:
        """delta/F_n^2, the side of both windows."""
        return Fraction(self.delta.numerator, self.delta.denominator * fib(self.n) ** 2)

    @property
    def point(self) -> tuple[Fraction, Fraction]:
        return witness_point(self.n, self.a)

    def windows(self) -> tuple[UnitInterval, UnitInterval]:
        """I and J as UnitIntervals (ValueError outside [0, 1])."""
        (alpha, beta), width = self.point, self.width
        return UnitInterval(alpha, alpha + width), UnitInterval(beta, beta + width)

    def half(self) -> Box:
        """The left halves of both windows: the box of delta/2."""
        return Box(self.n, self.a, self.delta / 2)


def steps(n: int) -> Iterator[tuple[int, int]]:
    """(F_k, F_{n-1} F_k mod F_n) for k = 2, ..., n - 1, the residue by the
    step identity: F_{n-k} for odd k, F_n - F_{n-k} for even k."""
    fn = fib(n)
    for k in range(2, n):
        yield fib(k), fib(n - k) if k % 2 else fn - fib(n - k)


def cassini_inverse(n: int) -> int:
    """F_{n-1}^-1 mod F_n for n >= 3: F_{n-1} for even n, F_n - F_{n-1} for odd."""
    return fib(n - 1) if n % 2 == 0 else fib(n) - fib(n - 1)


def basis(n: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The basis (u, v) of the lattice for 1 <= k <= n - 2, as (a, r) pairs:
    u = (F_k, (-1)^(k-1) F_{n-k}), v = (F_{k+1}, (-1)^k F_{n-k-1})."""
    sign = -1 if k % 2 else 1
    return (fib(k), -sign * fib(n - k)), (fib(k + 1), sign * fib(n - k - 1))


# floor(2^32 log_phi 2): (b * _PHI_PER_BIT) >> 32 is b log_phi 2 rounded down
_PHI_PER_BIT = 6_186_557_180


def cover_span(n: int, rows: int) -> int:
    """A count of consecutive positions that holds a lattice point for any
    1 <= rows <= F_n consecutive residues, n >= 3 (the cell lemma above):
    F_{n+3-j} for j = floor((bits(rows) - 1) R) + 1, so F_j <= rows, or F_n
    when j < 3."""
    j = ((rows.bit_length() - 1) * _PHI_PER_BIT >> 32) + 1
    return fib(n + 3 - max(j, 3))


def integer_range(n: int, span: UnitInterval) -> tuple[int, int]:
    """The integers k with k/F_n in span and 0 <= k < F_n, as (first, last)."""
    fn = fib(n)
    lo, hi = span.lo, span.hi
    return -(-lo.numerator * fn // lo.denominator), min(hi.numerator * fn // hi.denominator, fn - 1)


def first_hit(n: int, a_lo: int, a_hi: int, w_lo: int, w_hi: int) -> int | None:
    """The smallest a in [a_lo, a_hi] whose residue F_{n-1} a mod F_n lies in
    [w_lo, w_hi], or None; needs n >= 3, 0 <= a_lo and 0 <= w_lo, w_hi < F_n,
    so the lattice points of the box are exactly those pairs (a, residue).

    It caps the box by cover_span and picks the basis from the box's shape
    (see above), so it crosses fewer than 15 lines. Reflect r -> -r if
    needed so that v_r > 0; then det(u, v) = F_n and the point i u + j v has
    i F_n = a v_r - r v_a, so the box crosses the lines i_lo..i_hi of its
    corners. On line i both a and r grow with j, so the smallest j that the
    lower bounds on a and r allow gives the line's smallest a, a hit if it
    keeps within the upper bounds too."""
    if a_lo > a_hi or w_lo > w_hi:
        return None
    fn = fib(n)
    rows = w_hi - w_lo + 1
    a_bits, r_bits = (a_hi - a_lo + 1).bit_length(), rows.bit_length()
    if a_bits + r_bits > fn.bit_length() + 1:
        a_hi = min(a_hi, a_lo + cover_span(n, rows) - 1)
        a_bits = (a_hi - a_lo + 1).bit_length()
    k = (n + ((a_bits - r_bits) * _PHI_PER_BIT >> 32)) // 2
    if k < 1:
        k = 1
    elif k > n - 2:
        k = n - 2
    (ua, ur), (va, vr) = basis(n, k)
    r_lo, r_hi = w_lo, w_hi
    if vr < 0:
        ur, vr, r_lo, r_hi = -ur, -vr, -w_hi, -w_lo
    i_lo = -((r_hi * va - a_lo * vr) // fn)
    i_hi = (a_hi * vr - r_lo * va) // fn
    best = None
    for i in range(i_lo, i_hi + 1):
        j = max(-((i * ua - a_lo) // va), -((i * ur - r_lo) // vr))
        a = i * ua + j * va
        if a <= a_hi and i * ur + j * vr <= r_hi and (best is None or a < best):
            best = a
    return best


def hits(n: int, I: UnitInterval, J: UnitInterval) -> Iterator[int]:
    """The positions 1 <= a < F_n with a/F_n in I and (F_{n-1} a mod F_n)/F_n
    in J, in increasing order: one first_hit call each, however far apart."""
    a_lo, a_hi = integer_range(n, I)
    w_lo, w_hi = integer_range(n, J)
    a = first_hit(n, max(a_lo, 1), a_hi, w_lo, w_hi)
    while a is not None:
        yield a
        a = first_hit(n, a + 1, a_hi, w_lo, w_hi)


def near(r: int, q: int) -> int:
    """q * dist(r / q) for 0 <= r <= q."""
    return min(r, q - r)


def candidate_min(n: int, a: int, err: Rat) -> tuple[Rat, int]:
    """(value, x_min): the smallest (dist(a x/Q) - x err)+ (dist(b x/Q) -
    x err)+, b = F_{n-1} a, over the candidates x = y a^-1 mod Q with y in
    {F_k, Q - F_k : 2 <= k < n}, Q = F_n, ties to the smallest x; at
    err = 0 the exact minimum over 1 <= x < Q. The distances are near(y)/Q
    and near(F_{n-1} y)/Q, the same for y = F_k and Q - F_k. With err Q =
    e_num/e_den each factor is the integer (near(.) e_den - x e_num)+ over
    Q e_den, so the loop compares integers; x_k = F_k a^-1 follows the
    Fibonacci recurrence mod Q. At err = 0 drift_free_min gives the same in
    O(1) products; this walk serves err > 0 and is its test oracle."""
    q = fib(n)
    e = err * q
    e_num, e_den = e.numerator, e.denominator
    best: Optional[tuple[int, int]] = None
    x_prev, x = 0, pow(a, -1, q)  # F_{k-1} a^-1, F_k a^-1 (mod Q) at k = 1
    for f_k, d in steps(n):
        x_prev, x = x, (x + x_prev) % q
        u1, u2 = near(f_k, q) * e_den, near(d, q) * e_den
        for cand in (x, q - x):
            drift = cand * e_num
            units = max(0, u1 - drift) * max(0, u2 - drift)
            if best is None or (units, cand) < best:
                best = (units, cand)
    assert best is not None
    return Fraction(best[0], (q * e_den) ** 2), best[1]


def drift_free_min(n: int, a: int) -> tuple[Rat, int]:
    """candidate_min(n, a, 0) from the indices k = 2 and n - 1 alone (see
    above): four candidates, each one product of n-digit integers, and one
    inverse, ties to the smallest x as there."""
    q = fib(n)
    inv = pow(a, -1, q)
    scored = []
    for k in (2, n - 1):
        x = fib(k) * inv % q
        units = near(fib(k), q) * near(fib(n - k), q)
        scored += [(units, x), (units, q - x)]
    units, x_min = min(scored)
    return Fraction(units, q * q), x_min
