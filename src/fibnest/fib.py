"""Fibonacci numbers and golden convergents.

Indexing convention used across the whole package: F_1 = F_2 = 1.
Index 0 is rejected everywhere so callers cannot drift off the
convention silently.
"""

from __future__ import annotations

from fractions import Fraction

_table: list[int] = [0, 1, 1]  # _table[k] = F_k; slot 0 is internal padding only


def fib(k: int) -> int:
    """Return F_k with F_1 = F_2 = 1. Rejects k < 1."""
    if k < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {k}")
    while k >= len(_table):
        _table.append(_table[-1] + _table[-2])
    return _table[k]


def fib_index_at_least(bound: int) -> int:
    """Smallest index k >= 1 with F_k >= bound (bound >= 1)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    k = 1
    while fib(k) < bound:
        k += 1
    return k


def golden_convergent(n: int) -> Fraction:
    """F_{n-1}/F_n for n >= 2, always in lowest terms."""
    if n < 2:
        raise ValueError(f"convergent index must be >= 2, got {n}")
    return Fraction(fib(n - 1), fib(n))
