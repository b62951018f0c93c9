"""The identities lattice states, checked by direct computation."""

from fibnest.fib import fib
from fibnest.lattice import cassini_inverse, steps


def test_steps_are_the_rotated_fibonacci_steps():
    for n in range(3, 91):
        assert list(steps(n)) == [(fib(k), fib(n - 1) * fib(k) % fib(n)) for k in range(2, n)], n


def test_cassini_inverse_inverts_the_rotation():
    for n in range(3, 201):
        assert cassini_inverse(n) * fib(n - 1) % fib(n) == 1, n
