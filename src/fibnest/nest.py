"""Inductive construction of nested interval certificates.

Each stage after the synthetic seed records a witness (n, a): the point
alpha = a/F_n with its companion beta = frac(F_{n-1} a / F_n), and fresh
windows I = [alpha, alpha + delta/F_n^2], J = [beta, beta + delta/F_n^2]
nested inside the previous pair, all formed by lattice.Box from (n, a,
delta) (Stage.box). Targets are the left halves of the current windows
(Box.half), so the right halves remain as slack for the next window
length. The stage index search starts at the smallest n whose F_n makes
the target wide enough to contain an integer position, and increments
until a witness verifies.

Certificates are deterministic: identical build arguments reproduce the
same stages and the same serialized bytes.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import Rat, UnitInterval, rat_str
from .fib import fib, fib_index_at_least
from .lattice import Box
from .report import (
    ReportBundle,
    bound_report,
    equality_report,
)
from .search import find_witness


class DepthUnreachable(RuntimeError):
    def __init__(self, nu: int, last_n: int):
        super().__init__(f"no witness for stage {nu}; last index tried n={last_n}")
        self.nu = nu
        self.last_n = last_n


@dataclass(frozen=True)
class Stage:
    nu: int
    n: int
    a: int
    delta: Rat
    alpha: Rat
    beta: Rat
    I: UnitInterval
    J: UnitInterval

    @property
    def box(self) -> Box:
        """The box of the stored n, a and delta; verify_certificate compares
        the stored point and windows with it."""
        return Box(self.n, self.a, self.delta)


# delta schedules by the name a certificate records: nu -> delta_nu with
# delta_0 = 1, positive and strictly decreasing
SCHEDULES: dict[str, Callable[[int], Rat]] = {
    "pow2": lambda nu: Fraction(1, 2**nu),
    "inv": lambda nu: Fraction(1, nu + 1),
}

# the policy labels certificate_from_json accepts: build records "auto",
# and "brute" and "two_scale" label certificates whose every witness came
# from find_brute or find_two_scale alone
POLICIES = ("auto", "brute", "two_scale")

# the most digits certificate_from_json reads in one integer, CPython's
# default int<->str limit, held whatever limit the interpreter has
MAX_DIGITS = 4300

# how many indices past the first build tries for one stage before it
# gives up with DepthUnreachable
MAX_INDEX_STEPS = 300


@dataclass(frozen=True)
class Certificate:
    schedule: str
    policy: str
    stages: tuple[Stage, ...]

    @property
    def depth(self) -> int:
        return len(self.stages) - 1


def _stage(nu: int, box: Box) -> Stage:
    """Stage nu with the witness, delta, point and windows of box."""
    (alpha, beta), (I, J) = box.point, box.windows()
    return Stage(nu=nu, n=box.n, a=box.a, delta=box.delta, alpha=alpha, beta=beta, I=I, J=J)


@functools.cache  # immutable, and certificate_from_json compares every seed with it
def seed_stage() -> Stage:
    """Stage 0: the whole unit square, delta_0 = 1, no real witness.

    Encoded as Box(1, 0, 1): F_1 = 1 makes the recorded windows [0, 1]
    exactly, and the a-range and coprimality conditions are exempted for
    the seed.
    """
    return _stage(0, Box(1, 0, Fraction(1)))


def build(depth: int, schedule: str = "pow2", n0: int = 5) -> Certificate:
    """Build a certificate with `depth` stages beyond the seed, under the
    named delta schedule (see SCHEDULES), searching each witness with
    search.find_witness; the certificate records the policy "auto"."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if n0 < 4:
        raise ValueError(f"n0 must be >= 4, got {n0}")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown delta schedule {schedule!r}")

    stages = [seed_stage()]
    for nu in range(depth):
        target = stages[-1].box.half()
        target_i, target_j = target.windows()

        # smallest n whose target is wide enough for an integer position;
        # F_n >= 2 F_prev^2 / delta_prev also makes the new window at most
        # 1/4 of the old one, so it fits in the untouched right half. As
        # delta_prev <= 1, F_n >= 2 F_prev^2 > F_prev, so n > n_prev already
        n_try = fib_index_at_least(math.ceil(1 / target.width))
        if nu == 0:
            n_try = max(n_try, n0)
        first_tried = n_try

        while True:
            if n_try - first_tried > MAX_INDEX_STEPS:
                raise DepthUnreachable(nu + 1, n_try - 1)
            a = find_witness(n_try, target_i, target_j)
            if a is not None:
                break
            n_try += 1

        stages.append(_stage(nu + 1, Box(n_try, a, SCHEDULES[schedule](nu + 1))))

    return Certificate(schedule=schedule, policy="auto", stages=tuple(stages))


_ZERO = Fraction(0)
_ONE = Fraction(1)

# verify_certificate's helpers: a pair (num, den) with den > 0 is an
# unnormalised rational


def _sub(x: Rat, y: Rat) -> tuple[int, int]:
    """x - y by cross-multiplication, left unnormalised."""
    return x.numerator * y.denominator - y.numerator * x.denominator, x.denominator * y.denominator


def _min(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return v if v[0] * u[1] < u[0] * v[1] else u


def _abs_max(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    u, v = (abs(u[0]), u[1]), (abs(v[0]), v[1])
    return v if v[0] * u[1] > u[0] * v[1] else u


def _window_sum(lo: Rat, hi: Rat, point: Rat, width: Rat) -> Rat:
    """(lo - point) + (hi - point - width), the left side of the window
    checks, over the lcm of the four denominators and normalised once."""
    den = math.lcm(lo.denominator, hi.denominator, point.denominator, width.denominator)
    return Fraction(
        lo.numerator * (den // lo.denominator)
        + hi.numerator * (den // hi.denominator)
        - 2 * point.numerator * (den // point.denominator)
        - width.numerator * (den // width.denominator),
        den,
    )


def verify_certificate(cert: Certificate) -> ReportBundle:
    """Re-check every recorded condition of every stage exactly.

    Every check is recomputed from the stage values alone, each of which
    certificate_from_json parsed once. Each exact side is formed from
    integer numerators and denominators and normalised once, instead of
    through a chain of normalising Fraction operations: differences by
    cross-multiplication, the window sums over the lcm of their four
    denominators."""
    stages = cert.stages
    seed = stages[0]
    boxes = [st.box for st in stages]
    widths = [box.width for box in boxes]  # the window checks and the localize radii
    items = [
        equality_report(
            "seed-windows",
            (seed.I.lo + (1 - seed.I.hi)) + (seed.J.lo + (1 - seed.J.hi)),
            _ZERO,
            notes="I_0 = J_0 = [0, 1]",
        ),
        equality_report("seed-delta", seed.delta, _ONE),
    ]

    for prev, st, box, width in zip(stages, stages[1:], boxes[1:], widths[1:]):
        tag = f"stage{st.nu}"
        fn = fib(st.n)
        items.append(
            bound_report(
                f"{tag}-n-increasing",
                Fraction(st.n - prev.n - 1),
                _ZERO,
                notes=f"n_{st.nu} = {st.n} > n_{prev.nu} = {prev.n}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-delta-decreasing",
                Fraction(*_sub(prev.delta, st.delta)),
                _ZERO,
                strict=True,
                notes=f"delta_{st.nu} < delta_{prev.nu}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-a-range",
                Fraction(min(st.a - 1, fn - 1 - st.a)),
                _ZERO,
                witness=st.a,
                notes=f"1 <= a < F_{st.n} = {fn}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-coprime",
                _ONE,
                Fraction(math.gcd(st.a, fn)),
                witness=st.a,
            )
        )
        alpha, beta = box.point
        items.append(equality_report(f"{tag}-alpha-def", st.alpha, alpha))
        items.append(equality_report(f"{tag}-beta-def", st.beta, beta))
        items.append(
            equality_report(
                f"{tag}-window-I",
                _window_sum(st.I.lo, st.I.hi, st.alpha, width),
                _ZERO,
                notes="I = [alpha, alpha + delta/F_n^2]",
            )
        )
        items.append(
            equality_report(
                f"{tag}-window-J",
                _window_sum(st.J.lo, st.J.hi, st.beta, width),
                _ZERO,
                notes="J = [beta, beta + delta/F_n^2]",
            )
        )
        items.append(
            bound_report(
                f"{tag}-nest-I",
                Fraction(*_min(_sub(st.I.lo, prev.I.lo), _sub(prev.I.hi, st.I.hi))),
                _ZERO,
                notes=f"I_{st.nu} inside I_{prev.nu}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-nest-J",
                Fraction(*_min(_sub(st.J.lo, prev.J.lo), _sub(prev.J.hi, st.J.hi))),
                _ZERO,
                notes=f"J_{st.nu} inside J_{prev.nu}",
            )
        )

    # two-sided localization between every pair of levels: the deeper
    # stage point approximates within delta_mu / F_{n_mu}^2
    for mu in range(1, len(stages)):
        shallow, radius = stages[mu], widths[mu]
        for nu in range(mu + 1, len(stages)):
            deep = stages[nu]
            drift = Fraction(
                *_abs_max(_sub(deep.alpha, shallow.alpha), _sub(deep.beta, shallow.beta))
            )
            items.append(
                bound_report(
                    f"localize-{mu}-{nu}",
                    Fraction(*_sub(radius, drift)),
                    _ZERO,
                    notes=(
                        f"max drift {rat_str(drift)} within "
                        f"delta_{mu}/F_{shallow.n}^2"
                    ),
                )
            )

    return ReportBundle(name=f"certificate[{cert.schedule}, depth={cert.depth}]",
                        items=tuple(items))


@dataclass(frozen=True)
class Verified:
    """A certificate that passed verify_certificate; only verify makes one,
    so a certified bound that takes a Verified rests on every check."""

    cert: Certificate


def verify(cert: Certificate) -> tuple[ReportBundle, Verified | None]:
    """verify_certificate's report, and the certificate as Verified when
    every check passes, None otherwise."""
    bundle = verify_certificate(cert)
    return bundle, Verified(cert) if bundle.passed else None


# ---- serialization ----


def _stage_to_dict(st: Stage) -> dict:
    return {
        "nu": st.nu,
        "n": st.n,
        "a": str(st.a),
        "delta": rat_str(st.delta),
        "alpha": rat_str(st.alpha),
        "beta": rat_str(st.beta),
        "I": [rat_str(st.I.lo), rat_str(st.I.hi)],
        "J": [rat_str(st.J.lo), rat_str(st.J.hi)],
    }


_STAGE_KEYS = ("nu", "n", "a", "delta", "alpha", "beta", "I", "J")


def _check_keys(obj, keys: tuple[str, ...], field: str) -> None:
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise ValueError(f"{field} must be an object with exactly the keys {', '.join(keys)}")


_RAT = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _integer(text: str, name: str) -> int:
    """int() of a decimal string of at most MAX_DIGITS digits, the parser's
    guard against oversized input; the error names the field and the limit.
    The plain length settles every short string without counting digits."""
    if len(text) > MAX_DIGITS and len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(
            f"{name} has {len(text.lstrip('-'))} digits, over the {MAX_DIGITS}-digit limit on certificate integers"
        )
    return int(text)


def _json_integer(text: str) -> int:
    """json.loads's parse_int: a JSON number's digits, bounded like _integer."""
    if len(text) > MAX_DIGITS and len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(
            f"certificate: a JSON integer is over the {MAX_DIGITS}-digit limit on certificate integers"
        )
    return int(text)


def _rational(value, name: str) -> Rat:
    """Parse the reduced 'p/q' string rat_str writes: no sign on zero, no
    leading zeros, gcd(p, q) = 1. Each string is matched and converted once."""
    match = _RAT.fullmatch(value) if isinstance(value, str) else None
    if match:
        p, q = _integer(match[1], f"{name} numerator"), _integer(match[2], f"{name} denominator")
        if math.gcd(p, q) == 1:
            return Fraction(p, q)
    raise ValueError(f"{name} must be a reduced 'p/q' string, got {value!r}")


def _stage_from_dict(d: dict, field: str) -> Stage:
    """Parse one stage, requiring the types _stage_to_dict writes: JSON
    integers nu and n >= 1, a decimal string a with no leading zero, and
    reduced 'p/q' strings for the rationals and the two endpoints of each
    window, which must satisfy 0 <= lo <= hi <= 1."""

    def integer(key: str) -> int:
        if type(d[key]) is not int:
            raise ValueError(f"{field}.{key} must be a JSON integer, got {d[key]!r}")
        return d[key]

    def window(key: str) -> UnitInterval:
        ends = d[key]
        if not (isinstance(ends, list) and len(ends) == 2):
            raise ValueError(f"{field}.{key} must be a list of two 'p/q' strings, got {ends!r}")
        lo, hi = (_rational(end, f"{field}.{key}[{i}]") for i, end in enumerate(ends))
        try:
            return UnitInterval(lo, hi)
        except ValueError:
            raise ValueError(f"{field}.{key} must satisfy 0 <= lo <= hi <= 1") from None

    if not (isinstance(d["a"], str) and re.fullmatch("0|[1-9][0-9]*", d["a"])):
        raise ValueError(f"{field}.a must be a decimal string with no leading zero, got {d['a']!r}")
    nu, n = integer("nu"), integer("n")
    if n < 1:
        raise ValueError(f"{field}.n must be >= 1, got {n}")
    return Stage(
        nu=nu,
        n=n,
        a=_integer(d["a"], f"{field}.a"),
        delta=_rational(d["delta"], f"{field}.delta"),
        alpha=_rational(d["alpha"], f"{field}.alpha"),
        beta=_rational(d["beta"], f"{field}.beta"),
        I=window("I"),
        J=window("J"),
    )


def certificate_to_json(cert: Certificate) -> str:
    payload = {
        "schedule": cert.schedule,
        "policy": cert.policy,
        "stages": [_stage_to_dict(st) for st in cert.stages],
    }
    return json.dumps(payload, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate, checking its shape and the type of every stage
    value; ValueError names the bad field. Each value is parsed once: a
    rational is one regex match, two int() calls, one gcd and one Fraction.
    Whether the values form a valid certificate is left to
    verify_certificate."""
    try:
        payload = json.loads(text, parse_int=_json_integer)
    except RecursionError:
        raise ValueError("certificate: JSON nested too deeply") from None
    _check_keys(payload, ("schedule", "policy", "stages"), "certificate")
    if not isinstance(payload["schedule"], str) or payload["schedule"] not in SCHEDULES:
        raise ValueError(f"schedule: unknown delta schedule {payload['schedule']!r}")
    if payload["policy"] not in POLICIES:
        raise ValueError(f"policy: unknown strategy {payload['policy']!r}")
    if not isinstance(payload["stages"], list) or not payload["stages"]:
        raise ValueError("stages must be a non-empty list")
    stages = []
    for nu, d in enumerate(payload["stages"]):
        _check_keys(d, _STAGE_KEYS, f"stages[{nu}]")
        stage = _stage_from_dict(d, f"stages[{nu}]")
        if stage.nu != nu:
            raise ValueError(f"stages[{nu}].nu is {stage.nu}, expected {nu}")
        stages.append(stage)
    if stages[0] != seed_stage():
        raise ValueError("stages[0] is not the seed stage")
    return Certificate(
        schedule=payload["schedule"], policy=payload["policy"], stages=tuple(stages)
    )
