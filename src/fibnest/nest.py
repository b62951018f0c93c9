"""Inductive construction of nested interval certificates.

Each stage after the synthetic seed records a witness (n, a): the point
alpha = a/F_n with its companion beta = frac(F_{n-1} a / F_n), and fresh
windows I = [alpha, alpha + delta/F_n^2], J = [beta, beta + delta/F_n^2]
nested inside the previous pair. Targets are the left halves of the
current windows, so the right halves remain as slack for the next
window length. The stage index search starts at the smallest n whose
F_n makes the trimmed target wide enough to contain an integer
position, and increments until a witness verifies.

Certificates are deterministic: identical build arguments reproduce the
same stages and the same serialized bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exact import Rat, UnitInterval, rat_str, trim
from .fib import fib, fib_index_at_least
from .report import (
    ReportBundle,
    bound_report,
    equality_report,
)
from .search import STRATEGIES, find_witness


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


@dataclass(frozen=True)
class DeltaSchedule:
    """A named rule nu -> delta_nu with delta_0 = 1, strictly decreasing."""

    name: str
    rule: Callable[[int], Rat]

    def delta(self, nu: int) -> Rat:
        value = Fraction(self.rule(nu))
        if value <= 0:
            raise ValueError(f"delta_{nu} = {value} must be positive")
        return value


SCHEDULES: dict[str, DeltaSchedule] = {
    "pow2": DeltaSchedule("pow2", lambda nu: Fraction(1, 2**nu)),
    "inv": DeltaSchedule("inv", lambda nu: Fraction(1, nu + 1)),
}


def schedule_by_name(name: str) -> DeltaSchedule:
    try:
        return SCHEDULES[name]
    except KeyError:
        raise ValueError(f"unknown delta schedule {name!r}") from None


@dataclass(frozen=True)
class Certificate:
    schedule: str
    policy: str
    stages: tuple[Stage, ...]

    @property
    def depth(self) -> int:
        return len(self.stages) - 1


def seed_stage() -> Stage:
    """Stage 0: the whole unit square, delta_0 = 1, no real witness.

    Encoded with n = 1 and a = 0: F_1 = 1 makes the recorded windows
    [0, 1] exactly, and the a-range and coprimality conditions are
    exempted for the seed.
    """
    full = UnitInterval(Fraction(0), Fraction(1))
    return Stage(
        nu=0,
        n=1,
        a=0,
        delta=Fraction(1),
        alpha=Fraction(0),
        beta=Fraction(0),
        I=full,
        J=full,
    )


def _ceil_rat(q: Rat) -> int:
    return -((-q.numerator) // q.denominator)


def build(
    depth: int,
    schedule: Optional[DeltaSchedule] = None,
    n0: int = 5,
    strategy: str = "auto",
    max_index_steps: int = 300,
) -> Certificate:
    """Build a certificate with `depth` stages beyond the seed, searching
    witnesses with the named strategy (see search.find_witness)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if n0 < 4:
        raise ValueError(f"n0 must be >= 4, got {n0}")
    if schedule is None:
        schedule = SCHEDULES["pow2"]
    if schedule.delta(0) != 1:
        raise ValueError(f"schedule {schedule.name!r} must start with delta_0 = 1")

    stages = [seed_stage()]
    for nu in range(depth):
        cur = stages[-1]
        delta_next = schedule.delta(nu + 1)
        if delta_next >= cur.delta:
            raise ValueError(
                f"schedule {schedule.name!r} is not strictly decreasing at nu={nu + 1}"
            )
        target_i = trim(cur.I, Fraction(1, 2), "left")
        target_j = trim(cur.J, Fraction(1, 2), "left")

        # smallest n whose trimmed target is wide enough for an integer
        # position; F_n >= 2 F_prev^2 / delta_prev also makes the new window
        # at most 1/4 of the old one, so it fits in the untouched right half
        n_try = fib_index_at_least(_ceil_rat(2 * fib(cur.n) ** 2 / cur.delta))
        n_try = max(n_try, cur.n + 1)
        if nu == 0:
            n_try = max(n_try, n0)
        first_tried = n_try

        while True:
            if n_try - first_tried > max_index_steps:
                raise DepthUnreachable(nu + 1, n_try - 1)
            witness = find_witness(n_try, target_i, target_j, strategy)
            if witness is not None:
                break
            n_try += 1

        new_len = delta_next / fib(n_try) ** 2
        stages.append(
            Stage(
                nu=nu + 1,
                n=n_try,
                a=witness.a,
                delta=delta_next,
                alpha=witness.alpha_n,
                beta=witness.beta_n,
                I=UnitInterval(witness.alpha_n, witness.alpha_n + new_len),
                J=UnitInterval(witness.beta_n, witness.beta_n + new_len),
            )
        )

    return Certificate(schedule=schedule.name, policy=strategy, stages=tuple(stages))


def approximants(cert: Certificate, level: int) -> tuple[Rat, Rat, Rat]:
    """(alpha_nu, beta_nu, err) at a stage: every point of the deeper
    nesting lies within err = delta_nu / F_n^2 of the returned pair."""
    if level < 1 or level >= len(cert.stages):
        raise ValueError(
            f"level must be in [1, {len(cert.stages) - 1}], got {level}"
        )
    st = cert.stages[level]
    return st.alpha, st.beta, st.delta / fib(st.n) ** 2


def verify_certificate(cert: Certificate) -> ReportBundle:
    """Re-check every recorded condition of every stage exactly."""
    import math

    items = []
    seed = cert.stages[0]
    items.append(
        equality_report(
            "seed-windows",
            (seed.I.lo + (1 - seed.I.hi)) + (seed.J.lo + (1 - seed.J.hi)),
            Fraction(0),
            notes="I_0 = J_0 = [0, 1]",
        )
    )
    items.append(equality_report("seed-delta", seed.delta, Fraction(1)))

    for prev, st in zip(cert.stages, cert.stages[1:]):
        tag = f"stage{st.nu}"
        fn = fib(st.n)
        items.append(
            bound_report(
                f"{tag}-n-increasing",
                Fraction(st.n - prev.n - 1),
                Fraction(0),
                notes=f"n_{st.nu} = {st.n} > n_{prev.nu} = {prev.n}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-delta-decreasing",
                prev.delta - st.delta,
                Fraction(0),
                strict=True,
                notes=f"delta_{st.nu} < delta_{prev.nu}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-a-range",
                Fraction(min(st.a - 1, fn - 1 - st.a)),
                Fraction(0),
                witness=st.a,
                notes=f"1 <= a < F_{st.n} = {fn}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-coprime",
                Fraction(1),
                Fraction(math.gcd(st.a, fn)),
                witness=st.a,
            )
        )
        items.append(equality_report(f"{tag}-alpha-def", st.alpha, Fraction(st.a, fn)))
        items.append(
            equality_report(
                f"{tag}-beta-def",
                st.beta,
                Fraction((fib(st.n - 1) * st.a) % fn, fn),
            )
        )
        width = st.delta / fn**2
        items.append(
            equality_report(
                f"{tag}-window-I",
                (st.I.lo - st.alpha) + (st.I.hi - st.alpha - width),
                Fraction(0),
                notes="I = [alpha, alpha + delta/F_n^2]",
            )
        )
        items.append(
            equality_report(
                f"{tag}-window-J",
                (st.J.lo - st.beta) + (st.J.hi - st.beta - width),
                Fraction(0),
                notes="J = [beta, beta + delta/F_n^2]",
            )
        )
        items.append(
            bound_report(
                f"{tag}-nest-I",
                min(st.I.lo - prev.I.lo, prev.I.hi - st.I.hi),
                Fraction(0),
                notes=f"I_{st.nu} inside I_{prev.nu}",
            )
        )
        items.append(
            bound_report(
                f"{tag}-nest-J",
                min(st.J.lo - prev.J.lo, prev.J.hi - st.J.hi),
                Fraction(0),
                notes=f"J_{st.nu} inside J_{prev.nu}",
            )
        )

    # two-sided localization between every pair of levels: the deeper
    # stage point approximates within delta_mu / F_{n_mu}^2
    for mu in range(1, len(cert.stages)):
        shallow = cert.stages[mu]
        radius = shallow.delta / fib(shallow.n) ** 2
        for nu in range(mu + 1, len(cert.stages)):
            deep = cert.stages[nu]
            drift = max(abs(deep.alpha - shallow.alpha), abs(deep.beta - shallow.beta))
            items.append(
                bound_report(
                    f"localize-{mu}-{nu}",
                    radius - drift,
                    Fraction(0),
                    notes=(
                        f"max drift {rat_str(drift)} within "
                        f"delta_{mu}/F_{shallow.n}^2"
                    ),
                )
            )

    return ReportBundle(name=f"certificate[{cert.schedule}, depth={cert.depth}]",
                        items=tuple(items))


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


def _stage_from_dict(d: dict) -> Stage:
    return Stage(
        nu=int(d["nu"]),
        n=int(d["n"]),
        a=int(d["a"]),
        delta=Fraction(d["delta"]),
        alpha=Fraction(d["alpha"]),
        beta=Fraction(d["beta"]),
        I=UnitInterval(Fraction(d["I"][0]), Fraction(d["I"][1])),
        J=UnitInterval(Fraction(d["J"][0]), Fraction(d["J"][1])),
    )


def certificate_to_json(cert: Certificate) -> str:
    payload = {
        "schedule": cert.schedule,
        "policy": cert.policy,
        "stages": [_stage_to_dict(st) for st in cert.stages],
    }
    return json.dumps(payload, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate, checking its shape; ValueError names the bad
    field. Stage values are left to verify_certificate."""
    payload = json.loads(text)
    _check_keys(payload, ("schedule", "policy", "stages"), "certificate")
    if payload["schedule"] not in SCHEDULES:
        raise ValueError(f"schedule: unknown delta schedule {payload['schedule']!r}")
    if payload["policy"] not in STRATEGIES:
        raise ValueError(f"policy: unknown strategy {payload['policy']!r}")
    if not isinstance(payload["stages"], list) or not payload["stages"]:
        raise ValueError("stages must be a non-empty list")
    stages = []
    for nu, d in enumerate(payload["stages"]):
        _check_keys(d, _STAGE_KEYS, f"stages[{nu}]")
        stage = _stage_from_dict(d)
        if stage.nu != nu:
            raise ValueError(f"stages[{nu}].nu is {stage.nu}, expected {nu}")
        stages.append(stage)
    if stages[0] != seed_stage():
        raise ValueError("stages[0] is not the seed stage")
    return Certificate(
        schedule=payload["schedule"], policy=payload["policy"], stages=tuple(stages)
    )
