import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibnest import nest
from fibnest.bounds import littlewood_lower_bound
from fibnest.cli import _int_text_unlimited
from fibnest.exact import UnitInterval, rat_str
from fibnest.fib import fib
from fibnest.nest import (
    MAX_DIGITS,
    POLICIES,
    SCHEDULES,
    Certificate,
    DepthUnreachable,
    Verified,
    _rational,
    build,
    certificate_from_json,
    certificate_to_json,
    seed_stage,
    verify,
    verify_certificate,
)
from fibnest.report import BoundReport, ReportBundle, bundle_to_text, flatten, to_csv, to_json


def test_seed_stage_shape():
    seed = seed_stage()
    assert (seed.nu, seed.n, seed.a) == (0, 1, 0)
    assert seed.delta == 1
    assert seed.I == UnitInterval(Fraction(0), Fraction(1))
    assert seed.J == seed.I


def test_schedules():
    pow2 = SCHEDULES["pow2"]
    assert [pow2(nu) for nu in range(4)] == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    inv = SCHEDULES["inv"]
    assert [inv(nu) for nu in range(4)] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    with pytest.raises(ValueError, match="unknown delta schedule 'geometric'"):
        build(depth=1, schedule="geometric")


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_schedule_invariants(name):
    # build trusts every schedule to start at 1 and to stay positive and
    # strictly decreasing; the verifier re-checks the decrease per stage
    deltas = [SCHEDULES[name](nu) for nu in range(66)]
    assert all(type(d) is Fraction for d in deltas)
    assert deltas[0] == 1
    assert all(0 < deeper < d for d, deeper in zip(deltas, deltas[1:]))


def test_build_depth_zero_is_seed_only():
    cert = build(depth=0)
    assert len(cert.stages) == 1
    assert cert.stages[0] == seed_stage()
    assert verify_certificate(cert).passed


def test_build_depth_one_frozen(cert1):
    assert len(cert1.stages) == 2
    st = cert1.stages[1]
    assert (st.nu, st.n, st.a) == (1, 5, 2)
    assert st.delta == Fraction(1, 2)
    assert st.alpha == Fraction(2, 5)
    assert st.beta == Fraction(1, 5)
    # window length delta/F_n^2 = (1/2)/25
    assert st.I == UnitInterval(Fraction(2, 5), Fraction(21, 50))
    assert st.J == UnitInterval(Fraction(1, 5), Fraction(11, 50))


def test_build_depth_two_frozen():
    cert = build(depth=2, n0=5)
    st = cert.stages[2]
    assert (st.nu, st.n, st.a) == (2, 19, 1675)
    assert st.delta == Fraction(1, 4)
    assert st.alpha == Fraction(1675, 4181)
    assert st.beta == Fraction(865, 4181)
    assert st.I.hi - st.I.lo == Fraction(1, 4 * 4181**2)
    assert st.I == UnitInterval(Fraction(1675, 4181), Fraction(28012701, 69923044))
    assert st.J == UnitInterval(Fraction(865, 4181), Fraction(14466261, 69923044))


def test_build_depth_three_frozen(cert3):
    levels = [(s.nu, s.n, s.a) for s in cert3.stages]
    assert levels == [
        (0, 1, 0),
        (1, 5, 2),
        (2, 19, 1675),
        (3, 82, 24560439961635519),
    ]
    assert [s.delta for s in cert3.stages] == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


# (schedule, n0, SHA-256): the bytes of perfbench/fixtures/{schedule}-{n0}.json.
# n0 = 6 and 8 (stages n = 7, 29, 119, 478 and 8, 30, 124, 506) take the
# two-scale fallback past the crossover; n0 = 6 meets TwoScaleExhausted at
# n = 117 on the way.
FROZEN_DEPTH_FOUR = [
    ("pow2", 5, "62c17330de831dfe85f229ddd96e5206b89bef50600ded3c846106cca5e03727"),
    ("inv", 5, "59b2950cc5e913539e815a9f33c3a263ddc3a6f452006b9bfd5a5d549c0fb5ae"),
    ("pow2", 6, "b4b1783a0b0bda4f83c60cf97121f49f1c0cec8dfeeed3efd958fb4d42aed4de"),
    ("pow2", 8, "4615c8f31c1c6ed62fb983d527e21ac2ed48331bd7577f54fc0b2e3a16432647"),
]


@pytest.mark.parametrize(
    "schedule, n0, digest",
    FROZEN_DEPTH_FOUR,
    # the n0 = 5 ids stay "{schedule}-{digest}", as they were without n0
    ids=[f"{s}-{d}" if n0 == 5 else f"{s}-{n0}-{d}" for s, n0, d in FROZEN_DEPTH_FOUR],
)
def test_build_depth_four_auto_bytes_frozen(schedule, n0, digest):
    cert = build(depth=4, schedule=schedule, n0=n0)
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


# (policy, schedule, SHA-256) of the depth-4 certificates, n0 = 5, that
# each witness search alone once built, kept as tests/data/{policy}-
# {schedule}-5.json. two_scale took n = 7, 32, 131, 526 (pow2) and
# 7, 32, 131, 525 (inv); brute 5, 19, 77, 313 and 5, 19, 77, 311.
DATA_DIR = Path(__file__).resolve().parent / "data"
FROZEN_DEPTH_FOUR_STRATEGIES = [
    ("two_scale", "pow2", "a1822eff6fe360233fb4b77a15f834bad015bca2eb4c6a106a8967ef5ce11aea"),
    ("two_scale", "inv", "a85264ddd05011dff4a6e52c84eaf7f34b8825f392bf1c27b78eff16f063633d"),
    ("brute", "pow2", "0400b22241fbf7608d81716c627f7aabd441fe7fc7bb51080b8327fad8f05407"),
    ("brute", "inv", "9ef6fd839c41369c36a312bb11a73cf071c3a96e0891a957fb966de7fd63a88d"),
]


def depth_four(policy: str, schedule: str) -> Certificate:
    """The depth-4 certificate at n0 = 5 of a policy: built for auto, read
    from tests/data for the others."""
    if policy == "auto":
        return build(depth=4, schedule=schedule, n0=5)
    return certificate_from_json((DATA_DIR / f"{policy}-{schedule}-5.json").read_text())


@pytest.mark.parametrize("strategy, schedule, digest", FROZEN_DEPTH_FOUR_STRATEGIES)
def test_build_depth_four_strategy_bytes_frozen(strategy, schedule, digest):
    # each file still parses, verifies and re-serialises to its own bytes
    text = (DATA_DIR / f"{strategy}-{schedule}-5.json").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    cert = certificate_from_json(text)
    assert cert.policy == strategy
    assert verify_certificate(cert).passed
    assert certificate_to_json(cert) == text


def test_build_depth_four_exhaustive_brute():
    # the exhaustive search found stage 3 at n = 77, below the two_scale
    # fallback's n = 82 that auto takes past its crossover
    cert = depth_four("brute", "pow2")
    assert [s.n for s in cert.stages] == [1, 5, 19, 77, 313]
    assert [s.n for s in depth_four("auto", "pow2").stages] == [1, 5, 19, 82, 335]


def test_build_depth_five_with_a_larger_index_budget(monkeypatch):
    # 300 indices past the first stop short of depth 5; stage 5 lands near
    # four times stage 4's index, where the target's area first holds a point
    monkeypatch.setattr(nest, "MAX_INDEX_STEPS", 3000)
    cert = build(depth=5, schedule="pow2", n0=5)
    assert [s.n for s in cert.stages[1:]] == [5, 19, 82, 335, 1352]
    assert cert.policy == "auto"
    assert verify_certificate(cert).passed


def test_build_inv_schedule_reuses_witnesses():
    cert = build(depth=2, schedule="inv", n0=5)
    st = cert.stages[2]
    # same witness search, different window scale
    assert (st.n, st.a) == (19, 1675)
    assert st.delta == Fraction(1, 3)
    assert cert.schedule == "inv"
    assert verify_certificate(cert).passed


def test_build_validation():
    with pytest.raises(ValueError):
        build(depth=-1)
    with pytest.raises(ValueError):
        build(depth=1, n0=3)


def test_build_depth_unreachable(monkeypatch):
    monkeypatch.setattr(nest, "MAX_INDEX_STEPS", 3)
    with pytest.raises(DepthUnreachable) as exc:
        build(depth=2, n0=5)
    assert exc.value.nu == 2
    assert exc.value.last_n == 15


def test_nesting_invariants(cert3):
    stages = cert3.stages
    for mu in range(len(stages)):
        for nu in range(mu + 1, len(stages)):
            for outer, inner in ((stages[mu].I, stages[nu].I), (stages[mu].J, stages[nu].J)):
                assert outer.lo <= inner.lo and inner.hi <= outer.hi
    deltas = [s.delta for s in stages]
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    ns = [s.n for s in stages]
    assert all(n2 > n1 for n1, n2 in zip(ns, ns[1:]))


def test_approximants(cert3):
    st1, st3 = cert3.stages[1], cert3.stages[3]
    assert st1.box.point == (Fraction(2, 5), Fraction(1, 5))
    assert st1.box.width == Fraction(1, 2) / 25
    assert st3.box.width == Fraction(1, 8) / fib(82) ** 2
    # deeper approximants stay within the shallower error radius
    assert abs(st3.alpha - st1.alpha) <= st1.box.width
    assert abs(st3.beta - st1.beta) <= st1.box.width


def test_verify_fresh_certificates(cert1, cert3):
    assert verify_certificate(cert1).passed
    rep = verify_certificate(cert3)
    assert rep.passed
    assert len(rep.items) == 35


def test_verify_seed_only_vacuous():
    rep = verify_certificate(build(depth=0))
    assert rep.passed
    assert len(rep.items) == 2


def test_verify_catches_mutated_a(cert3):
    stages = list(cert3.stages)
    bad = dataclasses.replace(stages[2], a=stages[2].a + 1)
    mutated = Certificate(schedule=cert3.schedule, policy=cert3.policy, stages=tuple(stages[:2] + [bad] + stages[3:]))
    rep = verify_certificate(mutated)
    assert not rep.passed
    failing = {item.name for item in rep.items if not item.passed}
    assert any("alpha" in name or "coprime" in name for name in failing)


FIELDS = ("n", "a", "delta", "alpha", "beta", "I.lo", "I.hi", "J.lo", "J.hi")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from(FIELDS),
    st.integers(min_value=1, max_value=10**6),
    st.fractions(min_value=-1, max_value=1),
)
def test_verify_rejects_every_single_field_corruption(cert3, nu, field, shift, t):
    # One field of one stage changes and nothing else. n moves by at most 500
    # and stays >= 2, so F_{n-1} exists and F_n renders. delta moves by up
    # to itself; alpha, beta and the window endpoints by up to the stage's
    # window width, which keeps every window inside [0, 1] with lo <= hi
    # and can leave the nesting intact.
    stage = cert3.stages[nu]
    width = stage.delta / fib(stage.n) ** 2
    if field == "n":
        step = 1 + shift % 500
        new = {"n": stage.n + step if shift % 2 else max(2, stage.n - step)}
    elif field == "a":
        new = {"a": stage.a + (shift if shift % 2 else -shift)}
    elif field == "delta":
        new = {"delta": stage.delta * (1 + t)}
    elif field in ("alpha", "beta"):
        new = {field: getattr(stage, field) + t * width}
    else:
        name, end = field.split(".")
        window = getattr(stage, name)
        new = {name: dataclasses.replace(window, **{end: getattr(window, end) + t * width})}
    corrupted = dataclasses.replace(stage, **new)
    assume(corrupted != stage)
    stages = cert3.stages[:nu] + (corrupted,) + cert3.stages[nu + 1:]
    cert = Certificate(schedule=cert3.schedule, policy=cert3.policy, stages=stages)
    assert not assert_matches_oracle(cert).passed


# ---- the Fraction-chain verifier, kept as the oracle of verify_certificate ----


def fraction_bound_report(name, lhs, rhs, *, witness=None, notes="", strict=False):
    slack = lhs - rhs
    return BoundReport(
        name=name, lhs=lhs, rhs=rhs, slack=slack, passed=slack > 0 if strict else slack >= 0,
        witness=witness, notes=notes,
    )


def fraction_equality_report(name, lhs, rhs, *, notes=""):
    slack = -abs(lhs - rhs)
    return BoundReport(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=slack == 0, notes=notes)


def fraction_verify_certificate(cert: Certificate) -> ReportBundle:
    """verify_certificate as a chain of normalising Fraction operations."""
    items = []
    seed = cert.stages[0]
    items.append(
        fraction_equality_report(
            "seed-windows",
            (seed.I.lo + (1 - seed.I.hi)) + (seed.J.lo + (1 - seed.J.hi)),
            Fraction(0),
            notes="I_0 = J_0 = [0, 1]",
        )
    )
    items.append(fraction_equality_report("seed-delta", seed.delta, Fraction(1)))
    for prev, stage in zip(cert.stages, cert.stages[1:]):
        tag = f"stage{stage.nu}"
        fn = fib(stage.n)
        items.append(
            fraction_bound_report(
                f"{tag}-n-increasing",
                Fraction(stage.n - prev.n - 1),
                Fraction(0),
                notes=f"n_{stage.nu} = {stage.n} > n_{prev.nu} = {prev.n}",
            )
        )
        items.append(
            fraction_bound_report(
                f"{tag}-delta-decreasing",
                prev.delta - stage.delta,
                Fraction(0),
                strict=True,
                notes=f"delta_{stage.nu} < delta_{prev.nu}",
            )
        )
        items.append(
            fraction_bound_report(
                f"{tag}-a-range",
                Fraction(min(stage.a - 1, fn - 1 - stage.a)),
                Fraction(0),
                witness=stage.a,
                notes=f"1 <= a < F_{stage.n} = {fn}",
            )
        )
        items.append(
            fraction_bound_report(f"{tag}-coprime", Fraction(1), Fraction(math.gcd(stage.a, fn)), witness=stage.a)
        )
        items.append(fraction_equality_report(f"{tag}-alpha-def", stage.alpha, Fraction(stage.a, fn)))
        items.append(
            fraction_equality_report(f"{tag}-beta-def", stage.beta, Fraction((fib(stage.n - 1) * stage.a) % fn, fn))
        )
        width = stage.delta / fn**2
        items.append(
            fraction_equality_report(
                f"{tag}-window-I",
                (stage.I.lo - stage.alpha) + (stage.I.hi - stage.alpha - width),
                Fraction(0),
                notes="I = [alpha, alpha + delta/F_n^2]",
            )
        )
        items.append(
            fraction_equality_report(
                f"{tag}-window-J",
                (stage.J.lo - stage.beta) + (stage.J.hi - stage.beta - width),
                Fraction(0),
                notes="J = [beta, beta + delta/F_n^2]",
            )
        )
        items.append(
            fraction_bound_report(
                f"{tag}-nest-I",
                min(stage.I.lo - prev.I.lo, prev.I.hi - stage.I.hi),
                Fraction(0),
                notes=f"I_{stage.nu} inside I_{prev.nu}",
            )
        )
        items.append(
            fraction_bound_report(
                f"{tag}-nest-J",
                min(stage.J.lo - prev.J.lo, prev.J.hi - stage.J.hi),
                Fraction(0),
                notes=f"J_{stage.nu} inside J_{prev.nu}",
            )
        )
    for mu in range(1, len(cert.stages)):
        shallow = cert.stages[mu]
        radius = shallow.delta / fib(shallow.n) ** 2
        for nu in range(mu + 1, len(cert.stages)):
            deep = cert.stages[nu]
            drift = max(abs(deep.alpha - shallow.alpha), abs(deep.beta - shallow.beta))
            items.append(
                fraction_bound_report(
                    f"localize-{mu}-{nu}",
                    radius - drift,
                    Fraction(0),
                    notes=f"max drift {rat_str(drift)} within delta_{mu}/F_{shallow.n}^2",
                )
            )
    return ReportBundle(name=f"certificate[{cert.schedule}, depth={cert.depth}]", items=tuple(items))


def renders(bundle: ReportBundle) -> tuple[str, str, str]:
    return to_json(bundle), to_csv(flatten(bundle)), bundle_to_text(bundle)


def assert_matches_oracle(cert: Certificate) -> ReportBundle:
    fast, oracle = verify_certificate(cert), fraction_verify_certificate(cert)
    assert fast == oracle
    assert renders(fast) == renders(oracle)
    return fast


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
FIXTURE_NAMES = ("pow2-5", "inv-5", "pow2-6", "pow2-8")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_stages_are_their_boxes(name):
    cert = certificate_from_json((FIXTURE_DIR / f"{name}.json").read_text())
    assert all(st == nest._stage(nu, st.box) for nu, st in enumerate(cert.stages))


@pytest.mark.parametrize("strategy", POLICIES)
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_built_stages_are_their_boxes(schedule, strategy):
    cert = depth_four(strategy, schedule)
    assert all(st == nest._stage(nu, st.box) for nu, st in enumerate(cert.stages))


def corrupt_payload(payload: dict, stage: int, field: str, step: int) -> dict:
    """One field of one stage shifted as the benchmark shifts it: n and a by
    one, delta by a quarter of itself, alpha, beta and the window endpoints
    by a quarter of the stage's window width."""
    payload = json.loads(json.dumps(payload))
    values = payload["stages"][stage]
    width = Fraction(values["delta"]) / fib(values["n"]) ** 2
    if field == "n":
        values["n"] += step
    elif field == "a":
        values["a"] = str(int(values["a"]) + step)
    elif field == "delta":
        values["delta"] = rat_str(Fraction(values["delta"]) * (1 + Fraction(step, 4)))
    elif field in ("alpha", "beta"):
        values[field] = rat_str(Fraction(values[field]) + step * width / 4)
    else:
        window, end = field.split(".")
        i = ("lo", "hi").index(end)
        values[window][i] = rat_str(Fraction(values[window][i]) + step * width / 4)
    return payload


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_matches_fraction_oracle_on_fixture_corruptions(name):
    text = (FIXTURE_DIR / f"{name}.json").read_text()
    assert assert_matches_oracle(certificate_from_json(text)).passed
    payload = json.loads(text)
    rejected = 0
    for stage in range(1, 5):
        for field in FIELDS:
            for step in (1, -1):
                cert = certificate_from_json(json.dumps(corrupt_payload(payload, stage, field, step)))
                rejected += not assert_matches_oracle(cert).passed
    assert rejected == 4 * len(FIELDS) * 2


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_makes_a_verified_of_each_fixture(name):
    cert = certificate_from_json((FIXTURE_DIR / f"{name}.json").read_text())
    bundle, verified = verify(cert)
    assert bundle == verify_certificate(cert) and bundle.passed
    assert isinstance(verified, Verified) and verified.cert is cert


def test_verify_refuses_a_forged_fixture():
    # one field forged: stage 2's a moved by one, its point and windows kept
    payload = json.loads((FIXTURE_DIR / "pow2-5.json").read_text())
    payload["stages"][2]["a"] = str(int(payload["stages"][2]["a"]) + 1)
    cert = certificate_from_json(json.dumps(payload))
    bundle, verified = verify(cert)
    assert not bundle.passed and verified is None
    # the certificate is no Verified, so no bound can be formed from it
    with pytest.raises(TypeError, match=r"nest\.verify"):
        littlewood_lower_bound(cert, 1, 2)


def test_verify_catches_shrunk_delta_violation(cert1):
    # equal deltas must fail the strictly-decreasing check
    st = cert1.stages[1]
    bad = dataclasses.replace(st, delta=Fraction(1))
    mutated = Certificate(schedule=cert1.schedule, policy=cert1.policy, stages=(cert1.stages[0], bad))
    rep = verify_certificate(mutated)
    assert not rep.passed


def test_json_round_trip(cert3):
    text = certificate_to_json(cert3)
    again = certificate_from_json(text)
    assert again == cert3
    assert certificate_to_json(again) == text
    # stage-3 numerator is beyond 2^53; it must survive as a decimal string
    payload = json.loads(text)
    assert payload["stages"][3]["a"] == "24560439961635519"
    assert payload["stages"][3]["n"] == 82
    assert payload["schedule"] == "pow2"
    assert payload["policy"] == "auto"


def test_json_schema_keys(cert1):
    payload = json.loads(certificate_to_json(cert1))
    assert set(payload) == {"schedule", "policy", "stages"}
    for st in payload["stages"]:
        assert set(st) == {"nu", "n", "a", "delta", "alpha", "beta", "I", "J"}
        assert isinstance(st["a"], str)
        assert "/" in st["delta"]
        assert len(st["I"]) == len(st["J"]) == 2


def test_certificate_from_json_rejects_garbage_rational(cert1):
    for garbage in ("1/2/3", ""):
        payload = json.loads(certificate_to_json(cert1))
        payload["stages"][1]["I"][0] = garbage
        with pytest.raises(ValueError):
            certificate_from_json(json.dumps(payload))


_FRACTION_RAT = re.compile(r"-?[0-9]+/[1-9][0-9]*")


def fraction_rational(value, name):
    """The rational parser as a regex, int round trips, a Fraction(str)
    parse and a rat_str round trip, with the interpreter's digit limit
    lifted and MAX_DIGITS applied by length to each part of a value with
    no leading zero, kept as the oracle of nest._rational."""
    refused = ValueError(f"{name} must be a reduced 'p/q' string, got {value!r}")
    if not (isinstance(value, str) and _FRACTION_RAT.fullmatch(value)):
        raise refused
    p, q = value.split("/")
    with _int_text_unlimited():
        plain = f"{int(p)}/{int(q)}" == value
        reduced = rat_str(Fraction(value)) == value
    for part, digits in (("numerator", p.lstrip("-")), ("denominator", q)):
        if plain and len(digits) > MAX_DIGITS:
            raise ValueError(
                f"{name} {part} has {len(digits)} digits, over the {MAX_DIGITS}-digit limit on certificate integers"
            )
    if not reduced:
        raise refused
    return Fraction(value)


def parse_outcome(parse, value):
    try:
        result = parse(value, "stages[1].alpha")
    except ValueError as exc:
        return "error", str(exc)
    assert type(result) is Fraction
    return "ok", result


# strings over digits, '-' and '/'; 'p/q' shapes with signs and leading
# zeros; and integer pairs, reduced or not
rational_texts = st.one_of(
    st.text(alphabet="0123456789-/", max_size=12),
    st.from_regex(r"-{0,2}0{0,2}[0-9]{0,6}/0{0,2}[0-9]{0,6}", fullmatch=True),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(0, 10**6)),
)


@settings(max_examples=300)
@given(rational_texts)
@example("0/1")
@example("-0/1")
@example("0/5")
@example("2/4")
@example("007/1")
@example("1/0")
@example("1/2/3")
@example("-3/4")
@example("")
@example(" 1/2")
@example("+1/2")
@example("1")
@example(5)
@example(None)
@example(0.5)
@example(["1/2"])
@example("1" * 5000 + "/3")
@example("-" + "1" * 5000 + "/3")
@example("1/" + "3" * 5000)
def test_rational_matches_fraction_oracle(value):
    assert parse_outcome(_rational, value) == parse_outcome(fraction_rational, value)


def _set(path, value):
    """A corruption that sets payload[path[0]][path[1]]... to value."""
    *parents, last = path

    def mutate(payload):
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        return payload
    return mutate


def _drop(key):
    return lambda payload: {k: v for k, v in payload.items() if k != key}


def _drop_stage_key(key):
    def mutate(payload):
        del payload["stages"][1][key]
        return payload
    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda payload: [], "certificate"),
        (_drop("policy"), "certificate"),
        (_set(["extra"], 1), "certificate"),
        (_set(["schedule"], "bogus"), "schedule"),
        (_set(["policy"], "bogus"), "policy"),
        (_set(["stages"], []), "stages"),
        (_set(["stages"], {}), "stages"),
        (_set(["stages", 1], [1, 5]), r"stages\[1\]"),
        (_drop_stage_key("beta"), r"stages\[1\]"),
        (_set(["stages", 1, "gamma"], "0/1"), r"stages\[1\]"),
        (_set(["stages", 1, "nu"], 7), r"stages\[1\]\.nu"),
        (_set(["stages", 0, "n"], 2), r"stages\[0\]"),
        (_set(["stages", 0, "a"], "1"), r"stages\[0\]"),
        (_set(["stages", 0, "alpha"], "1/2"), r"stages\[0\]"),
        (_set(["stages", 1, "n"], 0), r"stages\[1\]\.n"),
        (_set(["stages", 1, "a"], "02"), r"stages\[1\]\.a"),
        (_set(["stages", 1, "I"], ["21/50", "2/5"]), r"stages\[1\]\.I"),
        (_set(["stages", 1, "J"], ["1/5", "3/2"]), r"stages\[1\]\.J"),
    ],
    ids=[
        "not-object", "missing-key", "extra-key", "schedule", "policy", "no-stages",
        "stages-not-list", "stage-not-object", "stage-missing-key", "stage-extra-key",
        "nu", "seed-n", "seed-a", "seed-alpha", "n-zero", "a-leading-zero", "window-swapped",
        "window-outside",
    ],
)
def test_certificate_from_json_checks_schema(cert1, mutate, field):
    payload = mutate(json.loads(certificate_to_json(cert1)))
    with pytest.raises(ValueError, match=f"^{field}"):
        certificate_from_json(json.dumps(payload))


def test_build_determinism(cert3):
    again = build(depth=3, n0=5)
    assert certificate_to_json(again) == certificate_to_json(cert3)


def test_stage_is_immutable():
    seed = seed_stage()
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed.n = 2
