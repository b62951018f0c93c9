import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from fibnest.exact import UnitInterval
from fibnest.fib import fib
from fibnest.nest import (
    SCHEDULES,
    Certificate,
    DepthUnreachable,
    approximants,
    build,
    certificate_from_json,
    certificate_to_json,
    schedule_by_name,
    seed_stage,
    verify_certificate,
)


def test_seed_stage_shape():
    seed = seed_stage()
    assert (seed.nu, seed.n, seed.a) == (0, 1, 0)
    assert seed.delta == 1
    assert seed.I == UnitInterval(Fraction(0), Fraction(1))
    assert seed.J == seed.I


def test_schedules():
    pow2 = SCHEDULES["pow2"]
    assert [pow2.delta(nu) for nu in range(4)] == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    inv = SCHEDULES["inv"]
    assert [inv.delta(nu) for nu in range(4)] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    assert schedule_by_name("pow2") is pow2
    with pytest.raises(ValueError):
        schedule_by_name("geometric")


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


@pytest.mark.parametrize(
    "schedule, digest",
    [
        ("pow2", "62c17330de831dfe85f229ddd96e5206b89bef50600ded3c846106cca5e03727"),
        ("inv", "59b2950cc5e913539e815a9f33c3a263ddc3a6f452006b9bfd5a5d549c0fb5ae"),
    ],
)
def test_build_depth_four_auto_bytes_frozen(schedule, digest):
    # digests of the certificates built by the linear-scan search
    cert = build(depth=4, schedule=schedule_by_name(schedule), n0=5)
    assert hashlib.sha256(certificate_to_json(cert).encode()).hexdigest() == digest


def test_build_depth_four_exhaustive_brute():
    # the exhaustive search finds stage 3 at n = 77, below the two_scale
    # fallback's n = 82 that auto takes past its crossover
    cert = build(depth=4, n0=5, strategy="brute")
    assert [s.n for s in cert.stages] == [1, 5, 19, 77, 313]
    assert cert.policy == "brute"
    assert verify_certificate(cert).passed


def test_build_inv_schedule_reuses_witnesses():
    cert = build(depth=2, schedule=schedule_by_name("inv"), n0=5)
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
    with pytest.raises(ValueError, match="magic"):
        build(depth=0, strategy="magic")


def test_build_depth_unreachable():
    with pytest.raises(DepthUnreachable) as exc:
        build(depth=2, n0=5, max_index_steps=3)
    assert exc.value.nu == 2
    assert exc.value.last_n == 15


def test_nesting_invariants(cert3):
    stages = cert3.stages
    for mu in range(len(stages)):
        for nu in range(mu + 1, len(stages)):
            assert stages[mu].I.contains(stages[nu].I)
            assert stages[mu].J.contains(stages[nu].J)
    deltas = [s.delta for s in stages]
    assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
    ns = [s.n for s in stages]
    assert all(n2 > n1 for n1, n2 in zip(ns, ns[1:]))


def test_approximants(cert3):
    alpha1, beta1, err1 = approximants(cert3, 1)
    assert (alpha1, beta1) == (Fraction(2, 5), Fraction(1, 5))
    assert err1 == Fraction(1, 2) / 25
    alpha3, beta3, err3 = approximants(cert3, 3)
    assert err3 == Fraction(1, 8) / fib(82) ** 2
    # deeper approximants stay within the shallower error radius
    assert abs(alpha3 - alpha1) <= err1
    assert abs(beta3 - beta1) <= err1


def test_approximants_validation(cert1):
    with pytest.raises(ValueError):
        approximants(cert1, 0)
    with pytest.raises(ValueError):
        approximants(cert1, 2)
    with pytest.raises(ValueError):
        approximants(build(depth=0), 1)


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
    ],
    ids=[
        "not-object", "missing-key", "extra-key", "schedule", "policy", "no-stages",
        "stages-not-list", "stage-not-object", "stage-missing-key", "stage-extra-key",
        "nu", "seed-n", "seed-a", "seed-alpha",
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
