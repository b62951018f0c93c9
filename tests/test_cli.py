import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibnest
from fibnest.cli import main
from fibnest.nest import MAX_DIGITS, certificate_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_depth_zero(tmp_path, capsys):
    out = tmp_path / "seed.json"
    code, stdout, _ = run(capsys, "construct", "--depth", "0", "--out", str(out))
    assert code == 0
    assert "PASS" in stdout
    payload = json.loads(out.read_text())
    assert len(payload["stages"]) == 1


def test_construct_depth_one_matches_library(tmp_path, capsys, cert1):
    out = tmp_path / "cert1.json"
    code, _, _ = run(capsys, "construct", "--depth", "1", "--out", str(out))
    assert code == 0
    assert out.read_text() == certificate_to_json(cert1)


def test_construct_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(capsys, "construct", "--depth", "1", "--out", str(first))[0] == 0
    assert run(capsys, "construct", "--depth", "1", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_construct_without_out_streams_cert(capsys):
    code, stdout, stderr = run(capsys, "construct", "--depth", "1")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["schedule"] == "pow2"
    assert "PASS" in stderr


def test_verify_cert_round_trip(tmp_path, capsys, cert1):
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(cert1))
    code, stdout, _ = run(capsys, "verify-cert", "--in", str(path))
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_verify_cert_rejects_mutation(tmp_path, capsys, cert1):
    payload = json.loads(certificate_to_json(cert1))
    payload["stages"][1]["a"] = "3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "verify-cert", "--in", str(path))
    assert code == 1
    assert "FAIL" in stdout


def test_construct_unreachable_depth_is_usage_error(capsys):
    # the default index budget runs out at stage 5
    code, stdout, stderr = run(capsys, "construct", "--depth", "5")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: no witness for stage 5; last index tried n=976\n"


def test_construct_strategy_is_usage_error(capsys):
    # auto is the only policy construct builds
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--depth", "3", "--strategy", "brute"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy brute" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
@pytest.mark.parametrize(
    "field, value",
    [("schedule", "bogus"), ("policy", "bogus"), ("stages", []), ("schedule", []), ("schedule", {})],
)
def test_malformed_certificate_is_usage_error(tmp_path, capsys, cert1, command, field, value):
    payload = json.loads(certificate_to_json(cert1))
    payload[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    if command == "verify-cert":
        argv = ["verify-cert", "--in", str(path)]
    else:
        argv = ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "1"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: {field}")


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("I", 5),
        ("I", ["2/5"]),
        ("J", ["1/5", 0.22]),
        ("n", 5.7),
        ("n", "5"),
        ("nu", True),
        ("a", 2),
        ("a", "-2"),
        ("delta", 0.5),
        ("delta", "2/4"),
        ("alpha", "0.4"),
        ("beta", "1/0"),
    ],
    ids=[
        "I-int", "I-one-end", "J-float-end", "n-float", "n-string", "nu-bool", "a-int",
        "a-negative", "delta-float", "delta-unreduced", "alpha-decimal", "beta-zero-den",
    ],
)
def test_untyped_stage_value_is_usage_error(tmp_path, capsys, cert1, command, field, value):
    payload = json.loads(certificate_to_json(cert1))
    payload["stages"][1][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    if command == "verify-cert":
        argv = ["verify-cert", "--in", str(path)]
    else:
        argv = ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "1"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: stages[1].{field}")


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
def test_deeply_nested_certificate_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    if command == "verify-cert":
        argv = ["verify-cert", "--in", str(path)]
    else:
        argv = ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "2"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: certificate: JSON nested too deeply\n"


def test_verify_cert_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "verify-cert", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    assert stderr.startswith("error:")


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def _int_text_limit():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return None if get_limit is None else get_limit()


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
def test_huge_corrupted_index_fails_checks(tmp_path, capsys, command):
    # F_20600 has more digits than the default int<->str limit of 4300; the
    # corruption must be reported as failed checks (exit 1), not exit 2
    payload = json.loads((FIXTURES / "pow2-5.json").read_text())
    payload["stages"][1]["n"] = 20600
    path = tmp_path / "huge-n.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    if command == "verify-cert":
        argv = ["verify-cert", "--in", str(path)]
    else:
        argv = ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "2"]
    limit = _int_text_limit()
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr == ""
    assert stdout.startswith("FAIL  certificate[pow2, depth=4]  [48 checks]\n")
    assert "  FAIL  stage1-alpha-def  " in stdout
    assert "  FAIL  stage2-n-increasing  " in stdout
    assert _int_text_limit() == limit


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
def test_corrupted_index_one_fails_checks(tmp_path, capsys, command):
    # n = 1 is the seed's index, where F_1 = 1 still gives a point and a
    # width: the corruption is failed checks (exit 1), not a usage error
    payload = json.loads((FIXTURES / "pow2-5.json").read_text())
    payload["stages"][1]["n"] = 1
    path = tmp_path / "n-one.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    if command == "verify-cert":
        argv = ["verify-cert", "--in", str(path)]
    else:
        argv = ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "2"]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stderr == ""
    for check in ("n-increasing", "a-range", "alpha-def", "beta-def", "window-I", "window-J"):
        assert f"  FAIL  stage1-{check}  " in stdout


@pytest.mark.parametrize(
    "argv",
    [("q2", "--n", "20600", "--k", "5"), ("discrepancy", "--n", "20600", "--count", "100")],
)
def test_commands_render_past_int_text_limit(capsys, argv):
    # F_20600 has more digits than the default int<->str limit of 4300
    limit = _int_text_limit()
    code, stdout, stderr = run(capsys, *argv)
    assert code == 0
    assert stderr == ""
    assert stdout.startswith("PASS")
    assert _int_text_limit() == limit


def test_oversized_rational_is_usage_error(tmp_path, capsys, cert1):
    # the parser bounds every integer by nest.MAX_DIGITS, whatever the
    # interpreter's limit
    payload = json.loads(certificate_to_json(cert1))
    payload["stages"][1]["alpha"] = "1" * 5000 + "/3"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    for argv in (
        ["verify-cert", "--in", str(path)],
        ["littlewood", "--cert", str(path), "--level", "1", "--proxy", "1"],
    ):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr == (
            f"error: stages[1].alpha numerator has 5000 digits, over the "
            f"{MAX_DIGITS}-digit limit on certificate integers\n"
        )


@pytest.mark.parametrize("field", ["a", "n"])
def test_oversized_integer_is_usage_error(tmp_path, capsys, field):
    # the error names the field and the limit, not the interpreter's advice
    # to lift it, which a certificate reader cannot act on
    payload = json.loads((FIXTURES / "pow2-5.json").read_text())
    limit = f"over the {MAX_DIGITS}-digit limit on certificate integers"
    if field == "a":
        payload["stages"][2]["a"] = "1" * 5001
        text, expect = json.dumps(payload), f"stages[2].a has 5001 digits, {limit}"
    else:
        # a JSON number this long fails inside json.loads, before any field
        assert payload["stages"][2]["n"] == 19
        text = json.dumps(payload).replace('"n": 19', '"n": ' + "1" * 5001)
        expect = f"certificate: a JSON integer is {limit}"
    path = tmp_path / "big.json"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "verify-cert", "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {expect}\n"


def test_min_scan_pass(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "7", "--a", "1")
    assert code == 0
    assert "scaled=5/13" in stdout
    assert "PASS" in stdout


def test_min_scan_fail(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "6", "--a", "1")
    assert code == 1
    assert "FAIL" in stdout


def test_min_scan_large_n(capsys):
    # F_20601 has 4,306 digits, past the default int->str limit; odd n passes
    code, stdout, _ = run(capsys, "min-scan", "--n", "20601", "--a", "1")
    assert code == 0
    assert "PASS" in stdout and "x_min=1 " in stdout


def test_min_scan_csv(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "7", "--a", "1", "--format", "csv")
    assert code == 0
    header = stdout.splitlines()[0]
    assert header.startswith("name,")
    assert "true" in stdout


def test_min_scan_json(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "7", "--a", "1", "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lhs"] == "5/13"
    assert payload["pass"] is True
    assert payload["rhs_surd"] == "2/(3+sqrt5)"


def test_limit_table_frozen(capsys):
    code, stdout, _ = run(capsys, "limit-table", "--n-from", "15", "--n-to", "16")
    assert code == 0
    assert stdout == (
        "n,fib_n,scaled_min,decimal,strict_pass\n"
        "15,610,233/610,0.381967213115,true\n"
        "16,987,377/987,0.381965552178,false\n"
        "# smallest scaled minimum = 0.381965552178; "
        "prior bound = 0.005326; improvement factor = 71.72\n"
    )


def test_limit_table_has_no_format(capsys):
    # the table is CSV only, so asking for another format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["limit-table", "--n-from", "15", "--n-to", "16", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_limit_table_informational_exit(capsys):
    # rows below the threshold do not fail the table command
    code, stdout, _ = run(capsys, "limit-table", "--n-from", "16", "--n-to", "16")
    assert code == 0
    assert "false" in stdout


def test_q1(capsys):
    code, stdout, _ = run(capsys, "q1", "--n", "6", "--x-max", "7")
    assert code == 0
    assert "3/4" in stdout
    code, _, stderr = run(capsys, "q1", "--n", "6", "--x-max", "1")
    assert code == 2
    assert stderr.startswith("error:")


def test_q2(capsys):
    code, stdout, _ = run(capsys, "q2", "--n", "10", "--k", "5")
    assert code == 0
    assert "PASS" in stdout
    code, _, _ = run(capsys, "q2", "--n", "6", "--k", "4")
    assert code == 1


def test_q2_usage_error(capsys):
    code, _, stderr = run(capsys, "q2", "--n", "9", "--k", "9")
    assert code == 2
    assert stderr.startswith("error:")


def test_littlewood(tmp_path, capsys, cert3):
    path = tmp_path / "cert3.json"
    path.write_text(certificate_to_json(cert3))
    code, stdout, _ = run(
        capsys, "littlewood", "--cert", str(path), "--level", "1", "--proxy", "3"
    )
    assert code == 0
    assert "PASS" in stdout
    assert "2/(3+sqrt5)" in stdout


def test_littlewood_zero_error(tmp_path, capsys, cert3):
    # the drift-free minimum at a stage is min-scan at its witness (n, a)
    st = cert3.stages[1]
    code, stdout, _ = run(capsys, "min-scan", "--n", str(st.n), "--a", str(st.a))
    assert code == 0
    assert "lhs=2/5" in stdout
    path = tmp_path / "cert3.json"
    path.write_text(certificate_to_json(cert3))
    with pytest.raises(SystemExit) as exc:
        main(["littlewood", "--cert", str(path), "--level", "1", "--proxy", "3", "--zero-error"])
    assert exc.value.code == 2


def test_littlewood_proxy_must_be_deeper(tmp_path, capsys, cert3):
    path = tmp_path / "cert3.json"
    path.write_text(certificate_to_json(cert3))
    code, stdout, stderr = run(
        capsys, "littlewood", "--cert", str(path), "--level", "1", "--proxy", "1"
    )
    assert code == 2
    assert stdout == ""
    assert stderr == "error: proxy_level must be in [2, 3], got 1\n"


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "pow2-5.json"


def test_littlewood_deepest_level_has_no_proxy(capsys):
    code, stdout, stderr = run(capsys, "littlewood", "--cert", str(FIXTURE), "--level", "4", "--proxy", "5")
    assert (code, stdout) == (2, "")
    assert stderr == "error: level 4 is the deepest stage: no deeper stage is left to act as proxy\n"


def test_littlewood_seed_only_certificate_has_no_level(tmp_path, capsys):
    payload = json.loads(FIXTURE.read_text())
    payload["stages"] = payload["stages"][:1]
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(payload))
    code, stdout, stderr = run(capsys, "littlewood", "--cert", str(path), "--level", "1", "--proxy", "2")
    assert (code, stdout) == (2, "")
    assert stderr == "error: the certificate has no stage beyond the seed to bound\n"


@pytest.mark.parametrize("schedule, code", [("pow2", 1), ("inv", 0)])
def test_littlewood_level_three(tmp_path, capsys, schedule, code):
    # level 3 is n = 82 (pow2) or n = 77 (inv): only an odd index can beat
    # the threshold
    path = tmp_path / "cert4.json"
    cert = fibnest.build(depth=4, schedule=schedule)
    path.write_text(certificate_to_json(cert))
    got, stdout, _ = run(capsys, "littlewood", "--cert", str(path), "--level", "3", "--proxy", "4")
    assert got == code
    assert ("Q = F_82 =" if schedule == "pow2" else "Q = F_77 =") in stdout


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_littlewood_rejects_unverified_certificate(tmp_path, capsys, fmt):
    # stage 2 feeds only its window width to a level-1 bound, so a shifted
    # witness used to be certified; verification must refuse it first
    payload = json.loads(certificate_to_json(fibnest.build(depth=2, n0=5)))
    payload["stages"][2]["a"] = "1676"
    payload["stages"][2]["alpha"] = "1676/4181"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "verify-cert", "--in", str(path), "--format", fmt)
    assert code == 1
    verify_stdout = stdout
    code, stdout, _ = run(
        capsys, "littlewood", "--cert", str(path), "--level", "1", "--proxy", "2",
        "--format", fmt,
    )
    assert code == 1
    assert stdout == verify_stdout


def test_discrepancy_cap(capsys):
    code, _, _ = run(
        capsys, "discrepancy", "--n", "25", "--count", "100", "--cap", "31/100"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "discrepancy", "--n", "25", "--count", "100", "--cap", "1/100"
    )
    assert code == 1


# 2**1024 - 2**970 is the smallest rational that float() overflows on
@pytest.mark.parametrize(
    "cap",
    ["1/0", "1e400", "-1e400", str(2**1024 - 2**970)],
    ids=["1/0", "1e400", "-1e400", "overflow-bound"],
)
def test_discrepancy_cap_without_float_is_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["discrepancy", "--n", "25", "--count", "100", f"--cap={cap}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --cap: invalid Fraction value: '{cap}'" in captured.err


def test_discrepancy_cap_overflowing_snapshot_is_usage_error(capsys):
    # 1e308 is a float, but the snapshot 1e308 * ln(101) is not
    code, stdout, stderr = run(capsys, "discrepancy", "--n", "25", "--count", "100", "--cap", "1e308")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: cap 1e+308: the snapshot cap * ln(count + 1) overflows a float\n"


def test_discrepancy_cap_largest_float(capsys):
    # float() rounds this cap down to the largest double
    code, _, _ = run(
        capsys, "discrepancy", "--n", "25", "--count", "1", "--cap", str(2**1024 - 2**970 - 1)
    )
    assert code == 0


def test_discrepancy_json(capsys):
    code, stdout, _ = run(
        capsys, "discrepancy", "--n", "25", "--count", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lhs"] == "4254/3001"


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "min-scan", "--n", "7", "--a", "1", "--format", "json", "--out", str(path),
    )
    assert code == 0
    _, stdout, _ = run(capsys, "min-scan", "--n", "7", "--a", "1", "--format", "json")
    assert path.read_text() == stdout


def test_runs_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from fibnest.cli import main\n"
        "codes = [main(['min-scan', '--n', '25', '--a', '2']),\n"
        "         main(['limit-table', '--n-from', '15', '--n-to', '40'])]\n"
        "sys.stderr.write(repr(codes))\n"
    )
    src = Path(fibnest.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[0, 0]"


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["min-scan", "--n", "7"])
    assert exc.value.code == 2
