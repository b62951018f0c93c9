import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibnest
from fibnest.cli import main
from fibnest.nest import certificate_to_json


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


def test_construct_brute_is_exhaustive(tmp_path, capsys):
    out = tmp_path / "brute.json"
    code, stdout, _ = run(capsys, "construct", "--depth", "3", "--strategy", "brute", "--out", str(out))
    assert code == 0
    assert "FAIL" not in stdout
    payload = json.loads(out.read_text())
    assert payload["policy"] == "brute"
    assert [st["n"] for st in payload["stages"][1:]] == [5, 19, 77]


@pytest.mark.parametrize("command", ["verify-cert", "littlewood"])
@pytest.mark.parametrize("field, value", [("schedule", "bogus"), ("policy", "bogus"), ("stages", [])])
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


def test_verify_cert_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "verify-cert", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    assert stderr.startswith("error:")


def test_min_scan_pass(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "7", "--a", "1")
    assert code == 0
    assert "scaled=5/13" in stdout
    assert "PASS" in stdout


def test_min_scan_fail(capsys):
    code, stdout, _ = run(capsys, "min-scan", "--n", "6", "--a", "1")
    assert code == 1
    assert "FAIL" in stdout


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
    path = tmp_path / "cert3.json"
    path.write_text(certificate_to_json(cert3))
    code, stdout, _ = run(
        capsys,
        "littlewood",
        "--cert", str(path),
        "--level", "1",
        "--proxy", "1",
        "--zero-error",
    )
    assert code == 0
    assert "lhs=2/5" in stdout


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
