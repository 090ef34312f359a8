"""Exit codes and output of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irred.cli import main


def test_family_verdict(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["family", "--n", "2", "--P", "1/x", "--json", str(out)])
    assert code == 0
    assert "IRREDUCIBLE" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "IRREDUCIBLE"
    assert list(doc.keys()) == ["input", "evidence", "verdict"]


def test_family_bad_input(capsys):
    assert main(["family", "--n", "1", "--P", "1"]) == 1
    assert "input error" in capsys.readouterr().err


def test_family_bad_poly(capsys):
    assert main(["family", "--n", "2", "--P", "1/y"]) == 1


def test_family_negative_power_of_y(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["family", "--n", "2", "--P", "y^-1", "--json", str(out)])
    assert code == 1
    assert "P must be polynomial in y" in capsys.readouterr().err
    assert not out.exists()


def _run_cli(args, timeout):
    """`irred *args` in a subprocess, killed after timeout s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-m", "irred.cli"] + list(args),
        capture_output=True, text=True, env=env, timeout=timeout)


def _run_family(P, n=2, timeout=30):
    """`irred family --n n --P P` in a subprocess, killed after timeout s."""
    return _run_cli(["family", "--n", str(n), "--P", P], timeout)


def test_family_huge_linear_pole_finishes():
    """The root of a linear factor is found; no divisors of 10^20."""
    proc = _run_family("1/(x - 100000000000000000000)")
    assert proc.returncode == 0
    assert "verdict: IRREDUCIBLE" in proc.stdout


def test_family_huge_quadratic_pole_finishes():
    """Roots are isolated by Sturm sequences; no divisors of 10^20."""
    proc = _run_family("1/(x^2 - 100000000000000000000)")
    assert proc.returncode == 0
    assert "verdict: IRREDUCIBLE" in proc.stdout


@pytest.mark.parametrize("n,P", [(400, "x"), (2, "x^200000"),
                                 (2, "((x+1)^64)^64")])
def test_family_input_budget_fails_fast(n, P):
    """n and the degree of P are capped before any work is done."""
    proc = _run_family(P, n=n, timeout=10)
    assert proc.returncode == 1
    assert "input error" in proc.stderr


def test_family_constant_power_budget_fails_fast():
    """A power of a constant is capped by its bits, not only by degree."""
    proc = _run_family("2^100000000", timeout=10)
    assert proc.returncode == 1
    assert "a constant of 200000000 bits exceeds 4096" in proc.stderr


def test_replay_high_degree_entry_fails_fast(capsys, tmp_path):
    """A re-hashed certificate entry with a huge power is refused by the
    grammar's budget before the power is computed."""
    from irred.verdict import _record_hash
    path = _golden_family_certificate(tmp_path, capsys)
    doc = json.loads(path.read_text())
    rec, = [r for r in doc["evidence"] if r["kind"] == "pole_shortcut"]
    rec["p"] = "2/t^200000"
    rec["hash"] = _record_hash(rec)
    path.write_text(json.dumps(doc))
    proc = _run_cli(["replay", str(path)], timeout=10)
    assert proc.returncode == 1
    assert "degree 200000 exceeds 64" in proc.stderr


def test_option_values_may_begin_with_a_dash(capsys, tmp_path):
    """`--mu -7/3` and `--P -x` are values, not unknown options."""
    out = tmp_path / "p3m.json"
    assert main(["p3", "--mu", "1/2", "--mu", "-7/3", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["input"]["mu_values"] == ["1/2", "-7/3"]
    assert main(["replay", str(out)]) == 0
    assert main(["family", "--n", "2", "--P", "-x"]) == 0


def test_p3_integer_mu_rejected(capsys):
    assert main(["p3", "--mu", "2"]) == 1
    err = capsys.readouterr().err
    assert "exponential solution" in err


@pytest.mark.parametrize("mu", ["100", "1e400"])
def test_p3_integer_mu_refused_at_once(capsys, mu):
    """An integer mu is refused before any witness search: the witness
    has a polynomial part of degree |mu|."""
    import time
    start = time.process_time()
    assert main(["p3", "--mu", mu]) == 1
    assert time.process_time() - start < 1
    assert "exponential solution" in capsys.readouterr().err


def test_p3_mu_zero_rejected(capsys):
    assert main(["p3", "--mu", "0"]) == 1
    assert "Q1 singular" in capsys.readouterr().err


def test_p3_bad_rational(capsys):
    assert main(["p3", "--mu", "x"]) == 1


def _golden_family_certificate(tmp_path, capsys):
    """`irred family --n 4 --P x^2 --json FILE`; returns FILE."""
    out = tmp_path / "cert.json"
    assert main(["family", "--n", "4", "--P", "x^2", "--json", str(out)]) == 0
    capsys.readouterr()
    return out


def test_replay_golden_certificate(capsys, tmp_path):
    path = _golden_family_certificate(tmp_path, capsys)
    records = len(json.loads(path.read_text())["evidence"])
    assert main(["replay", str(path)]) == 0
    assert capsys.readouterr().out == "replay: %d records verified\n" % records


def test_replay_truncated_certificate(capsys, tmp_path):
    path = _golden_family_certificate(tmp_path, capsys)
    path.write_text(path.read_text()[:200])
    assert main(["replay", str(path)]) == 1
    assert "certificate is not JSON" in capsys.readouterr().err


def test_replay_edited_record_with_kept_hash(capsys, tmp_path):
    from irred.verdict import _record_hash
    path = _golden_family_certificate(tmp_path, capsys)
    doc = json.loads(path.read_text())
    rec, = [r for r in doc["evidence"] if r["kind"] == "rational_system"]
    rec["solvable"] = not rec["solvable"]
    rec["hash"] = _record_hash(rec)
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 1
    assert "rational_system.solvable changed" in capsys.readouterr().err


def test_replay_missing_file(capsys, tmp_path):
    assert main(["replay", str(tmp_path / "absent.json")]) == 1
    assert "cannot read certificate" in capsys.readouterr().err


def test_ve_linearized(capsys):
    code = main(["ve", "--field", "x = 1; y = z; z = x*y + 2*y^3",
                 "--curve", "y = 0; z = 0", "--order", "3",
                 "--normal", "--linearize"])
    assert code == 0
    out = capsys.readouterr().out
    assert "y^(1)^3" in out
    assert out.count("[") == 6


def test_ve_prints_jet_system(capsys):
    code = main(["ve", "--field", "x = 1; y = z; z = x*y",
                 "--order", "1"])
    assert code == 0
    assert "z^(1)'" in capsys.readouterr().out


def test_ve_non_invariant_curve(capsys):
    code = main(["ve", "--field", "x = 1; y = z; z = x*y",
                 "--curve", "y = 1; z = 0", "--order", "1", "--linearize"])
    assert code == 1


@pytest.mark.parametrize("curve, code", [("y = 0; z = 0", 0),
                                         ("y = 1; z = 0", 1)])
def test_ve_autonomous_field_at_a_point(capsys, curve, code):
    """A field with no independent coordinate restricts at an
    equilibrium and refuses any other point."""
    assert main(["ve", "--field", "y = z; z = y", "--order", "1",
                 "--curve", curve, "--linearize"]) == code
    if code == 0:
        assert capsys.readouterr().out.splitlines() == [
            "variables: y^(1), z^(1)", "[ 0, 1 ]", "[ 1, 0 ]"]
    else:
        assert "not invariant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", json.loads((Path(__file__).parent / "ve_pinned.json").read_text(
        encoding="utf-8")), ids=lambda case: case["name"])
def test_ve_output_is_pinned(capsys, case):
    """`irred ve` prints, byte for byte, what it printed when the
    coefficients of a field with no independent coordinate were constant
    rational functions: the CI field, the P3 w-field at orders 1 to 3
    (prolonged, and linearized at y = 1, z = -mu/2), and two fields with
    an independent coordinate."""
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_ve_autonomous_field_has_no_t(capsys):
    """A field with no independent coordinate has no variable t: it is
    an unknown name, and bad input."""
    assert main(["ve", "--field", "y = z/3 + t; z = 2*y^2",
                 "--order", "1"]) == 1
    assert "unknown name 't'" in capsys.readouterr().err


def test_oracle_runs(capsys):
    code = main(["oracle", "--field", "x = 1; y = z; z = 0 - y",
                 "--curve", "y = 0; z = 0", "--order", "1"])
    assert code == 0
    assert "OK" in capsys.readouterr().out
