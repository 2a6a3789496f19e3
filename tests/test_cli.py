import json
import os
from pathlib import Path

import pytest

import wittlab.verify
from wittlab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_polys_matches_golden(capsys):
    code, out, _ = run(capsys, "gen-polys", "-p", "2", "-n", "3",
                       "--kind", "product")
    assert code == 0
    assert out == (ROOT / "polys" / "p2_n3_product.txt").read_text()


def test_gen_polys_sum_oracle(capsys):
    code, out, _ = run(capsys, "gen-polys", "-p", "2", "-n", "2")
    assert code == 0
    assert out.splitlines() == ["S0 = x0 + y0", "S1 = x1 + y1 - x0*y0"]


def test_padic_teichmuller_sum(capsys):
    code, out, _ = run(capsys, "padic", "-p", "2", "-n", "2", "T(1)+T(1)")
    assert code == 0
    assert out.strip() == "(0,1) = 2 mod 4"


def test_padic_operators(capsys):
    code, out, _ = run(capsys, "padic", "-p", "2", "-n", "2", "V(T(1))")
    assert code == 0
    assert out.strip() == "(0,1) = 2 mod 4"
    code, out, _ = run(capsys, "padic", "-p", "3", "-n", "2", "(1,2)*(2,1)")
    assert code == 0
    assert out.strip().endswith("mod 9")
    code, out, _ = run(capsys, "padic", "-p", "2", "-n", "3", "R((1,1,1))")
    assert code == 0
    assert "mod 4" in out


def test_padic_parse_error(capsys):
    code, _, err = run(capsys, "padic", "-p", "2", "-n", "2", "T(1)+")
    assert code == 2
    assert "invalid input" in err
    code, _, err = run(capsys, "padic", "-p", "2", "-n", "2", "(1,1,1)")
    assert code == 2


def test_padic_composite_p(capsys):
    code, _, err = run(capsys, "padic", "-p", "4", "-n", "2", "T(1)")
    assert code == 2


def test_big_two_vectors(capsys):
    code, out, _ = run(capsys, "big", "-N", "3", "1,2,3", "1,0,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x = (1,2,3)"
    assert any(line.startswith("x*y") for line in lines)


def test_big_bad_components(capsys):
    code, _, err = run(capsys, "big", "-N", "3", "1,two,3")
    assert code == 2


def test_padic_length_zero_rejected(capsys):
    code, out, err = run(capsys, "padic", "-p", "2", "-n", "0", "T(1)")
    assert code == 2
    assert out == ""
    assert "length must be >= 1" in err


def test_padic_negative_length_rejected(capsys):
    code, out, err = run(capsys, "padic", "-p", "2", "-n", "-1", "T(1)")
    assert code == 2
    assert out == ""
    assert "length must be >= 1" in err


def test_big_truncation_zero_rejected(capsys):
    code, out, err = run(capsys, "big", "-N", "0", "1,2")
    assert code == 2
    assert "N must be >= 1" in err
    assert "components" not in err


def test_qgroup_text_and_json(capsys):
    code, out, _ = run(capsys, "qgroup", "-p", "2", "-n", "2", "-d", "2")
    assert code == 0
    assert "order 32" in out
    assert "Z/2 x (Z/4)^2" in out
    code, out, _ = run(capsys, "--format", "json",
                       "qgroup", "-p", "2", "-n", "2", "-d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "wittlab/1"
    assert doc["command"] == "qgroup"
    assert doc["order"] == 32
    assert doc["invariant_factors"] == [2, 4, 4]


def test_qgroup_d6_payload(capsys):
    """The full JSON payload at p=2, n=2, d=6 (336 orbit generators).

    Recorded once from the implementation that took each image order
    from a Smith-form subgroup presentation, where this invocation ran
    for 88 s on a 2-core VM; image orders now come from |dst| / |coker|
    and the command answers in well under a second.
    """
    code, out, _ = run(capsys, "--format", "json",
                       "qgroup", "-p", "2", "-n", "2", "-d", "6")
    assert code == 0
    assert out == json.dumps({
        "schema": "wittlab/1",
        "command": "qgroup",
        "p": 2,
        "n": 2,
        "d": 6,
        "invariant_factors": [2] * 15 + [4] * 6,
        "order": 134217728,
        "R_image_order": 64,
        "V_image_order": 2097152,
        "F_image_order": 2097152,
    }, indent=1) + "\n"


def test_global_flags_accepted_after_subcommand(capsys):
    code, out, _ = run(capsys, "qgroup", "-p", "2", "-n", "2", "-d", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 32
    code, _, err = run(capsys, "qgroup", "-p", "2", "-n", "4", "-d", "3",
                       "--limit", "100")
    assert code == 3
    assert "exceed" in err


def test_truncated_expression_message(capsys):
    code, _, err = run(capsys, "padic", "-p", "2", "-n", "2", "(1,")
    assert code == 2
    assert "unexpected end of expression" in err


def test_ncpoly_output(capsys):
    code, out, _ = run(capsys, "ncpoly", "-p", "2", "-n", "2")
    assert code == 0
    assert "c1 = x0.x1" in out
    assert "abelianized c1 = x0*x1" in out


def test_ncpoly_resource_limit(capsys):
    code, _, err = run(capsys, "ncpoly", "-p", "2", "-n", "5")
    assert code == 3
    assert "resource" in err
    code, _, err = run(capsys, "--limit", "10", "ncpoly", "-p", "2", "-n", "2")
    assert code == 3


def test_whh_commutative(capsys):
    code, out, _ = run(capsys, "whh", str(ROOT / "algebras" / "f4.json"),
                       "-n", "1")
    assert code == 0
    assert "order 4" in out
    assert "matches classical W_1: true" in out
    assert "R surjective true" in out


def test_whh_missing_file(capsys):
    code, _, err = run(capsys, "whh", "no_such_algebra.json", "-n", "1")
    assert code == 2
    assert "invalid input" in err


def test_whh_level_below_one_rejected(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "whh", str(ROOT / "algebras" / "f2.json"),
                             "-n", n)
        assert code == 2
        assert out == ""
        assert "level must be >= 1" in err


def test_whh_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "whh",
                       str(ROOT / "algebras" / "f2.json"), "-n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [4]
    assert doc["matches_classical"] is True
    assert doc["middle_exact"] is True


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "classical")
    assert code == 0
    assert "4/4 checks passed" in out
    for name in ("ghost_homomorphism", "poly_spot_values",
                 "padic_iso", "vf_identities"):
        assert f"{name}: pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        wittlab.verify.SUITES, "classical",
        [("always_red", lambda: False)],
    )
    code, out, _ = run(capsys, "verify", "classical")
    assert code == 1
    assert "always_red: fail" in out
    assert "0/1 checks passed" in out


def test_verify_reports_exceptions(capsys, monkeypatch):
    def divides_by_zero():
        return 1 // 0

    monkeypatch.setitem(
        wittlab.verify.SUITES, "classical",
        [("divides_by_zero", divides_by_zero), ("still_runs", lambda: True)],
    )
    code, out, _ = run(capsys, "verify", "classical")
    assert code == 1
    assert ("divides_by_zero: fail (ZeroDivisionError: "
            "integer division or modulo by zero)") in out
    assert "still_runs: pass" in out
    assert "1/2 checks passed" in out


def test_limit_flag_leaves_the_environment_alone(capsys, monkeypatch):
    import wittlab.tate

    monkeypatch.setenv("WITTLAB_LIMIT", "10")
    before = dict(os.environ)
    real_build_q, seen = wittlab.tate.build_Q, []

    def build_q(*args):
        # the bound arrives as an argument, the environment stays as set
        seen.append((args[3:], os.environ["WITTLAB_LIMIT"]))
        return real_build_q(*args)

    monkeypatch.setattr(wittlab.tate, "build_Q", build_q)
    code, out, _ = run(capsys, "--limit", "100000",
                       "qgroup", "-p", "2", "-n", "2", "-d", "2")
    assert code == 0
    assert "order 32" in out
    assert seen and all(s == ((100000,), "10") for s in seen)
    assert dict(os.environ) == before
    code, _, err = run(capsys, "--limit", "0",
                       "qgroup", "-p", "2", "-n", "2", "-d", "2")
    assert code == 2
    assert "limit must be positive" in err


def test_json_mirrors_text_fields(capsys):
    _, text_out, _ = run(capsys, "padic", "-p", "2", "-n", "2", "T(1)+T(1)")
    _, json_out, _ = run(capsys, "--format", "json",
                         "padic", "-p", "2", "-n", "2", "T(1)+T(1)")
    doc = json.loads(json_out)
    assert doc["components"] == [0, 1]
    assert doc["value"] == 2
    assert doc["modulus"] == 4
    assert text_out.strip() == "(0,1) = 2 mod 4"


def test_output_deterministic(capsys):
    a = run(capsys, "qgroup", "-p", "3", "-n", "1", "-d", "2")
    b = run(capsys, "qgroup", "-p", "3", "-n", "1", "-d", "2")
    assert a == b
