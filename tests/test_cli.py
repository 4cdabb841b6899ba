import json

import pytest

from hurwitzkit import cli
from hurwitzkit.cli import main
from hurwitzkit.matrixmc import LEMMA_RELATIONS, MCComparison, MCEstimate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hurwitz_command(capsys):
    code, out, _ = run_cli(capsys, "hurwitz", "--euler", "1", "--degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2/3"
    assert payload["true_hurwitz"] is True
    assert payload["euler_cover"] == 3


def test_hurwitz_with_profiles_and_cutoff(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--euler", "1", "--degree", "3", "--profile", "3"
    )
    assert code == 0 and json.loads(out)["value"] == "1/3"
    code, out, _ = run_cli(
        capsys, "hurwitz", "--euler", "1", "--degree", "3", "--cutoff", "1"
    )
    payload = json.loads(out)
    assert payload["true_hurwitz"] is False


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--surface", "rp2", "--degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4 and payload["value"] == "2/3"


def test_oracle_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--surface", "rp2", "--degree", "7",
        "--profile", "7", "--profile", "7", "--profile", "7", "--profile", "7",
    )
    assert code == 3
    assert "guard" in err


def test_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "hurwitz", "--euler", "1", "--degree", "3",
                           "--profile", "2")
    assert code == 2
    assert "invalid" in err
    code, _, err = run_cli(capsys, "oracle", "--surface", "moebius", "--degree", "2")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--euler", "1", "--degree", "3", "--bogus"])
    assert exc.value.code == 2


def test_characters_csv(capsys):
    code, out, _ = run_cli(capsys, "characters", "--d", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("lam\\delta")
    code, out, _ = run_cli(capsys, "characters", "--d", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["2,1"]["1,1,1"] == 2


def test_schur_command(capsys):
    code, out, _ = run_cli(capsys, "schur", "--partition", "2,1", "--at-constant", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["power_sum_expansion"] == {"1,1,1": "1/3", "3": "-1/3"}
    assert payload["value_at_constant"] == "8/1"


def test_genfun_layout(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--layout", "prop1", "--n", "2", "--N", "3", "--dmax", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["euler"] == 2
    assert payload["branch_points"] == 4
    assert any(term["degree"] == 2 for term in payload["series"])
    for term in payload["series"]:
        assert "/" in term["coeff"]


def test_genfun_layout_missing_t_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "genfun", "--layout", "int3", "--n", "4")
    assert code == 2
    assert "needs the t parameter" in err


def test_genfun_unbranched(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--unbranched", "--dmax", "4")
    payload = json.loads(out)
    assert payload["coefficients"][3] == "2/3"
    assert payload["coefficients"][4] == "5/12"


def test_hirota_command(capsys):
    code, out, _ = run_cli(capsys, "hirota", "--r", "one", "--N", "1", "--dmax", "3")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(capsys, "hirota", "--r", "1/2", "--N", "2", "--dmax", "3")
    assert code == 0 and json.loads(out)["holds"] is True


def test_hirota_negative_values_take_the_equals_form(capsys):
    code, out, _ = run_cli(capsys, "hirota", "--r=-1/2", "--n=-1,1", "--N", "2", "--dmax", "3")
    assert code == 0 and json.loads(out)["holds"] is True
    # Without "=", argparse reads "-1/2" (or "-1,1") as an option, not a value.
    for argv in (["--r", "-1/2"], ["--n", "-1,1"]):
        with pytest.raises(SystemExit) as exc:
            main(["hirota", *argv, "--N", "2", "--dmax", "3"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:") and "expected one argument" in err
        assert "Traceback" not in err


def test_mc_command(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--relation", "sAZBZ+", "--lambda", "2", "--N", "3",
        "--samples", "12000", "--seed", "42",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["mean"]) == 2 and len(payload["exact"]) == 2
    assert payload["sigmas"] <= 5


def test_mc_proposition_command(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--proposition", "prop2_u", "--n", "1", "--N", "3",
        "--degree", "2", "--samples", "10000", "--seed", "3",
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_mc_proposition_takes_every_layout_and_t(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--proposition", "int5", "--n", "2", "--t", "2", "--N", "3",
        "--samples", "10000",
    )
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, "mc", "--proposition", "chekhov", "--n", "2", "--N", "3",
                           "--samples", "10000")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["genfun", "--layout", "prop1", "--n", "9"],
        ["genfun", "--layout", "prop1", "--n", "8", "--dmax", "4"],
    ],
)
def test_genfun_size_guards_exit_3_without_traceback(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "guard" in err and "Traceback" not in err


def test_hurwitz_degree_guard_exits_3_without_traceback(capsys):
    code = main(["hurwitz", "--euler", "1", "--degree", "33"])
    err = capsys.readouterr().err
    assert code == 3
    assert "guard" in err and "Traceback" not in err


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_exits_1_when_an_exact_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cauchy_littlewood_check", lambda d_max: False)
    code, out, _ = run_cli(capsys, "selftest", "--quick")
    assert code == 1
    assert out.count("[PASS]") == 8 and "[FAIL] cauchy-littlewood degree 4\n" in out


def test_selftest_exits_4_when_a_monte_carlo_gate_fails(capsys, monkeypatch):
    failing = MCComparison(MCEstimate(1 + 0j, 0.01, 20_000, 42), 0j, 100.0, False)
    monkeypatch.setattr(cli, "mc_schur_moment", lambda *args, **kwargs: failing)
    code, out, _ = run_cli(capsys, "selftest")
    lines = out.splitlines()
    assert code == 4 and len(lines) == 13
    assert all(line.startswith("[PASS] ") for line in lines[:9])
    assert lines[9:] == [f"[FAIL] mc {rel} (sigmas=100.00)" for rel in LEMMA_RELATIONS]


@pytest.mark.parametrize(
    "env,argv",
    [
        ({}, ["mc", "--relation", "sAUBU-1", "--N", "2", "--seed", "-1"]),
        ({}, ["schur", "--partition", "2,1", "--at-constant", "1/0"]),
        ({}, ["mc", "--proposition", "prop1", "--N", "2", "--degree", "0"]),
        ({}, ["mc", "--proposition", "prop1", "--N", "0"]),
        ({}, ["mc", "--relation", "sAUBU-1", "--N", "0"]),
        ({}, ["oracle", "--surface", "torus", "--degree", "0"]),
        ({}, ["hirota", "--dmax", "-1"]),
        ({}, ["hirota", "--dmax", "-2"]),
        ({}, ["mc", "--relation", "sAUBU-1", "--lambda", "2", "--mu", "1,1", "--N", "2",
              "--samples", "10000"]),
        ({}, ["genfun"]),
        ({}, ["mc", "--N", "2"]),
        ({}, ["mc", "--relation", "sAUBU-1", "--lambda=-", "--N", "2"]),
    ],
)
def test_bad_input_exits_2_without_traceback(capsys, monkeypatch, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--surface", "torus", "--degree", "3", "--profile", "4"],
         "profile (4,) has weight 4, expected 3"),
        (["genfun", "--layout", "prop1", "--dmax", "-1"], "d_max must be >= 0, got -1"),
        (["hirota", "--N", "0"], "cutoff N must be >= 1, got 0"),
        (["hirota", "--N", "0", "--dmax", "7"], "cutoff N must be >= 1, got 0"),
    ],
)
def test_bad_input_names_what_is_wrong(capsys, argv, message):
    assert main(argv) == 2
    assert f"invalid input: {message}\n" == capsys.readouterr().err


def test_mc_proposition_too_few_samples_exits_3(capsys):
    code = main(["mc", "--proposition", "prop1", "--N", "2", "--samples", "1"])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--relation", "sAUBU-1", "--N", "2", "--samples", "1000000000000000"],
        ["mc", "--proposition", "prop1", "--N", "2", "--samples", "1000000000000000"],
        ["mc", "--proposition", "prop2", "--n", "9", "--N", "3", "--samples", "10000",
         "--degree", "1"],
        ["mc", "--proposition", "prop2", "--n", "160", "--N", "3", "--samples", "10000",
         "--degree", "1"],
    ],
)
def test_mc_size_guards_exit_3_without_traceback(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "guard" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--single-branch", "--dmax", "0"],
    ["--single-branch", "--dmax", "4"],
    ["--layout", "prop1", "--n", "2", "--N", "2", "--dmax", "2"],
    ["--layout", "odd3", "--n", "3", "--t", "2", "--N", "1", "--dmax", "3"],
])
def test_genfun_streams_the_json_of_the_whole_listing(capsys, argv):
    code, out, _ = run_cli(capsys, "genfun", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
