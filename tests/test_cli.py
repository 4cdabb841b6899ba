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
    # (|E| + F) * digits(7!) = (999 + 2) * 4 = 4 004
    code, _, err = run_cli(
        capsys, "oracle", "--surface", "crosscaps:1001", "--degree", "7",
        "--profile", "7", "--profile", "7",
    )
    assert code == 3
    assert "output size guard" in err


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


_RELATION = ["mc", "--relation", "sAUBU-1", "--N", "2", "--samples", "10000"]
_PROPOSITION = ["mc", "--proposition", "prop1", "--N", "2", "--samples", "10000"]


@pytest.mark.parametrize("argv,line", [
    (_RELATION + ["--degree=-1"], "mc --relation takes no --degree"),
    (_RELATION + ["--degree", "2"], "mc --relation takes no --degree"),
    (_RELATION + ["--n=-1"], "mc --relation takes no --n"),
    (_RELATION + ["--t=-1", "--n", "1"], "mc --relation takes no --n, --t"),
    (_PROPOSITION + ["--lambda", "1"], "mc --proposition takes no --lambda"),
    (_PROPOSITION + ["--mu=-1", "--lambda", "2"], "mc --proposition takes no --lambda, --mu"),
    (_PROPOSITION + ["--relation", "sAUBU-1"], "choose one of --relation and --proposition"),
    (["selftest", "--quick", "--seed=-1"], "seed must satisfy 0 <= seed < 2^64"),
    (["selftest", "--seed", str(2**64)], "seed must satisfy 0 <= seed < 2^64"),
    (_PROPOSITION + ["--t=-1"], "layout prop1 takes no t"),
    (["genfun", "--layout", "prop1", "--t=-1", "--dmax", "1"], "layout prop1 takes no t"),
    (["mc", "--proposition", "prop3_u", "--n", "2", "--t", "1", "--N", "2", "--samples", "10000"],
     "layout prop3_u fixes t = n = 2"),
    (["genfun", "--unbranched", "--t=-1", "--dmax", "1"], "genfun --unbranched takes no --t"),
    (["genfun", "--single-branch", "--N=0", "--dmax", "1"], "genfun --single-branch takes no --N"),
    (["genfun", "--single-branch", "--N=0", "--n=-4", "--dmax", "1"],
     "genfun --single-branch takes no --n, --N"),
    (["genfun", "--unbranched", "--layout", "prop1"],
     "choose one of --layout, --unbranched and --single-branch"),
])
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv, line):
    """A flag of the mode that does not run, a t that the layout fixes, or a
    seed out of range without the checks that draw, is refused before anything
    runs."""
    assert run_cli(capsys, *argv) == (2, "", f"invalid input: {line}\n")


def test_genfun_layout_flags_default_in_their_own_mode(capsys):
    """Without --n and --N a layout series takes n = 1 and N = 3."""
    assert (run_cli(capsys, "genfun", "--layout", "prop1", "--dmax", "2")
            == run_cli(capsys, "genfun", "--layout", "prop1", "--n", "1", "--N", "3", "--dmax", "2"))


@pytest.mark.parametrize("argv,flag", [
    (["oracle", "--surface", "genus:x", "--degree", "3"], "--surface genus:"),
    (["oracle", "--surface", "crosscaps:" + "9" * 4301, "--degree", "3"], "--surface crosscaps:"),
    (["hirota", "--n=1,x"], "--n"),
    (["hurwitz", "--euler", "1", "--degree", "3", "--profile", "2,x"], "--profile"),
    (["schur", "--partition", "1,2"], "--partition"),
    (["mc", "--relation", "sAUBU-1", "--lambda", "1.5", "--N", "2"], "--lambda"),
    (["mc", "--relation", "sAUBU-1", "--lambda", "2", "--mu", "x", "--N", "2"], "--mu"),
])
def test_bad_integer_text_is_named_with_its_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: {flag} takes ") and err.count("\n") == 1
    assert len(err) < 200


def test_mc_flags_default_in_their_own_mode(capsys, monkeypatch):
    """Without --lambda a relation moment takes (1); without --n and --degree a
    proposition check takes n = 1 at degree 2."""
    calls = []
    done = MCComparison(MCEstimate(1j, 0.0, 10_000, 1), 1j, 0.0, True)
    monkeypatch.setattr(cli, "mc_schur_moment", lambda *a, **k: calls.append((a, k)) or done)
    monkeypatch.setattr(cli, "mc_proposition_check", lambda *a, **k: calls.append((a, k)) or done)
    assert run_cli(capsys, *_RELATION)[0] == 0
    assert run_cli(capsys, *_PROPOSITION)[0] == 0
    (relation, _), (proposition, kwargs) = calls
    assert relation == ("sAUBU-1", (1,), 2)
    assert proposition == ("prop1", 1, 2) and kwargs["degree"] == 2


@pytest.mark.parametrize("profile", ["9" * 4301, "1," * 3000 + "x", "1," * 3000 + "2"])
def test_a_rejected_partition_is_named_in_one_short_line(capsys, profile):
    code, out, err = run_cli(capsys, "hurwitz", "--euler", "1", "--degree", "3",
                             "--profile", profile)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 200
    assert f"({len(profile)} characters)" in err


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


_PAST_INT_LIMIT = "9" * 4301  # one digit past Python's limit for integer strings

# subcommand and the arguments that make it read each of its numeric flags ->
# {flag: exit code at -1}.  A negative Euler characteristic, constant or
# offset is an answer; --r=-1 gives r(x) = x - 1, which vanishes at x = 1.
_NUMERIC_FLAGS = [
    (["hurwitz", "--euler", "1", "--degree", "3"],
     {"--euler": 0, "--degree": 2, "--cutoff": 2, "--profile": 2}),
    (["oracle", "--surface", "rp2", "--degree", "3"],
     {"--degree": 2, "--profile": 2, "--surface=genus:": 2, "--surface=crosscaps:": 2}),
    (["characters"], {"--d": 2}),
    (["schur", "--partition", "2,1"], {"--partition": 2, "--at-constant": 0}),
    (["genfun", "--layout", "int4", "--n", "3", "--t", "3"], {"--n": 2, "--t": 2, "--N": 2, "--dmax": 2}),
    (["hirota"], {"--r": 2, "--N": 2, "--dmax": 2, "--n": 0}),
    (["mc", "--relation", "sAUBU-1", "--N", "2", "--samples", "10000"],
     {"--lambda": 2, "--mu": 2, "--N": 2, "--samples": 3, "--seed": 2}),
    (["mc", "--proposition", "int4", "--n", "3", "--t", "3", "--N", "2", "--samples", "10000"],
     {"--n": 2, "--t": 2, "--N": 2, "--degree": 2, "--samples": 3, "--seed": 2}),
    (["selftest"], {"--seed": 2}),
]
_RATIONAL_FLAGS = {"--at-constant", "--r"}


def _numeric_cases():
    """A flag that ends in ":" takes its value straight after it."""
    for base, flags in _NUMERIC_FLAGS:
        for flag, negative in flags.items():
            values = [(_PAST_INT_LIMIT, (2, 3)), ("-1", (negative,))]
            if flag in _RATIONAL_FLAGS:
                values.insert(1, ("1e5000", (3,)))
            if flag.endswith(":"):
                values.append(("x", (2,)))
            for value, codes in values:
                arg = flag + value if flag.endswith(":") else f"{flag}={value}"
                yield pytest.param(base, arg, codes, id=f"{' '.join(base[:3])} {arg[:len(flag) + 9]}")


@pytest.mark.parametrize("base,arg,codes", list(_numeric_cases()))
def test_every_numeric_flag_ends_in_its_exit_code(capsys, base, arg, codes):
    """Every numeric flag at one digit past the integer-string limit, at 1e5000
    where it takes a rational, and at -1: no exception escapes main, and no
    value is printed whole."""
    try:
        code = main([*base, arg])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code in codes
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err) < 1024


def test_an_integer_flag_past_the_digit_limit_exits_2_naming_its_flag(capsys):
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value
        main(["hurwitz", "--euler", "1", f"--degree={_PAST_INT_LIMIT}"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: argument --degree: takes an integer of at most 4300 digits, "
                        "got '999999999999999999999999'... (4301 characters)\n")
    assert len(err) < 1024


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 763. MiB for an array"),
     "out of memory: Unable to allocate 763. MiB for an array\n"),
    (MemoryError(), "out of memory\n"),
])
def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "hurwitz_number", exhausted)
    code, out, err = run_cli(capsys, "hurwitz", "--euler", "1", "--degree", "3")
    assert (code, out, err) == (3, "", line)
