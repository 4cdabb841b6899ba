"""The guard table: its README listing, the output-size guard, a CLI fuzz
check that every argv ends in a documented exit code without a traceback, and
a table of library inputs that each end in their own ValidationError."""
import contextlib
import time
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import LIMITS, GuardError, ValidationError
from hurwitzkit.characters import colength_sum, full_cycle_normalized_character, weighted_colength_sum
from hurwitzkit.cli import main
from hurwitzkit.genfun import (ContentFunction, PochhammerParam, ProfileSeries, SeriesKey,
                               fold_alphabet, hyp_tau_series, hypergeometric_series)
from hurwitzkit.hurwitz import full_cycle_identity_holds, hurwitz_value, hurwitz_weighted_sum
from hurwitzkit.matrixmc import MCEstimate, mc_proposition_check, mc_schur_moment
from hurwitzkit.oracle import SurfacePresentation
from hurwitzkit.partitions import FrobeniusCoords, Partition, euler_char_cover, partitions_of
from hurwitzkit.symfunc import PowerAlphabet, PowerSumPoly, qt_pochhammer_lambda

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_readme_lists_every_limit_with_its_value():
    text = README.read_text()
    section = text.split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("- `")]
    assert len(rows) == len(LIMITS)
    for name, limit in LIMITS.items():
        assert any(row.startswith(f"- `{name}`: {limit} ") for row in rows), name


@pytest.mark.parametrize(
    "argv,code",
    [
        (["hurwitz", "--euler", "444", "--degree", "12"], 0),
        (["hurwitz", "--euler", "-444", "--degree", "12"], 0),
        (["hurwitz", "--euler", "445", "--degree", "12"], 3),
        (["hurwitz", "--euler", "2", "--degree", "32"] + ["--profile", "32"] * 130, 3),
    ],
)
def test_output_size_guard_admits_only_printable_values(argv, code):
    got, out, err = _run(argv)
    assert got == code
    assert "Traceback" not in err
    if code == 3:
        assert "guard" in err and not out
    else:
        assert "/" in out


def test_output_size_guard_admits_abs_euler_111_at_degree_32():
    # 111 * digits(32!) = 3 996 is admitted, 112 * 36 = 4 032 is not.
    with pytest.raises(GuardError, match="output size"):
        hurwitz_value(112, 32)
    with pytest.raises(GuardError, match="output size"):
        hurwitz_value(-111, 32, [(32,)])


@pytest.mark.parametrize(
    "offsets,code",
    [("16,-16", 0), ("17", 3), ("0,-17", 3), ("1000000", 3), (str(10**12), 3)],
)
def test_bilinear_offset_guard_fires_before_any_normalisation(offsets, code):
    got, out, err = _run(["hirota", "--n", offsets])
    assert got == code
    assert "Traceback" not in err
    if code == 3:
        assert "bilinear offset guard: |n| <= 16" in err and not out


_BIG = 10**12

# subcommand -> (choices of fixed arguments, {integer flag: the limit it meets}).
# Every MC call gets --samples from the fuzz values, all of them outside the
# samples limit, so no case draws a matrix.
_FUZZ = {
    "hurwitz": ([[]], {"--euler": "output size", "--degree": "character formula",
                       "--cutoff": None}),
    "oracle": ([["--surface", s] for s in ("sphere", "torus", "klein", "genus:1000000000000",
                                            "crosscaps:-1")],
               {"--degree": "oracle degree"}),
    "characters": ([[]], {"--d": "character table"}),
    "schur": ([[]], {"--partition": "schur expansion"}),
    "genfun": ([["--layout", "prop1"], ["--layout", "int4"], ["--layout", "odd3_u"],
                ["--unbranched"], ["--single-branch"]],
               {"--n": "layout matrices", "--t": None, "--N": None, "--dmax": "series degree"}),
    "hirota": ([[]], {"--N": None, "--dmax": "bilinear check", "--n": "bilinear offset"}),
    "mc": ([["--relation", "sAUBU-1"], ["--relation", "sAZZ+B"], ["--proposition", "prop2_u"],
            ["--proposition", "int4"]],
           {"--lambda": "mc weight", "--n": "layout matrices", "--t": None,
            "--N": "mc moment size", "--degree": "mc proposition degree",
            "--samples": "mc samples", "--seed": None}),
    "selftest": ([["--quick"]], {"--seed": None}),
}


def _fuzz_value(limit):
    """-1, 0, 1, 2, one past the limit and 10^12: no value inside the table
    that costs real work."""
    past = [LIMITS[limit].most + 1] if limit else []
    return st.sampled_from([-1, 0, 1, 2, *past, _BIG])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ)))
    fixed, flags = _FUZZ[command]
    argv = [command, *draw(st.sampled_from(fixed))]
    for flag, limit in flags.items():
        argv += [flag, str(draw(_fuzz_value(limit)))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_argvs())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    code, _, err = _run(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "shift,code",
    [("-9973/9967", 0), ("1/2", 0), ("10000/3", 3), ("1/10000", 3),
     (str(10**400 + 1) + "/3", 3), ("1e400", 3), ("1/0", 2)],
)
def test_content_shift_guard_fires_before_any_product(shift, code):
    start = time.monotonic()
    got, out, err = _run(["hirota", f"--r={shift}", "--N", "1", "--dmax", "1"])
    assert got == code
    assert "Traceback" not in err
    if code == 3:
        assert "content shift guard: digits of numerator and denominator <= 4" in err
        assert not out and time.monotonic() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["genfun", "--layout", "prop1", "--N", "0"],
        ["genfun", "--layout", "prop1_u", "--N", "-3"],
        ["genfun", "--layout", "prop1", "--dmax", "-1"],
        ["genfun", "--single-branch", "--dmax", "-2"],
        ["genfun", "--unbranched", "--dmax", "-1"],
    ],
)
def test_genfun_negative_degree_or_size_exits_2(argv):
    code, out, err = _run(argv)
    assert code == 2
    assert "invalid input" in err and "must be >=" in err
    assert not out and "Traceback" not in err


def _p2_series(aux_names=()):
    """The one-alphabet series whose only term is p_2, times each aux symbol."""
    series = ProfileSeries(1, 2, aux_names)
    series.add(SeriesKey(2, (Partition((2,)),), (1,) * len(aux_names)), Fraction(1))
    return series


# (input, the message it must be rejected with): one row per rejection, each
# reached past every check before it.
_REJECTIONS = {
    "mc workers 0": (lambda: mc_schur_moment("sAUBU-1", (1,), 2, samples=10_000, workers=0),
                     "workers must be >= 1"),
    "mc empty lambda": (lambda: mc_schur_moment("sAUBU-1", (), 2, samples=10_000),
                        "partitions must be nonempty"),
    "mc proposition workers 0": (lambda: mc_proposition_check("prop2", 1, 2, workers=0),
                                 "workers must be >= 1"),
    "estimate of 1 sample": (lambda: MCEstimate(0j, 0.0, 1, 0), "at least 2 samples"),
    "negative stderr": (lambda: MCEstimate(0j, -1.0, 10, 0), "stderr must be nonnegative"),
    "weighted sum k = 0": (lambda: hurwitz_weighted_sum(2, 3, [], [(0, 1)]),
                           "weight order k must be >= 1"),
    "full cycle, no handles": (lambda: full_cycle_identity_holds(2, 3, handles=0),
                               "handles must be >= 1"),
    "colength -1": (lambda: colength_sum((2, 1), -1), "colength must be >= 0"),
    "weighted colength k = 0": (lambda: weighted_colength_sum((2, 1), 0, 2), "k must be >= 1"),
    "full cycle of ()": (lambda: full_cycle_normalized_character(()),
                         "full cycle needs weight >= 1"),
    "surface kind klein": (lambda: SurfacePresentation("klein"), "unknown surface kind 'klein'"),
    "evaluate, no alphabet": (lambda: _p2_series().evaluate([]), "alphabet count mismatch"),
    "evaluate, truncated alphabet": (lambda: _p2_series().evaluate([PowerAlphabet.p_infinity(1)]),
                                     "alphabet truncated below p_2"),
    "evaluate, missing symbol": (
        lambda: _p2_series(("a",)).evaluate([PowerAlphabet.p_infinity(2)]),
        "no value supplied for symbol 'a'"),
    "Pochhammer value and symbol": (lambda: PochhammerParam(1, value=1, symbol="a"),
                                    "exactly one of value/symbol"),
    "Pochhammer, neither": (lambda: PochhammerParam(1), "exactly one of value/symbol"),
    "inverse of a vanishing Pochhammer": (
        lambda: hypergeometric_series(2, 1, (PochhammerParam(-1, value=0),), d_max=1),
        "cannot invert vanishing numeric factor"),
    "unknown route": (lambda: hypergeometric_series(2, 1, d_max=1, route="hook"),
                      "unknown route 'hook'"),
    "fold index 1 of 1": (lambda: fold_alphabet(_p2_series(), 1, "a"),
                          "alphabet index out of range"),
    "fold index -1": (lambda: fold_alphabet(_p2_series(), -1, "a"),
                      "alphabet index out of range"),
    "tau kind KP": (lambda: hyp_tau_series("KP", ContentFunction.one(), 0, 2),
                    "kind must be TL or BKP"),
    "partitions of -1": (lambda: partitions_of(-1), "d must be >= 0"),
    "arms without legs": (lambda: FrobeniusCoords((1,), ()), "arm and leg counts differ"),
    "cover degree mismatch": (lambda: euler_char_cover(2, [(2, 1)], degree=4),
                              "degree 4 does not match profile weight 3"),
    "cover degree 0": (lambda: euler_char_cover(2, [], degree=0), "degree must be >= 1"),
    "p_0": (lambda: PowerSumPoly.variable(0), "power-sum index must be >= 1"),
    "evaluate without p_2": (lambda: PowerSumPoly.variable(2).evaluate({1: 1}),
                             "alphabet does not define p_2"),
    "alphabet without p_2": (lambda: PowerAlphabet({1: 1, 3: 1}, 3), "alphabet missing p_2"),
    "q/t alphabet at t = 1": (lambda: PowerAlphabet.qt(2, 1, 2),
                              r"p_1 undefined: 1 - t\^1 vanishes"),
    "non-square matrix": (lambda: PowerAlphabet.from_matrix([[1, 2], [3]], 2),
                          "matrix must be square"),
    "q/t Pochhammer at t = 0": (lambda: qt_pochhammer_lambda(2, 0, (1, 1)),
                                "undefined at t = 0 below the diagonal"),
}


@pytest.mark.parametrize("call,message", _REJECTIONS.values(), ids=_REJECTIONS)
def test_every_library_rejection_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
