"""The guard table: its README listing, the rows the code names, the
output-size guard that both exact engines share, a CLI fuzz check that every
argv ends in a documented exit code without a traceback, and a table of
library inputs that each end in their own ValidationError."""
import ast
import contextlib
import time
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import LIMITS, GuardError, ValidationError
from hurwitzkit.characters import _weighted_colength_sum
from hurwitzkit._errors import digits
from hurwitzkit.cli import main
from hurwitzkit.genfun import (ContentFunction, PochhammerParam, ProfileSeries, SeriesKey,
                               fold_alphabet, hyp_tau_series, hypergeometric_series)
from hurwitzkit.hirota import hirota_bilinear_check
from hurwitzkit.hurwitz import hurwitz_value, hurwitz_weighted_sum
from hurwitzkit.matrixmc import MCEstimate, mc_proposition_check, mc_schur_moment
from hurwitzkit.oracle import SurfacePresentation, oracle_count, oracle_hurwitz
from hurwitzkit.partitions import Partition, euler_char_cover, partitions_of
from hurwitzkit.symfunc import PowerAlphabet, PowerSumPoly

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


def _limit_rows(source: str) -> tuple[set, set]:
    """The LIMITS rows a module names, as the first argument of `guard`, as
    the limit of `_check_sizes` (passed or its default) and as the third
    argument of the CLI's `_parse_rational`, and the source text of any other
    expression passed there."""
    rows, passed = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_check_sizes":
            names = [a.arg for a in node.args.args][-len(node.args.defaults):]
            args = [dict(zip(names, node.args.defaults))["limit"]]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "guard":
                args = node.args[:1]
            elif node.func.id in ("_check_sizes", "_parse_rational"):
                args = node.args[2:] + [k.value for k in node.keywords if k.arg == "limit"]
            else:
                continue
        else:
            continue
        for arg in args:
            if isinstance(arg, ast.Constant):
                rows.add(arg.value)
            else:
                passed.add(ast.unparse(arg))
    return rows, passed


def test_every_guarded_row_is_a_limit_and_every_limit_is_guarded():
    """A row name that is not a LIMITS key would end in a KeyError traceback,
    which the CLI does not catch; a key that no call names bounds nothing."""
    assert _limit_rows("def _check_sizes(d, cutoff=None, limit='a'):\n    guard(limit, d)\n"
                       "guard('b', 1)\n_check_sizes(1, None, 'c')\n_check_sizes(1, limit='d')\n"
                       "_check_sizes(1)\nother('e', 1)\n_parse_rational('--x', '1', 'f')\n"
                       ) == ({"a", "b", "c", "d", "f"}, {"limit"})
    rows, passed = set(), set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "hurwitzkit").glob("*.py")):
        module_rows, module_passed = _limit_rows(path.read_text())
        rows |= module_rows
        passed |= module_passed
    assert rows == set(LIMITS)
    assert passed == {"limit"}  # the row _check_sizes or _parse_rational is given


@pytest.mark.parametrize(
    "argv,code",
    [
        (["hurwitz", "--euler", "444", "--degree", "12"], 0),
        (["hurwitz", "--euler", "-444", "--degree", "12"], 0),
        (["hurwitz", "--euler", "445", "--degree", "12"], 3),
        (["hurwitz", "--euler", "2", "--degree", "32"] + ["--profile", "32"] * 130, 3),
        # The oracle obeys the same rule: (|E| + F) * digits(4!) <= 4000.
        (["hurwitz", "--euler", "-2000", "--degree", "4"], 0),
        (["hurwitz", "--euler", "-2001", "--degree", "4"], 3),
        (["oracle", "--surface", "genus:1001", "--degree", "4"], 0),
        (["oracle", "--surface", "genus:1002", "--degree", "4"], 3),
        (["oracle", "--surface", "crosscaps:2002", "--degree", "4"], 0),
        (["oracle", "--surface", "crosscaps:2003", "--degree", "4"], 3),
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

# subcommand and mode -> (choices of fixed arguments, {integer flag the mode reads:
# the limit it meets}). Every MC call gets --samples from the fuzz values, all of
# them outside the samples limit, so no case draws a matrix.
_FUZZ = {
    "hurwitz": ([[]], {"--euler": "output size", "--degree": "character formula",
                       "--cutoff": None}),
    "oracle": ([["--surface", s] for s in ("sphere", "torus", "klein", "genus:1000000000000",
                                            "crosscaps:-1")],
               {"--degree": "oracle degree"}),
    "characters": ([[]], {"--d": "character table"}),
    "schur": ([[]], {"--partition": "schur expansion"}),
    "genfun": ([["--layout", "prop1"], ["--layout", "int4"], ["--layout", "odd3_u"]],
               {"--n": "layout matrices", "--t": None, "--N": None, "--dmax": "series degree"}),
    "genfun --unbranched": ([[]], {"--dmax": "unbranched generator"}),
    "genfun --single-branch": ([[]], {"--dmax": "series degree"}),
    "hirota": ([[]], {"--N": None, "--dmax": "bilinear check", "--n": "bilinear offset"}),
    "mc --relation": ([["sAUBU-1"], ["sAZZ+B"]],
                      {"--lambda": "mc weight", "--N": "mc moment size",
                       "--samples": "mc samples", "--seed": None}),
    "mc --proposition": ([["prop2_u"], ["int4"]],
                         {"--n": "layout matrices", "--t": None, "--N": "mc proposition size",
                          "--degree": "mc proposition degree", "--samples": "mc samples",
                          "--seed": None}),
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
    argv = [*command.split(), *draw(st.sampled_from(fixed))]
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
     (str(10**400 + 1) + "/3", 3), ("1e400", 3), ("1e5000", 3), ("1e-5000", 3),
     ("1e10000000", 3), ("1/0", 2)],
)
def test_content_shift_guard_fires_before_any_product(shift, code):
    start = time.monotonic()
    got, out, err = _run(["hirota", f"--r={shift}", "--N", "1", "--dmax", "1"])
    assert got == code
    assert "Traceback" not in err
    if code == 3:
        assert "content shift guard: digits of numerator and denominator <= 4" in err
        assert not out and time.monotonic() - start < 1.0


def test_weight_order_bounds_the_truncation_and_the_pairs():
    """series_trunc and the k of a weighted sum's pairs, added up, are each an
    order in 1/a: the row admits its bound and refuses one more before any
    term is formed."""
    most = LIMITS["weight order"].most
    poch = (PochhammerParam(-2, symbol="a"),)
    hypergeometric_series(2, 1, poch, d_max=1, series_trunc=most)
    hurwitz_weighted_sum(2, 3, [], [(most - 1, 2), (1, 1)])
    start = time.monotonic()
    for call in (lambda: hypergeometric_series(2, 1, poch, d_max=1, series_trunc=most + 1),
                 lambda: hurwitz_weighted_sum(2, 3, [], [(most, 2), (1, 1)]),
                 lambda: hurwitz_weighted_sum(2, 6, [], [(10**5, 2)])):
        with pytest.raises(GuardError, match=f"weight order guard: order k <= {most}"):
            call()
    assert time.monotonic() - start < 1.0


def test_digits_counts_past_the_integer_string_limit():
    assert [digits(n) for n in (0, 7, -10, 99, 100, -(10**5000), 10**5000 - 1)] == [
        1, 1, 2, 2, 3, 5001, 5000]
    with pytest.raises(GuardError, match=r"content shift guard: .* \(got 5001\)"):
        ContentFunction.rational([Fraction(10**5000)])


@pytest.mark.parametrize("call", [
    lambda: oracle_count(SurfacePresentation.orientable(10**5000), 3),
    lambda: oracle_count(SurfacePresentation.torus(), 10**5000),
    lambda: hurwitz_value(10**5000, 3, [(2, 1)]),
])
def test_a_guarded_value_past_the_string_limit_is_named_by_its_digits(call):
    with pytest.raises(GuardError, match=r"\(got a value of 500[01] digits\)"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: SurfacePresentation("nonorientable", crosscaps=1.5), "crosscaps"),
    (lambda: SurfacePresentation.orientable(1.0), "handles"),
    (lambda: oracle_count(SurfacePresentation.torus(), 3.0), "degree"),
    (lambda: oracle_hurwitz(SurfacePresentation.torus(), "3"), "degree"),
    (lambda: hurwitz_value(1.5, 3, [(2, 1)]), "euler"),
    (lambda: hurwitz_value(Fraction(1, 2), 3, [(2, 1)]), "euler"),
    (lambda: hurwitz_value(2, 3.0, [(2, 1)]), "degree"),
    (lambda: hurwitz_value(2, 3, [(2, 1)], cutoff=2.0), "cutoff"),
])
def test_integer_arguments_must_be_integers(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call()


# The largest admitted constants have 400 digits above or below the line; both
# printed values then stay under Python's 4 300-digit limit for integer strings.
@pytest.mark.parametrize(
    "constant,code",
    [("9" * 400, 0), ("-" + "9" * 400 + "/" + "9" * 399 + "7", 0), ("1/" + "9" * 400, 0),
     ("1e399", 0), ("0e10000000", 0), ("1e400", 3), ("1" * 401, 3), ("1e500", 3), ("1e-500", 3),
     ("1e10000000", 3), ("1/0", 2), ("1e9" + "9" * 4300, 2)],
    ids=lambda value: value if isinstance(value, int) or len(value) < 20 else f"{len(value)} chars",
)
def test_schur_constant_guard_fires_before_the_fraction_is_built(constant, code):
    start = time.monotonic()
    got, out, err = _run(["schur", "--partition", "10", f"--at-constant={constant}"])
    assert got == code
    assert "Traceback" not in err
    if code == 3:
        assert "schur constant guard: digits of numerator and denominator <= 400" in err
        assert not out and time.monotonic() - start < 1.0
    elif code == 0:
        assert "/" in out


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
    "mc float seed": (lambda: mc_schur_moment("sAUBU-1", (1,), 2, samples=10_000, seed=1.5),
                      "^seed must be an integer, got 1.5$"),
    "mc float samples": (lambda: mc_schur_moment("sAUBU-1", (1,), 2, samples=10_000.5),
                         "^samples must be an integer, got 10000.5$"),
    "mc string samples": (lambda: mc_schur_moment("sAUBU-1", (1,), 2, samples="10000"),
                          "^samples must be an integer, got '10000'$"),
    "mc proposition float seed": (lambda: mc_proposition_check("prop2", 1, 2, seed=1.5),
                                  "^seed must be an integer, got 1.5$"),
    "mc proposition float samples": (
        lambda: mc_proposition_check("prop2", 1, 2, samples=10_000.5),
        "^samples must be an integer, got 10000.5$"),
    "mc proposition string samples": (lambda: mc_proposition_check("prop2", 1, 2, samples="10000"),
                                      "^samples must be an integer, got '10000'$"),
    "estimate of 1 sample": (lambda: MCEstimate(0j, 0.0, 1, 0), "at least 2 samples"),
    "negative stderr": (lambda: MCEstimate(0j, -1.0, 10, 0), "stderr must be nonnegative"),
    "weighted sum k = 0": (lambda: hurwitz_weighted_sum(2, 3, [], [(0, 1)]),
                           "weight order k must be >= 1"),
    "weighted colength k = 0": (lambda: _weighted_colength_sum((2, 1), 0, 2), "k must be >= 1"),
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
    "series_trunc -1": (lambda: hypergeometric_series(2, 1, d_max=1, series_trunc=-1),
                        "series_trunc must be >= 0, got -1"),
    "fold index 1 of 1": (lambda: fold_alphabet(_p2_series(), 1, "a"),
                          "alphabet index out of range"),
    "fold index -1": (lambda: fold_alphabet(_p2_series(), -1, "a"),
                      "alphabet index out of range"),
    "tau kind KP": (lambda: hyp_tau_series("KP", ContentFunction.one(), 0, 2),
                    "kind must be TL or BKP"),
    "bilinear check at no offset": (
        lambda: hirota_bilinear_check(ContentFunction.one(), 2, 3, n_values=()),
        "n_values must name at least one offset"),
    "partitions of -1": (lambda: partitions_of(-1), "d must be >= 0"),
    "float parts": (lambda: hurwitz_value(2, 3, [(2.5, 1.5)]),
                    r"a partition is an iterable of integers, got \(2.5, 1.5\)"),
    "partition from a string": (lambda: Partition("21"),
                                "a partition is an iterable of integers, got '21'"),
    "partition from an int": (lambda: Partition(5), "a partition is an iterable of integers, got 5"),
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
}


@pytest.mark.parametrize("call,message", _REJECTIONS.values(), ids=_REJECTIONS)
def test_every_library_rejection_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
