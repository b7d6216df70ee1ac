"""Command-line front end: input formats, output formats, exit codes."""

import gc
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrwt.hilbert
from ehrwt import ConsistencyError, LatticePolytope, RationalGF, UniPoly
from ehrwt.cli import read_polytope, run, write_output, write_polytope
from ehrwt.errors import PolytopeFormatError
from ehrwt.polynomials import format_polynomial, format_series

from oracles import jsonable, random_vertices


# ---------------------------------------------------------------- readers

def test_read_native_point():
    P = read_polytope("vertices 1 2\n5 7\n")
    assert P.vertices == ((5, 7),)


def test_read_normaliz_segment():
    P = read_polytope("amb_space 3\npolytope 2\n2 0\n0 2\n")
    assert P.vertices == ((2, 0), (0, 2))


def test_read_normaliz_lifted_block():
    text = "amb_space 4\npolytope 4\n2 0 0\n0 2 0\n2 0 2\n0 2 2\n"
    P = read_polytope(text)
    assert P.vertices == ((2, 0, 0), (0, 2, 0), (2, 0, 2), (0, 2, 2))


def test_read_skips_block_comments():
    text = "/* a comment\nspanning lines */ amb_space 3\npolytope 1\n4 5\n"
    assert read_polytope(text).vertices == ((4, 5),)


def test_read_errors_carry_line_numbers():
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("vertices 2 2\n1 2\n")
    assert "line 2" in str(info.value)
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("vertices 1 2\n1 2 3\n")
    assert "line 2" in str(info.value) and "expected 2" in str(info.value)
    with pytest.raises(PolytopeFormatError):
        read_polytope("vertices 1 2\n1 x\n")
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("vertices 1 2\n1 2\n3 4\n")
    assert "trailing" in str(info.value)


def test_read_errors_count_the_lines_inside_comments():
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("vertices 2 2\n/* a comment\nspanning lines */ 0 0\n1 x\n")
    assert info.value.line == 4 and "'x'" in str(info.value)
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("vertices 1 1\n/* closed */ 3\n/* never\nclosed\n")
    assert info.value.line == 3 and "unterminated" in str(info.value)


def test_read_rejects_unsupported_keywords_with_guidance():
    for keyword in ("inequalities", "polynomial", "WeightedEhrhartSeries", "Integral"):
        with pytest.raises(PolytopeFormatError) as info:
            read_polytope(f"amb_space 3\n{keyword} 4\n1 0 0\n")
        assert "unsupported" in str(info.value)
    with pytest.raises(PolytopeFormatError) as info:
        read_polytope("inequalities 4\n1 0 0\n")
    assert "unsupported" in str(info.value)


def test_read_misc_failures():
    with pytest.raises(PolytopeFormatError):
        read_polytope("")
    with pytest.raises(PolytopeFormatError):
        read_polytope("simplex 2\n1 2\n")
    with pytest.raises(PolytopeFormatError):
        read_polytope("amb_space 1\npolytope 1\n\n")
    with pytest.raises(PolytopeFormatError):
        read_polytope("amb_space 3\n")
    with pytest.raises(PolytopeFormatError):
        read_polytope("/* never closed\nvertices 1 1\n3\n")
    with pytest.raises(PolytopeFormatError):
        read_polytope("vertices 0 2\n")


def test_write_read_round_trip_random():
    rng = random.Random(5150)
    for case in range(50):
        s = rng.randint(1, 3)
        verts = random_vertices(rng, s, rng.randint(1, 5), -9, 9)
        P = LatticePolytope(verts)
        assert read_polytope(write_polytope(P)).vertices == P.vertices


# ---------------------------------------------------------------- subcommands

def out_lines(capsys):
    return capsys.readouterr().out.rstrip("\n").split("\n")


def test_points_command(capsys):
    code = run(["points", "--vertices", "0 0; 1 0; 0 1; 1 1", "--n", "1"])
    assert code == 0
    assert out_lines(capsys) == ["0 0", "0 1", "1 0", "1 1"]


def test_ehrhart_command_single_point(capsys):
    assert run(["ehrhart", "--vertices", "5 7"]) == 0
    assert out_lines(capsys) == ["polynomial: 1", "series: 1/(1-x)"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("vertices", ["5 7", "0 0 0; 1 1 1; 2 2 2", "0 0; 2 0; 0 1"])
def test_ehrhart_is_weighted_at_its_default_weight(vertices, fmt, capsys):
    outputs = []
    for command in ("ehrhart", "weighted"):
        assert run([command, "--vertices", vertices, "--format", fmt]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_ehrhart_takes_no_weight_check_or_max_n(capsys):
    for extra in (["--weight", "t1"], ["--check"], ["--max-n", "3"]):
        assert run(["ehrhart", "--vertices", "0 0", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unrecognized arguments: {' '.join(extra)}\n"


def test_weighted_command_text(capsys):
    code = run(["weighted", "--vertices", "0 0; 1 0; 0 1; 1 1", "--weight", "t1*t2"])
    assert code == 0
    assert out_lines(capsys) == [
        "polynomial: 1/4*n^4 + 1/2*n^3 + 1/4*n^2",
        "series: (x^3+4*x^2+x)/(1-x)^5",
    ]


def test_weighted_command_json(capsys):
    code = run([
        "weighted", "--vertices", "0 0; 1 0; 0 1; 1 1",
        "--weight", "t1*t2", "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["polynomial"]["coeffs"] == ["0", "0", "1/4", "1/2", "1/4"]
    assert data["series"]["numerator_coeffs"] == ["0", "1", "4", "1"]
    assert data["series"]["denom_power"] == 5


def test_json_and_text_encode_identical_rationals(capsys):
    args = ["weighted", "--vertices", "1 0; 0 2; 2 3", "--weight", "2/5*t1 - 6/25*t2"]
    assert run(args) == 0
    text = out_lines(capsys)
    assert run(args + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    poly = UniPoly([F(c) for c in data["polynomial"]["coeffs"]])
    series = RationalGF(
        UniPoly([F(c) for c in data["series"]["numerator_coeffs"]]),
        data["series"]["denom_power"],
    )
    assert f"polynomial: {format_polynomial(poly)}" == text[0]
    assert f"series: {format_series(series)}" == text[1]


def test_lift_command_linear_route(capsys):
    code = run(["lift", "--vertices", "2 0; 0 2", "--weight", "t1+t2"])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[0] == "route: linear"
    assert lines[1] == "lift vertices:"
    assert lines[2:6] == ["  2 0 0", "  0 2 0", "  2 0 2", "  0 2 2"]
    assert lines[6] == "polynomial: 4*n^2 + 2*n"
    assert lines[7] == "series: (2*x^2+6*x)/(1-x)^3"


def test_lift_command_affine_route(capsys):
    code = run(["lift", "--vertices", "2 0; 0 2", "--weight", "t1+t2-1"])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[0] == "route: affine"
    assert lines[-2] == "polynomial: 4*n^2 - 1"
    assert lines[-1] == "series: (3*x^2+6*x-1)/(1-x)^3"


def test_lift_command_rejects_bad_weights(capsys):
    assert run(["lift", "--vertices", "2 0; 0 2", "--weight", "t1^2"]) == 1
    assert "degree at most one" in capsys.readouterr().err
    assert run(["lift", "--vertices", "2 0; 0 2", "--weight", "3"]) == 1
    assert "nonzero linear part" in capsys.readouterr().err


def test_lift_routes_report_the_same_errors(capsys):
    # the linear and affine routes build one lift, so one fault gets one text
    cases = [
        ("0 -1; 2 0; 0 2", "t1", "affine_lift_polytope requires vertices in the "
         "nonnegative orthant, got (0, -1)"),
        ("2 0; 0 2", "t1-t2", "coefficient of t2 must be a nonnegative integer, got -1"),
        ("2 0; 0 2", "1/2*t1+t2", "coefficient of t1 must be a nonnegative integer, got 1/2"),
    ]
    for vertices, linear, message in cases:
        for weight in (linear, linear + "+1"):
            assert run(["lift", "--vertices", vertices, "--weight", weight]) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: {message}\n"), weight


def test_integral_command(capsys):
    base = ["integral", "--vertices", "1 0; 0 1; 1 1", "--weight"]
    assert run(base + ["2*t1+3*t2"]) == 0
    assert out_lines(capsys) == ["integral: 5/3"]
    assert run(base + ["t1^2+t2^2"]) == 0
    assert out_lines(capsys) == ["integral: 1/2"]


def test_eulerian_command(capsys):
    assert run(["eulerian", "--n", "3"]) == 0
    assert out_lines(capsys) == ["d: 3", "row: 0 1 4 1"]
    assert run(["eulerian", "--n", "-2"]) == 1


def test_eulerian_command_caps_the_row(capsys):
    assert run(["eulerian", "--n", "513"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --n 513 is over the Eulerian row cap of 512\n"


def test_hilbert_command_text(capsys):
    code = run(["hilbert", "--vertices", "1 1; 3 0; 2 3", "--wrows", "1 2",
                "--max-n", "3"])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[0] == "H(n) values:"
    assert lines[1:5] == ["  H(0) = 1", "  H(1) = 4", "  H(2) = 9", "  H(3) = 14"]
    assert lines[5] == "fit: 5*n - 1 (n >= 1)"
    assert lines[6] == "series: (2*x^2+2*x+1)/(1-x)^2"


def test_hilbert_command_json(capsys):
    code = run(["hilbert", "--vertices", "1 1; 3 0; 2 3", "--wrows", "1 2",
                "--max-n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == [[0, 1], [1, 4], [2, 9]]
    assert data["onset"] == 1
    assert data["polynomial"]["coeffs"] == ["-1", "5"]
    assert data["series"]["numerator_coeffs"] == ["1", "2", "2"]
    assert data["series"]["denom_power"] == 2


def test_hilbert_command_fits_once(monkeypatch, capsys):
    fit = ehrwt.hilbert._fit
    value = ehrwt.hilbert.hilbert_value
    calls = []
    values = Counter()

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    def counted_value(P, W, n):
        values[n] += 1
        return value(P, W, n)

    monkeypatch.setattr(ehrwt.hilbert, "_fit", counted)
    monkeypatch.setattr(ehrwt.hilbert, "hilbert_value", counted_value)
    assert run(["hilbert", "--vertices", "1 1; 3 0; 2 3", "--wrows", "1 2"]) == 0
    assert len(calls) == 1
    # the table, the fit and the series share one sample table
    assert set(values) == set(range(9)) and set(values.values()) == {1}

    values.clear()
    P = LatticePolytope([(1, 1), (3, 0), (2, 3)])
    W = ehrwt.hilbert.LinearWeightTuple([(1, 2)])
    series = ehrwt.hilbert.hilbert_series(P, W)
    assert series == RationalGF(UniPoly([1, 2, 2]), 2)
    assert 0 in values and set(values.values()) == {1}


def test_hilbert_command_certifies_the_fit(capsys):
    # the difference test alone printed fit: 28*n - 18 (n >= 3) here
    assert run(["hilbert", "--vertices", "0 0 3; 1 1 0; 1 3 2; 3 0 2; 0 0 2",
                "--wrows", "9 3 1"]) == 0
    lines = out_lines(capsys)
    assert lines[10:] == ["fit: 27*n - 10 (n >= 8)",
                          "series: (-x^9-x^4+3*x^3+16*x^2+9*x+1)/(1-x)^2"]


def test_hilbert_command_rejects_negative_table(capsys):
    assert run(["hilbert", "--vertices", "0 0; 1 0", "--wrows", "1 0",
                "--max-n", "-1"]) == 1


def test_max_n_over_the_cap_is_an_input_error(capsys):
    triangle = ["--vertices", "0 0; 1 0; 0 1"]
    for command in (["hilbert", "--wrows", "1 0; 0 1"], ["check", "--weight", "t1"],
                    ["weighted", "--weight", "t1", "--check"]):
        assert run(command + triangle + ["--max-n", "65"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --max-n 65 is over the dilation cap of 64\n"
    assert run(["hilbert", "--wrows", "1 0; 0 1", *triangle, "--max-n", "64"]) == 0
    lines = out_lines(capsys)
    assert lines[65] == "  H(64) = 2145"
    assert lines[66] == "fit: 1/2*n^2 + 3/2*n + 1 (n >= 0)"


def test_max_n_below_its_floor_is_an_input_error(capsys):
    # the checks probe n = 1..--max-n, the hilbert table starts at n = 0
    triangle = ["--vertices", "0 0; 1 0; 0 1"]
    cases = [(["check", "--weight", "t1"], "0", 1),
             (["weighted", "--weight", "t1", "--check"], "-5", 1),
             (["weighted", "--weight", "t1"], "-5", 1),
             (["hilbert", "--wrows", "1 0; 0 1"], "-1", 0)]
    for command, value, low in cases:
        assert run(command + triangle + ["--max-n", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --max-n must be at least {low}, got {value}\n"


def test_check_command(capsys):
    code = run(["check", "--vertices", "0 0; 1 0; 0 1; 1 1"])
    assert code == 0
    lines = out_lines(capsys)
    assert lines[0] == "reciprocity sign: 1"
    assert "  n=1: interior_sum=0 signed_value=0 ok" in lines
    assert "reciprocity holds: yes" in lines
    assert "negative roots: -1" in lines
    assert "  root -1: value=0 ok" in lines
    assert "vanishing holds: yes" in lines
    assert lines[-1] == "all checks passed: yes"


def test_weighted_with_check_flag(capsys):
    code = run(["weighted", "--vertices", "0 0; 1 0; 0 1; 1 1",
                "--weight", "t1*t2", "--check", "--max-n", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "polynomial: 1/4*n^4 + 1/2*n^3 + 1/4*n^2" in text
    assert "all checks passed: yes" in text
    assert text.count("n=") == 2


@pytest.mark.parametrize("command, top", [
    (["check"], ["reciprocity", "vanishing", "ok"]),
    (["weighted", "--check"], ["polynomial", "series", "reciprocity", "vanishing", "ok"]),
])
def test_check_json_key_order(command, top, capsys):
    argv = [*command, "--vertices", "0 0; 1 0; 0 1; 1 1", "--weight", "t1*t2", "--format", "json"]
    assert run(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == top
    assert list(data["reciprocity"]) == ["sign", "entries", "all_equal"]
    assert list(data["vanishing"]) == ["roots", "entries", "all_vanish"]
    assert list(data["reciprocity"]["entries"][1].items()) == [
        ("n", 2), ("interior_sum", "1"), ("signed_value", "1"), ("equal", True)]
    assert [list(e.items()) for e in data["vanishing"]["entries"]] == [
        [("root", -1), ("value", "0"), ("vanishes", True)]]


def test_walks_and_runs_leave_no_cyclic_garbage(capsys):
    from ehrwt import interior_lattice_points, lattice_points, parse_weight
    from ehrwt import weighted_ehrhart_polynomial
    from ehrwt.cli import _build_parser

    # building the parser leaves argparse's help formatters as garbage, once per process
    _build_parser()
    gc.collect()
    gc.disable()
    try:
        P = LatticePolytope([(0, 0, 1), (3, 0, 1), (0, 2, 1), (2, 2, 1)])
        lattice_points(P, 3)
        interior_lattice_points(P, 3)
        weighted_ehrhart_polynomial(P, parse_weight("t1*t2 + 1/2", 3))
        square = ["--vertices", "0 0; 2 0; 0 2; 2 2", "--weight", "t1"]
        assert run(["weighted", *square, "--check"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        # the reused parser keeps no --check from the call before
        assert run(["weighted", *square]) == 0
        text = capsys.readouterr().out
        assert "polynomial:" in text and "checks" not in text and "n=" not in text
        assert run(["weighted", *square, "--check", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_file_input(tmp_path, capsys):
    path = tmp_path / "seg.in"
    path.write_text("amb_space 3\npolytope 2\n2 0\n0 2\n")
    assert run(["ehrhart", "--file", str(path)]) == 0
    assert out_lines(capsys) == ["polynomial: 2*n + 1", "series: (x+1)/(1-x)^2"]


def test_file_input_failures(tmp_path, capsys):
    assert run(["ehrhart", "--file", str(tmp_path / "nope.in")]) == 1
    bad = tmp_path / "ineq.in"
    bad.write_text("amb_space 3\ninequalities 4\n1 0 0\n1 1 1\n-1 0 -1\n0 -1 -1\n")
    assert run(["ehrhart", "--file", str(bad)]) == 1
    assert "unsupported" in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["points", "--vertices", "0 0"]) == 1                # missing --n
    assert run(["points", "--n", "1"]) == 1                        # missing source
    assert run(["points", "--vertices", "0 0", "--file", "x", "--n", "1"]) == 1
    assert run(["points", "--vertices", "0 0", "--n", "lots"]) == 1
    assert run(["weighted", "--vertices", "0 0", "--format", "yaml"]) == 1
    capsys.readouterr()


def test_input_errors_exit_one(capsys):
    assert run(["points", "--vertices", "0 0; a b", "--n", "1"]) == 1
    assert run(["points", "--vertices", " ; ", "--n", "1"]) == 1
    assert run(["points", "--vertices", "0 0", "--n", "-3"]) == 1
    assert run(["weighted", "--vertices", "0 0", "--weight", "t9"]) == 1
    capsys.readouterr()


def test_inputs_are_refused_polytope_then_weight_then_options(capsys):
    cases = [
        (["weighted", "--vertices", "0 x; 1 0", "--weight", "t9", "--check", "--max-n", "0"],
         "inline vertex row '0 x' must contain whitespace-separated integers"),
        (["check", "--vertices", "0 0; 1 0", "--weight", "t9", "--max-n", "0"],
         "variable t9 out of range (expected t1..t2) (position 0)"),
        (["check", "--vertices", "0 0; 1 0", "--weight", "t1", "--max-n", "0"],
         "--max-n must be at least 1, got 0"),
        (["hilbert", "--vertices", "0 0; 1 0", "--wrows", "1 x", "--max-n", "-1"],
         "weight-tuple row '1 x' must contain whitespace-separated integers"),
    ]
    for argv, message in cases:
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


# an integer token is an optional sign and ASCII digits, where int() alone
# reads 1_0 as 10 and the Arabic-Indic digit three as 3
THREE, ONE = "\u0663", "\u0661"


@pytest.mark.parametrize("argv, message", [
    (["points", "--vertices", "1_0 0; 0 1", "--n", "1"],
     "inline vertex row '1_0 0' must contain whitespace-separated integers"),
    (["points", "--vertices", f"0 {THREE}", "--n", "1"],
     f"inline vertex row '0 {THREE}' must contain whitespace-separated integers"),
    (["hilbert", "--vertices", "0 0; 1 0", "--wrows", "1 1_0"],
     "weight-tuple row '1 1_0' must contain whitespace-separated integers"),
    (["points", "--vertices", "0 0; 0 1", "--n", "1_0"], "argument --n: invalid _int value: '1_0'"),
    (["points", "--vertices", "0 0", "--n", THREE], f"argument --n: invalid _int value: '{THREE}'"),
    (["eulerian", "--n", "1_0"], "argument --n: invalid _int value: '1_0'"),
    (["check", "--vertices", "0 0; 1 0", "--max-n", "1_0"],
     "argument --max-n: invalid _int value: '1_0'"),
    (["hilbert", "--vertices", "0 0; 1 0", "--wrows", "1 1", "--max-n", THREE],
     f"argument --max-n: invalid _int value: '{THREE}'"),
    (["weighted", "--vertices", "0 0; 1 0", "--weight", f"t{ONE}"],
     "unexpected character 't' (position 0)"),
    (["weighted", "--vertices", "0 0; 1 0", "--weight", f"t1 + {THREE}"],
     f"unexpected character '{THREE}' (position 5)"),
    (["weighted", "--vertices", "0 0; 1 0", "--weight", "1_0"],
     "unexpected character '_' (position 1)"),
])
def test_integer_tokens_are_ascii_digits(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("vertices 2 2\n1_0 0\n0 1\n", "line 2: '1_0' is not an integer"),
    (f"vertices 2 2\n0 0\n{THREE} 1\n", f"line 3: '{THREE}' is not an integer"),
    ("vertices 1_0 2\n0 0\n", "line 1: '1_0' is not an integer"),
    (f"amb_space {THREE}\npolytope 1\n0 0\n", f"line 1: '{THREE}' is not an integer"),
    ("amb_space 3\npolytope 1_0\n0 0\n", "line 2: '1_0' is not an integer"),
])
def test_file_integer_tokens_are_ascii_digits(text, message, tmp_path, capsys):
    path = tmp_path / "polytope.in"
    path.write_text(text, encoding="utf-8")
    assert run(["points", "--file", str(path), "--n", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_integer_tokens_take_a_sign(tmp_path, capsys):
    path = tmp_path / "point.in"
    path.write_text("vertices +1 2\n-1 +1\n", encoding="utf-8")
    assert run(["points", "--file", str(path), "--n", "+2"]) == 0
    assert run(["points", "--vertices", "+1 -1", "--n", "2"]) == 0
    assert out_lines(capsys) == ["-2 2", "2 -2"]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["weighted", "--help"]) == 0
    capsys.readouterr()


def test_enumeration_cap_reports_input_error(monkeypatch, capsys):
    monkeypatch.setenv("EHRWT_MAX_POINTS", "5")
    code = run(["points", "--vertices", "0 0; 9 0; 0 9; 9 9", "--n", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # the sums stream, so the cap can stop them partway; the message names the dilation
    for argv, dilation in [
        (["weighted", "--vertices", "0 0; 9 0; 0 9; 9 9", "--weight", "t1"], "n=1"),
        (["check", "--vertices", "0 0; 3 0; 0 3", "--weight", "t1*t2"], "n=3"),
        (["check", "--vertices", "0 0; 3 0; 0 3", "--weight", "t1", "--format", "json"], "n=3"),
    ]:
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lattice-point enumeration of the closed dilation " + dilation)
        assert "EHRWT_MAX_POINTS=5" in err
    # the cap follows the CLI's integer-token rule
    for raw in ["1_0", "\u0663", " 5"]:
        monkeypatch.setenv("EHRWT_MAX_POINTS", raw)
        assert run(["points", "--vertices", "0 0; 9 0; 0 9; 9 9", "--n", "1"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: EHRWT_MAX_POINTS must be an integer, got {raw!r}\n")


def test_facet_row_cap_reports_input_error(monkeypatch, capsys):
    # the 4-cube's double description peaks at 10 rows
    monkeypatch.setattr(ehrwt.geometry, "HULL_ROWS", 9)
    cube = "; ".join(" ".join(str(i >> k & 1) for k in range(4)) for i in range(16))
    for argv in (["points", "--vertices", cube, "--n", "1"],
                 ["weighted", "--vertices", cube, "--weight", "t1"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: facet computation of 16 points in dimension 4 reached 10 "
                       "double-description rows after 13 points, over the cap of 9\n")


def test_internal_inconsistency_exits_two(monkeypatch, capsys):
    import ehrwt.weighted as wmod

    def sabotaged(P, w):
        raise ConsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(wmod, "weighted_ehrhart_polynomial", sabotaged)
    code = run(["weighted", "--vertices", "0 0; 1 0", "--weight", "t1"])
    assert code == 2
    assert "internal error:" in capsys.readouterr().err


def cli_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ehrwt.cli", *argv], capture_output=True, text=True
    )


def test_closed_pipe_exits_quietly():
    # the output outgrows the pipe's buffer, so the write after the reader closes fails
    argv = ["points", "--vertices", "0 0; 1 0; 0 1; 1 1", "--n", "300"]
    with subprocess.Popen([sys.executable, "-m", "ehrwt.cli", *argv], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first == "0 0\n"
    assert proc.returncode == 1
    assert err == ""


def test_checks_warn_about_a_negative_weight_once():
    # reciprocity and vanishing share one spot check of w >= 0 on 3P
    for command in (["check"], ["weighted", "--check"]):
        proc = cli_subprocess(*command, "--vertices", "0 0; 2 0; 0 2", "--weight", "t1-t2")
        assert proc.returncode == 0
        assert proc.stderr.count("weight is negative") == 1, proc.stderr


def test_warning_is_one_plain_line_on_stderr():
    argv = ("weighted", "--vertices", "0 0; 1 0; 0 1", "--weight", "t1-t2", "--check")
    proc = cli_subprocess(*argv)
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: weight is negative at (0, 1); the result assumes w >= 0 on the polytope\n"
    )


def test_deeply_nested_weight_is_an_input_error():
    weight = "(" * 3000 + "t1" + ")" * 3000
    proc = cli_subprocess("weighted", "--vertices", "0 0; 1 0", "--weight", weight)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: expression nests too deeply (position ")
    assert "Traceback" not in proc.stderr


def test_weight_over_the_degree_cap_is_an_input_error():
    proc = cli_subprocess("weighted", "--vertices", "0 0", "--weight", "t1^40*t2^40")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: total degree 80 exceeds the cap 64 (position 5)\n"


@pytest.mark.parametrize("vertices, weight, message", [
    # the polynomial 10^4400 * n^2 is built, but its text has over 4,300 digits
    (str(10**2200), "t1^2", "error: Exceeds the limit (4300"),
    # 99^4096 is refused by the parser before it is built
    ("0 0", "(99^64)^64", "error: coefficient size 27200 bits exceeds the cap 4096 bits"),
], ids=["digit-limit", "constant-power"])
def test_unprintable_result_is_an_input_error(vertices, weight, message):
    proc = cli_subprocess("weighted", "--vertices", vertices, "--weight", weight)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr


def test_long_product_of_constants_is_an_input_error():
    # every factor passes the power bound, but the product's size bound is
    # checked at the first '*', before an 8 KB weight builds a huge constant
    weight = "*".join(["(99^64)^9"] * 800)
    proc = cli_subprocess("weighted", "--vertices", "0 0; 1 0; 0 1", "--weight", weight)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: coefficient size 7638 bits exceeds the cap 4096 bits "
                           "(position 9)\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    # both are slow to import, and inspect pulls in ast, dis and tokenize;
    # the package also loads no top-level module outside the standard library
    # (__main__ is the -c program itself)
    code = ("import ehrwt, ehrwt.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys())); "
            "print(sorted({m.partition('.')[0] for m in sys.modules} "
            "- sys.stdlib_module_names - {'ehrwt', '__main__'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_lift_far_from_the_origin_matches_interpolation():
    # the printed lift of a triangle translated by about 10^30 has heights
    # near 10^30, but the route counts the lift of its translate to the
    # origin, so the command's own cross-check against interpolation passes
    shift = (10**30, 0, 3 * 10**30 + 7)
    points = [(1, 2, 2), (2, 0, 2), (2, 2, 0), (0, 3, 3)]
    vertices = "; ".join(" ".join(str(x + y) for x, y in zip(p, shift)) for p in points)
    proc = cli_subprocess("lift", "--vertices", vertices, "--weight", "t1")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["route: linear", "lift vertices:"]
    assert lines[6] == f"  {10**30 + 1} 2 {3 * 10**30 + 9} {10**30 + 1}"
    weighted = cli_subprocess("weighted", "--vertices", vertices, "--weight", "t1")
    assert weighted.returncode == 0 and lines[-2:] == weighted.stdout.splitlines()


def test_module_entry_point():
    proc = cli_subprocess("eulerian", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["d: 4", "row: 0 1 11 11 1"]


# ---------------------------------------------------------------- writer

def test_write_output_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_output({"polynomial": UniPoly([1])}, "xml")


# keys and strings with characters that JSON escapes: a quote, a backslash,
# a newline and a non-ASCII letter
_json_text = st.text(alphabet='ab"\\\n\u00e9', max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_text
    | st.fractions(max_denominator=9)
    | st.lists(st.fractions(max_denominator=9), max_size=3).map(UniPoly)
    | st.builds(RationalGF, st.lists(st.integers(-3, 3), max_size=3).map(UniPoly),
                st.integers(0, 3)),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200)
@given(st.dictionaries(_json_text, _json_values, max_size=4))
def test_json_output_is_the_stdlib_indented_text(result):
    assert write_output(result, "json") == json.dumps(jsonable(result), indent=2)


def test_write_output_zero_polynomial():
    assert write_output({"polynomial": UniPoly([])}, "text") == "polynomial: 0"
    data = json.loads(write_output({"polynomial": UniPoly([])}, "json"))
    assert data["polynomial"]["coeffs"] == []
