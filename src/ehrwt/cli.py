"""Command-line front end: vertex-list inputs, exact text or JSON output.

Two input formats are accepted: the native header ``vertices m s``
followed by m integer rows, and the ``amb_space``/``polytope`` subset
of the Normaliz vertex format (block comments included). Rationals are
printed as p/q strings in both output formats; nothing is ever
converted to floating point. Exit codes: 0 success, 1 usage or input
error, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from fractions import Fraction

from . import hilbert, weighted
from .errors import ConsistencyError, EhrwtError, PolytopeFormatError
from .geometry import LatticePolytope, lattice_points
from .polynomials import (
    RationalGF,
    UniPoly,
    _is_int_token,
    eulerian,
    format_polynomial,
    format_series,
    gf_of_polynomial,
    parse_weight,
)

__all__ = ["run", "main", "read_polytope", "write_polytope", "write_output"]


# largest row the eulerian subcommand computes; row 512 takes about a second,
# and the cost grows faster than cubically with the row
EULERIAN_ROW_CAP = 512

# largest --max-n that check, weighted --check and hilbert take: each of them
# walks every dilation up to it; 64 is the widest onset window the benchmark fits
MAX_N_CAP = 64


# ---------------------------------------------------------------- input


def _strip_block_comments(text: str) -> str:
    def blank(m):
        if not m.group(1):
            raise PolytopeFormatError(
                "unterminated block comment", text.count("\n", 0, m.start()) + 1
            )
        return "\n" * m.group().count("\n")

    # each comment keeps its newlines, so line numbers still count raw lines
    return re.sub(r"/\*.*?(\*/|\Z)", blank, text, flags=re.S)


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for idx, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if stripped:
            lines.append((idx, stripped))
    return lines


def _int(token: str, lineno: int = 0) -> int:
    """An integer token of the CLI; inline rows and flags reword the ValueError."""
    if not _is_int_token(token):
        raise PolytopeFormatError(f"{token!r} is not an integer", lineno)
    return int(token)


_NORMALIZ_GUIDANCE = {"inequalities", "polynomial", "WeightedEhrhartSeries", "Integral"}


def _reject_keyword(word: str, lineno: int) -> None:
    if word in _NORMALIZ_GUIDANCE:
        raise PolytopeFormatError(
            f"keyword {word!r} is recognized but unsupported; give the polytope as a "
            "vertex block and express weights with the weighted/integral/lift subcommands",
            lineno,
        )


def _read_rows(lines, m: int, s: int, header_line: int):
    if len(lines) < m:
        where = lines[-1][0] if lines else header_line
        raise PolytopeFormatError(f"expected {m} vertex rows, found {len(lines)}", where)
    extra = lines[m:]
    if extra:
        lineno, content = extra[0]
        _reject_keyword(content.split()[0], lineno)
        raise PolytopeFormatError(f"unexpected trailing content {content!r}", lineno)
    rows = []
    for lineno, content in lines[:m]:
        parts = content.split()
        if len(parts) != s:
            raise PolytopeFormatError(
                f"expected {s} integers per row, found {len(parts)}", lineno
            )
        rows.append(tuple(_int(p, lineno) for p in parts))
    return rows


def read_polytope(text: str) -> LatticePolytope:
    """Parse a polytope from native or Normaliz-subset text.

    Native: ``vertices m s`` then m rows of s integers. Normaliz
    subset: ``amb_space N`` then ``polytope m`` then m rows of N-1
    integers; other Normaliz keywords are rejected with guidance.
    """
    lines = _meaningful_lines(_strip_block_comments(text))
    if not lines:
        raise PolytopeFormatError("empty polytope description", 1)
    lineno, header = lines[0]
    fields = header.split()
    if fields[0] == "vertices":
        if len(fields) != 3:
            raise PolytopeFormatError("native header must be 'vertices m s'", lineno)
        m, s = (_int(f, lineno) for f in fields[1:])
        if m < 1 or s < 1:
            raise PolytopeFormatError("vertex and coordinate counts must be positive", lineno)
        return LatticePolytope(_read_rows(lines[1:], m, s, lineno))
    if fields[0] == "amb_space":
        if len(fields) != 2:
            raise PolytopeFormatError("expected 'amb_space N'", lineno)
        amb = _int(fields[1], lineno)
        if amb < 2:
            raise PolytopeFormatError(
                "amb_space must be at least 2 (vertex rows use N-1 coordinates)", lineno
            )
        if len(lines) < 2:
            raise PolytopeFormatError("expected 'polytope m' after amb_space", lineno)
        lineno2, header2 = lines[1]
        fields2 = header2.split()
        _reject_keyword(fields2[0], lineno2)
        if fields2[0] != "polytope" or len(fields2) != 2:
            raise PolytopeFormatError(
                f"unsupported block {header2!r}; expected 'polytope m'", lineno2
            )
        m = _int(fields2[1], lineno2)
        if m < 1:
            raise PolytopeFormatError("vertex count must be positive", lineno2)
        return LatticePolytope(_read_rows(lines[2:], m, amb - 1, lineno2))
    _reject_keyword(fields[0], lineno)
    raise PolytopeFormatError(
        f"unrecognized header {fields[0]!r}; expected 'vertices m s' or 'amb_space N'",
        lineno,
    )


def write_polytope(P: LatticePolytope) -> str:
    """Native-format text; read_polytope round-trips it exactly."""
    lines = [f"vertices {len(P.vertices)} {P.ambient_dim}"]
    lines += [" ".join(str(c) for c in v) for v in P.vertices]
    return "\n".join(lines) + "\n"


def _parse_rows(text: str, what: str) -> list[tuple[int, ...]]:
    """Integer rows separated by ';', e.g. '0 0; 1 0'; empty chunks are skipped."""
    rows = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            rows.append(tuple(_int(tok) for tok in chunk.split()))
        except ValueError:
            message = f"{what} row {chunk!r} must contain whitespace-separated integers"
            raise ValueError(message) from None
    return rows


def _load_polytope(args: argparse.Namespace) -> LatticePolytope:
    if args.vertices is not None:
        rows = _parse_rows(args.vertices, "inline vertex")
        if not rows:
            raise ValueError("no vertex rows given")
        return LatticePolytope(rows)
    with open(args.file, "r", encoding="utf-8") as fh:
        return read_polytope(fh.read())


# ---------------------------------------------------------------- handlers


def _max_n(args: argparse.Namespace, default: int, low: int) -> int:
    n = default if args.max_n is None else args.max_n
    if n < low:
        raise ValueError(f"--max-n must be at least {low}, got {n}")
    if n > MAX_N_CAP:
        raise ValueError(f"--max-n {n} is over the dilation cap of {MAX_N_CAP}")
    return n


def _check_reports(P: LatticePolytope, w, n_max: int) -> dict:
    rec = weighted.reciprocity_check(P, w, n_max=n_max)
    # the reciprocity check has already spot-checked w >= 0 on 3P
    van = weighted.check_negative_root_vanishing(P, w, spot_check=False)
    return {
        "reciprocity": {
            "sign": rec.sign,
            "entries": [{**e._asdict(), "equal": e.equal} for e in rec.entries],
            "all_equal": rec.all_equal,
        },
        "vanishing": {
            "roots": list(van.roots),
            "entries": [{**e._asdict(), "vanishes": e.vanishes} for e in van.entries],
            "all_vanish": van.all_vanish,
        },
        "ok": rec.all_equal and van.all_vanish,
    }


def _cmd_points(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    return {"points": [list(p) for p in lattice_points(P, args.n)]}


def _cmd_weighted(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    n_max = _max_n(args, 4, 1)
    poly = weighted.weighted_ehrhart_polynomial(P, w)
    result = {"polynomial": poly, "series": gf_of_polynomial(poly)}
    if args.check:
        result.update(_check_reports(P, w, n_max))
    return result


def _cmd_lift(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    try:
        row, offset = w.affine_parts()
    except ValueError:
        raise ValueError("lift needs a weight of total degree at most one") from None
    if all(c == 0 for c in row):
        raise ValueError("lift needs a weight with a nonzero linear part")
    lifted = weighted.affine_lift_polytope(P, row)
    via_lift = weighted.weighted_by_affine_lift(P, row, offset)
    direct = weighted.weighted_ehrhart_polynomial(P, w)
    if via_lift != direct:
        raise ConsistencyError("lift route and interpolation route disagree")
    return {
        "route": "linear" if offset == 0 else "affine",
        "lift_vertices": [list(v) for v in lifted.vertices],
        "polynomial": direct,
        "series": gf_of_polynomial(direct),
    }


def _cmd_integral(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    return {"integral": weighted.integral_leading(P, w)}


def _cmd_check(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    return _check_reports(P, w, _max_n(args, 4, 1))


def _cmd_hilbert(args: argparse.Namespace, P: LatticePolytope, w) -> dict:
    W = hilbert.LinearWeightTuple(_parse_rows(args.wrows, "weight-tuple"))
    table_max = _max_n(args, 8, 0)
    counts = {n: hilbert.hilbert_value(P, W, n) for n in range(table_max + 1)}
    values = [[n, h] for n, h in counts.items()]
    cap = max(hilbert.DEFAULT_MAX_ONSET, table_max)
    fit, onset, series = hilbert._fit(P, W, cap, counts)
    return {"values": values, "polynomial": fit, "onset": onset, "series": series}


def _cmd_eulerian(args: argparse.Namespace, P: None, w: None) -> dict:
    d = args.n
    if d < 0:
        raise ValueError("--n must give a nonnegative row index")
    if d > EULERIAN_ROW_CAP:
        raise ValueError(f"--n {d} is over the Eulerian row cap of {EULERIAN_ROW_CAP}")
    return {"d": d, "row": [eulerian(d, k) for k in range(d + 1)]}


_HANDLERS = {
    "points": _cmd_points,
    "ehrhart": _cmd_weighted,
    "weighted": _cmd_weighted,
    "lift": _cmd_lift,
    "integral": _cmd_integral,
    "check": _cmd_check,
    "hilbert": _cmd_hilbert,
    "eulerian": _cmd_eulerian,
}


# ---------------------------------------------------------------- output


def _json(value, indent: str = "") -> str:
    """The text of json.dumps(value, indent=2), rationals as p/q strings.

    Only keys and scalars pass through json.dumps: its C encoder leaves no
    reference cycles, where the pure-Python one that indent selects does."""
    if isinstance(value, UniPoly):
        value = {"coeffs": value.coeffs}
    elif isinstance(value, RationalGF):
        value = {"numerator_coeffs": value.numerator.coeffs, "denom_power": value.denom_power}
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
    else:
        return json.dumps(str(value) if isinstance(value, Fraction) else value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    body = ",\n".join(inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{indent}{brackets[1]}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _text_lines(result: dict) -> list[str]:
    lines = []
    if "points" in result:
        lines += [" ".join(str(c) for c in p) for p in result["points"]]
    if "d" in result:
        lines.append(f"d: {result['d']}")
    if "row" in result:
        lines.append("row: " + " ".join(str(v) for v in result["row"]))
    if "route" in result:
        lines.append(f"route: {result['route']}")
    if "lift_vertices" in result:
        lines.append("lift vertices:")
        lines += ["  " + " ".join(str(c) for c in v) for v in result["lift_vertices"]]
    if "values" in result:
        lines.append("H(n) values:")
        lines += [f"  H({n}) = {h}" for n, h in result["values"]]
    if "polynomial" in result and "onset" in result:
        lines.append(f"fit: {format_polynomial(result['polynomial'])} (n >= {result['onset']})")
    elif "polynomial" in result:
        lines.append(f"polynomial: {format_polynomial(result['polynomial'])}")
    if "integral" in result:
        lines.append(f"integral: {result['integral']}")
    if "series" in result:
        lines.append(f"series: {format_series(result['series'])}")
    if "reciprocity" in result:
        rec = result["reciprocity"]
        lines.append(f"reciprocity sign: {rec['sign']}")
        for e in rec["entries"]:
            verdict = "ok" if e["equal"] else "MISMATCH"
            lines.append(
                f"  n={e['n']}: interior_sum={e['interior_sum']} "
                f"signed_value={e['signed_value']} {verdict}"
            )
        lines.append(f"reciprocity holds: {_yes(rec['all_equal'])}")
    if "vanishing" in result:
        van = result["vanishing"]
        roots = " ".join(str(r) for r in van["roots"]) if van["roots"] else "none"
        lines.append(f"negative roots: {roots}")
        for e in van["entries"]:
            verdict = "ok" if e["vanishes"] else "NONZERO"
            lines.append(f"  root {e['root']}: value={e['value']} {verdict}")
        lines.append(f"vanishing holds: {_yes(van['all_vanish'])}")
    if "ok" in result:
        lines.append(f"all checks passed: {_yes(result['ok'])}")
    return lines


def write_output(result: dict, fmt: str) -> str:
    """Serialize a handler result as text or JSON (rationals as p/q strings)."""
    if fmt == "json":
        return _json(result)
    if fmt != "text":
        raise ValueError(f"unknown output format {fmt!r}")
    return "\n".join(_text_lines(result))


# ---------------------------------------------------------------- driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="ehrwt",
        description="Exact weighted lattice-point counts of polytope dilations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def new_command(name, help_text, polytope=True):
        p = sub.add_parser(name, help=help_text)
        if polytope:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--vertices", help="inline vertex rows, e.g. '0 0; 1 0; 0 1'")
            src.add_argument("--file", help="path to a native or Normaliz-subset file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt",
            help="output format (default text)",
        )
        return p

    def add_weight(p):
        p.add_argument("--weight", default="1", help="weight expression in t1..ts (default '1')")

    p = new_command("points", "lattice points of the n-th dilation")
    p.add_argument("--n", type=_int, required=True, help="dilation factor (>= 0)")

    # the weighted handler at weight 1, with neither --weight nor --check
    new_command("ehrhart", "counting polynomial and series (weight 1)").set_defaults(
        weight="1", check=False, max_n=None)

    p = new_command("weighted", "weighted counting polynomial and series")
    add_weight(p)
    p.add_argument("--check", action="store_true", help="also run reciprocity/vanishing checks")
    p.add_argument("--max-n", type=_int, dest="max_n", help="dilations probed by --check (default 4)")

    p = new_command("lift", "counting polynomial via the lift route, cross-checked")
    add_weight(p)

    p = new_command("integral", "normalized integral of the weight (leading coefficient)")
    add_weight(p)

    p = new_command("check", "reciprocity and negative-root vanishing reports")
    add_weight(p)
    p.add_argument("--max-n", type=_int, dest="max_n", help="dilations probed (default 4)")

    p = new_command("hilbert", "distinct-image counts: table, fitted polynomial, series")
    p.add_argument("--wrows", required=True, help="linear form rows, e.g. '1 2' or '1 0; 0 1'")
    p.add_argument("--max-n", type=_int, dest="max_n", help="largest n in the table (default 8)")

    p = new_command("eulerian", "one row of the Eulerian triangle", polytope=False)
    p.add_argument("--n", type=_int, required=True, help="row index d (>= 0)")

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        # library warnings reach stderr as plain lines, each distinct one once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                args = _build_parser().parse_args(argv)
                # the inputs are read in one order: polytope, weight, then the
                # handler's own arguments
                P = _load_polytope(args) if "file" in args else None
                w = parse_weight(args.weight, P.ambient_dim) if "weight" in args else None
                # built here, so an integer past Python's str digit limit is an input error
                text = write_output(_HANDLERS[args.command](args, P, w), args.fmt)
            finally:
                for message in dict.fromkeys(str(m.message) for m in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code
        return 0 if not exc.code else int(exc.code)
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (EhrwtError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; as the Python docs' SIGPIPE note
        # advises, point stdout at devnull so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
