"""Command-line front end.

One subcommand per operation family, three output formats.  Machine
contract: every numeric value in JSON output is a decimal string (volumes
and exact rationals exceed double precision), reports are byte-stable for
fixed inputs, and the exit status is 0 on success, 1 when a value requested
through ``--expect`` does not match, and 2 on usage or parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Callable, Sequence

from . import bounds
from .core import (
    DEFAULT_ENUM_CAP,
    BallParams,
    _decimal,
    ball_volume,
    iter_ball_coords,
)
from .errors import InvalidParameterError, LmlabError
from .lattice import (
    Lattice,
    lattice_density,
    verify_lattice_packing,
    verify_lattice_tiling,
)
from .metric import (
    DEFAULT_CELL_CAP,
    DEFAULT_PAIR_CAP,
    channel_distance,
    difference_set_equivalence,
)
from .qp import (
    continuous_oracle_search,
    form_envelope,
    form_max_closed,
    form_max_oracle_binary,
    form_value,
)
from .search import (
    DEFAULT_INDEX_CAP,
    estimate_density,
    search_perfect_lattices,
    verify_window_packing,
)

class Report:
    """Uniform handler output: JSON payload, text lines, optional CSV table."""

    def __init__(
        self,
        payload: object,
        text: list[str],
        actual: str | None = None,
        table: tuple[list[str], list[list[str]]] | None = None,
    ):
        self.payload = payload
        self.text = text
        self.actual = actual
        self.table = table


def _frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _vec_str(coords) -> str:
    return ",".join(str(c) for c in coords)


def _coeff_str(coefficient: Fraction) -> str:
    hundredths = int(coefficient * 100)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"{flag} expects a rational like '1/15', got {text!r}") from exc


def _parse_vector(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _parse_vectors(text: str, flag: str) -> list[tuple[int, ...]]:
    text = text.strip()
    if not text:
        return []
    return [_parse_vector(part, flag) for part in text.split(";")]


def _parse_range(text: str, flag: str) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return range(int(lo), int(hi) + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError as exc:
        raise InvalidParameterError(f"{flag} expects 'A' or 'A:B', got {text!r}") from exc


def _ball_params(args: argparse.Namespace) -> BallParams:
    if getattr(args, "kplus", None) is not None or getattr(args, "kminus", None) is not None:
        if args.s is not None:
            raise InvalidParameterError("give either --s or --kplus/--kminus, not both")
        if args.kplus is None:
            raise InvalidParameterError("--kminus requires --kplus")
        return BallParams(n=args.n, e=args.e, kplus=args.kplus, kminus=args.kminus or 0)
    if args.s is None:
        raise InvalidParameterError("missing magnitude: give --s (or --kplus/--kminus)")
    return BallParams.symmetric(args.n, args.e, args.s)


# ---------------------------------------------------------------------------
# handlers

def _cmd_ball(args: argparse.Namespace) -> Report:
    volume = _decimal(ball_volume(_ball_params(args)))
    return Report({"volume": volume}, [volume])


def _cmd_enumerate(args: argparse.Namespace) -> Report:
    params = _ball_params(args)
    vectors = [_vec_str(v) for v in iter_ball_coords(params, args.enum_cap)]
    return Report({"count": str(len(vectors)), "vectors": vectors}, vectors)


def _cmd_dist(args: argparse.Namespace) -> Report:
    x = _parse_vector(args.x, "--x")
    y = _parse_vector(args.y, "--y")
    d = channel_distance(x, y, args.s)
    return Report({"distance": str(d)}, [str(d)])


def _cmd_verify_lattice(args: argparse.Namespace) -> Report:
    params = _ball_params(args)
    lat = Lattice.from_text(args.gen)
    verify = verify_lattice_tiling if args.mode == "tiling" else verify_lattice_packing
    result = verify(lat, params, args.enum_cap)
    text = [result.verdict, f"volume={result.volume} index={result.index}"]
    if result.witness is not None:
        a, b = result.witness
        text.append(f"witness=({_vec_str(a.coords)}),({_vec_str(b.coords)})")
    return Report(result.to_json_dict(), text, actual=result.verdict)


def _cmd_verify_window(args: argparse.Namespace) -> Report:
    params = _ball_params(args)
    translates = _parse_vectors(args.translates, "--translates")
    ok, witness = verify_window_packing(translates, params, args.window, args.cell_cap)
    actual = "disjoint" if ok else "overlap"
    text = [actual]
    if witness is not None:
        text.append(f"witness={_vec_str(witness.coords)}")
    payload = {"disjoint": ok, "witness": None if witness is None else _vec_str(witness.coords)}
    return Report(payload, text, actual=actual)


def _cmd_density(args: argparse.Namespace) -> Report:
    params = _ball_params(args)
    if args.gen is not None:
        subject = Lattice.from_text(args.gen)
        if args.window is None:
            value = lattice_density(subject, params)
            mode = "exact"
        else:
            value = estimate_density(subject, params, args.window, args.enum_cap)
            mode = "window"
    else:
        if args.translates is None:
            raise InvalidParameterError("density needs --gen or --translates")
        if args.window is None:
            raise InvalidParameterError("translate-set density needs --window")
        translates = _parse_vectors(args.translates, "--translates")
        value = estimate_density(translates, params, args.window, args.enum_cap)
        mode = "window"
    return Report({"density": _frac_str(value), "mode": mode}, [_frac_str(value)])


def _cmd_search(args: argparse.Namespace) -> Report:
    params = _ball_params(args)
    found = search_perfect_lattices(params, args.index_cap, args.enum_cap)
    texts = [lat.to_text() for lat in found]
    # JSON form is the bare array of lattice text strings.
    return Report(texts, texts)


def _classify_text(report: bounds.ClassificationReport) -> list[str]:
    lines = [
        f"verdict: {report.verdict}",
        f"lattice_excluded: {'true' if report.lattice_excluded else 'false'}",
    ]
    if report.witness is not None:
        lines.append(f"witness: {report.witness}")
    lines.append("criteria:")
    for c in report.criteria:
        lines.append(f"  {c.name} [{c.scope}] {c.status}: {c.detail}")
    return lines


def _cmd_classify(args: argparse.Namespace) -> Report:
    report = bounds.classify(args.n, args.e, args.s, strict=args.strict)
    return Report(report.to_json_dict(), _classify_text(report), actual=report.verdict)


def _cmd_classify_range(args: argparse.Namespace) -> Report:
    reports = bounds.classify_grid(
        _parse_range(args.n, "--n"),
        _parse_range(args.e, "--e"),
        _parse_range(args.s, "--s"),
        strict=args.strict,
    )
    header = ["n", "e", "s", "verdict", "lattice_excluded", "criteria"]
    rows = []
    for r in reports:
        summary = "|".join(f"{c.name}={c.status}" for c in r.criteria)
        rows.append(
            [str(r.n), str(r.e), str(r.s), r.verdict,
             "true" if r.lattice_excluded else "false", summary]
        )
    payload = {"reports": [r.to_json_dict() for r in reports]}
    text = [",".join(row[:5]) for row in rows]
    return Report(payload, text, table=(header, rows))


def _cmd_density_bound(args: argparse.Namespace) -> Report:
    if args.regime is not None:
        if args.a is None:
            raise InvalidParameterError("asymptotic density bound needs --a")
        value = bounds.density_bound_asymptotic(
            args.regime, _parse_fraction(args.a, "--a"), args.s
        )
        return Report(
            {"regime": args.regime, "value": _frac_str(value)}, [_frac_str(value)]
        )
    if args.n is None or args.e is None:
        raise InvalidParameterError("finite density bound needs --n and --e (or --regime)")
    bound = bounds.packing_density_bound(args.n, args.e, args.s)
    if not bound.applicable:
        return Report(
            {"applicable": False, "value": None, "vacuous": False}, ["not-applicable"]
        )
    text = _frac_str(bound.value) + (" (vacuous)" if bound.vacuous else "")
    payload = {"applicable": True, "value": _frac_str(bound.value), "vacuous": bound.vacuous}
    return Report(payload, [text])


def _cmd_qp_check(args: argparse.Namespace) -> Report:
    s, big_k, a = args.s, args.K, args.a
    payload: dict = {"s": str(s), "K": str(big_k), "a": str(a)}
    text: list[str] = []
    checks: list[bool] = []

    oracle_value, oracle_dist = continuous_oracle_search(s, big_k, a, args.resolution)
    payload["oracle"] = f"{oracle_value:.9f}"
    text.append(f"oracle={payload['oracle']}")

    if s in (1, 2, 3):
        closed_value, closed_dist = form_max_closed(s, big_k, a)
        payload["closed"] = _frac_str(closed_value)
        payload["closed_argmax"] = _vec_str(_frac_str(c) for c in closed_dist.counts)
        text.insert(0, f"closed={payload['closed']} at {payload['closed_argmax']}")
        checks.append(form_value(closed_dist) == closed_value)
        checks.append(oracle_value <= float(closed_value) + 1e-6)
        if closed_value > 0:
            checks.append(oracle_value >= float(closed_value) * (1 - 1e-3))
        else:
            checks.append(oracle_value == 0.0)
    else:
        payload["closed"] = None
        payload["closed_argmax"] = None

    if a <= 2 * s and a <= big_k:
        binary_value = form_max_oracle_binary(s, big_k, a)
        envelope = form_envelope(a, big_k, s)
        payload["binary"] = str(binary_value)
        payload["envelope"] = _frac_str(envelope)
        text.append(f"binary={binary_value} envelope={payload['envelope']}")
        checks.append(Fraction(binary_value) <= envelope)
    else:
        payload["binary"] = None
        payload["envelope"] = None

    ok = all(checks)
    payload["ok"] = ok
    text.append("ok" if ok else "fail")
    return Report(payload, text, actual="ok" if ok else "fail")


def _cmd_table(args: argparse.Namespace) -> Report:
    eps = _parse_fraction(args.epsilon, "--epsilon")
    row = bounds.table_row(args.s, eps)
    coeff = _coeff_str(row.coefficient)
    payload = {
        "s": str(args.s),
        "epsilon": _frac_str(eps),
        "min_n": str(row.min_n),
        "coefficient": coeff,
    }
    table = (
        ["s", "epsilon", "min_n", "coefficient"],
        [[str(args.s), _frac_str(eps), str(row.min_n), coeff]],
    )
    return Report(payload, [f"{row.min_n}, {coeff}"], table=table)


def _cmd_equivalence_check(args: argparse.Namespace) -> Report:
    equal, witness = difference_set_equivalence(
        args.n, args.t, args.s, args.pair_cap
    )
    actual = "equal" if equal else "unequal"
    text = [actual]
    if witness is not None:
        text.append(f"witness={_vec_str(witness.coords)}")
    payload = {"equal": equal, "witness": None if witness is None else _vec_str(witness.coords)}
    return Report(payload, text, actual=actual)


_HANDLERS: dict[str, Callable[[argparse.Namespace], Report]] = {
    "ball": _cmd_ball,
    "enumerate": _cmd_enumerate,
    "dist": _cmd_dist,
    "verify-lattice": _cmd_verify_lattice,
    "verify-window": _cmd_verify_window,
    "density": _cmd_density,
    "search": _cmd_search,
    "classify": _cmd_classify,
    "classify-range": _cmd_classify_range,
    "density-bound": _cmd_density_bound,
    "qp-check": _cmd_qp_check,
    "table": _cmd_table,
    "equivalence-check": _cmd_equivalence_check,
}


def _add_common(parser: argparse.ArgumentParser, default_format: str = "text") -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default=default_format)


def _add_ball_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--e", type=int, required=True)
    parser.add_argument("--s", type=int, default=None)
    parser.add_argument("--kplus", type=int, default=None)
    parser.add_argument("--kminus", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmlab",
        description="Exact toolkit for perfect codes under symmetric limited-magnitude errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="exact ball volume")
    _add_ball_flags(p)
    _add_common(p)

    p = sub.add_parser("enumerate", help="list every ball vector in lexicographic order")
    _add_ball_flags(p)
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    _add_common(p)

    p = sub.add_parser("dist", help="channel distance between two vectors")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_common(p)

    p = sub.add_parser("verify-lattice", help="certify a lattice packing or tiling")
    _add_ball_flags(p)
    p.add_argument("--gen", required=True, help="generator rows, e.g. '1,2;2,-1'")
    p.add_argument("--mode", choices=("packing", "tiling"), default="tiling")
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p.add_argument("--expect", default=None, help="exit 1 unless the verdict matches")
    _add_common(p)

    p = sub.add_parser("verify-window", help="brute-force disjointness inside a window")
    _add_ball_flags(p)
    p.add_argument("--translates", required=True, help="vectors split by ';'")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--cell-cap", type=int, default=DEFAULT_CELL_CAP)
    p.add_argument("--expect", choices=("disjoint", "overlap"), default=None)
    _add_common(p)

    p = sub.add_parser("density", help="exact lattice density or window estimate")
    _add_ball_flags(p)
    p.add_argument("--gen", default=None)
    p.add_argument("--translates", default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    _add_common(p)

    p = sub.add_parser("search", help="exhaustive perfect-lattice search")
    _add_ball_flags(p)
    p.add_argument("--index-cap", type=int, default=DEFAULT_INDEX_CAP)
    p.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    _add_common(p)

    p = sub.add_parser("classify", help="evaluate every exclusion criterion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--expect", choices=(bounds.EXISTS, bounds.EXCLUDED, bounds.OPEN), default=None)
    _add_common(p)

    p = sub.add_parser("classify-range", help="classification sweep over a grid")
    p.add_argument("--n", required=True, help="'A' or 'A:B'")
    p.add_argument("--e", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--strict", action="store_true")
    _add_common(p, default_format="csv")

    p = sub.add_parser("density-bound", help="finite or asymptotic density bound")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--e", type=int, default=None)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--regime", choices=("sqrt", "linear"), default=None)
    p.add_argument("--a", default=None, help="growth constant, rational like '1/2'")
    _add_common(p)

    p = sub.add_parser("qp-check", help="closed form vs oracles for one (s, K, a)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--expect", choices=("ok", "fail"), default=None)
    _add_common(p)

    p = sub.add_parser("table", help="explicit asymptotic-band row for an epsilon")
    p.add_argument("--s", type=int, required=True, choices=(1, 2))
    p.add_argument("--epsilon", required=True, help="rational like '1/15'")
    _add_common(p)

    p = sub.add_parser("equivalence-check", help="difference-set oracle for the distance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--pair-cap", type=int, default=DEFAULT_PAIR_CAP)
    p.add_argument("--expect", choices=("equal", "unequal"), default=None)
    _add_common(p)

    return parser


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report.payload, sort_keys=True, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        if report.table is None:
            raise InvalidParameterError("this subcommand has no CSV form")
        header, rows = report.table
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buffer.getvalue())
    else:
        for line in report.text:
            sys.stdout.write(line + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for cap_name in ("enum_cap", "cell_cap", "pair_cap", "index_cap"):
            cap = getattr(args, cap_name, None)
            if cap is not None and cap < 1:
                raise InvalidParameterError(f"--{cap_name.replace('_', '-')} must be positive")
        report = _HANDLERS[args.command](args)
        _emit(report, args.format)
    except LmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    expect = getattr(args, "expect", None)
    if expect is not None and report.actual != expect:
        print(f"expected {expect}, got {report.actual}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
