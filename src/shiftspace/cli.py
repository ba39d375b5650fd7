"""Command-line interface.

Subcommands: count, enumerate, sequence, entropy, verify, design, table.
Every command assembles its whole output before printing, emits a single
text, csv, or json document, and maps failures to exit codes: 1 for
parameter, parse, validation, and resource errors, 2 for numeric
non-convergence, 3 for disagreement between counting methods.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import core, design, enumeration, recurrence, spectral, transfer
from .errors import (
    ConvergenceError,
    EmptyShiftSpaceError,
    OutOfAlphabetError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)

_USER_ERRORS = (
    ParameterError,
    ParseError,
    OutOfAlphabetError,
    ValidationError,
    ResourceLimitError,
    EmptyShiftSpaceError,
    OSError,
)

_POLY_TOL = 1e-12
_MATRIX_TOL = 1e-9


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Reals at 15 significant digits."""
    return format(float(value), ".15g")


def _round15(value: float) -> float:
    return float(_fmt(value))


def _tmk_argument(text: str) -> core.TmkParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected M,K with two integers, got {text!r}")
    try:
        m, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M,K with two integers, got {text!r}") from None
    try:
        return core.TmkParams(m=m, k=k)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_argument(text: str) -> tuple[int, int]:
    parts = text.split("..") if ".." in text else text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO..HI with two integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI with two integers, got {text!r}") from None


def _add_source_arguments(parser: argparse.ArgumentParser, *, three_symbol: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--tmk",
        type=_tmk_argument,
        metavar="M,K",
        help="built-in spaced family: nonzero symbols at least M apart over K symbols",
    )
    group.add_argument("--spec", metavar="FILE", help="spec file with k=<int> and one block per line")
    if three_symbol:
        group.add_argument(
            "--three-symbol",
            action="store_true",
            help="three symbols with 11 and 22 forbidden, counted by its sum recurrence",
        )


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )


def _resolve_spec(args) -> core.ShiftSpaceSpec:
    if getattr(args, "tmk", None) is not None:
        return core.tmk_spec(args.tmk)
    return core.load_spec_file(args.spec)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(document: dict) -> str:
    return json.dumps(document) + "\n"


def _export_automaton(args, spec: core.ShiftSpaceSpec) -> None:
    if getattr(args, "export_automaton", None):
        automaton = transfer.build_automaton(spec)
        Path(args.export_automaton).write_text(transfer.edge_list_text(automaton))


def _cmd_count(args) -> int:
    spec = _resolve_spec(args)
    value = enumeration.count_blocks(spec, args.n)
    if args.format == "text":
        out = f"{value}\n"
    elif args.format == "csv":
        out = _csv_text(("n", "count"), [(args.n, value)])
    else:
        out = _json_text({"command": "count", "n": args.n, "count": str(value)})
    sys.stdout.write(out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.order == "constructive":
        if args.tmk is None:
            raise ParameterError("--order constructive is defined only for --tmk parameters")
        blocks = enumeration.enumerate_blocks_constructive(args.tmk, args.n)
        alphabet_size = args.tmk.k
    else:
        spec = _resolve_spec(args)
        blocks = enumeration.enumerate_blocks(spec, args.n)
        alphabet_size = spec.alphabet_size
    texts = [core.block_text(b, alphabet_size) for b in blocks]
    if args.format == "text":
        out = "".join(f"{t}\n" for t in texts)
    elif args.format == "csv":
        out = _csv_text(("block",), [(t,) for t in texts])
    else:
        out = _json_text(
            {"command": "enumerate", "n": args.n, "order": args.order, "blocks": texts}
        )
    sys.stdout.write(out)
    return 0


def _cmd_sequence(args) -> int:
    if args.three_symbol:
        counts = list(recurrence.sum_recurrence_three_symbol(args.n_max))
    else:
        counts = list(enumeration.count_sequence(_resolve_spec(args), args.n_max))
    if args.format == "text":
        out = ",".join(str(c) for c in counts) + "\n"
    elif args.format == "csv":
        out = _csv_text(("n", "count"), [(n, c) for n, c in enumerate(counts, start=1)])
    else:
        out = _json_text(
            {
                "command": "sequence",
                "n_min": 1,
                "n_max": args.n_max,
                "counts": [str(c) for c in counts],
            }
        )
    sys.stdout.write(out)
    return 0


def _report_dict(report: spectral.EntropyReport) -> dict:
    return {
        "lambda0": _round15(report.lambda0),
        "entropy": _round15(report.entropy),
        "log_base": report.log_base,
        "method": report.method,
        "residual": _round15(report.residual),
    }


def _report_line(report: spectral.EntropyReport) -> str:
    return (
        f"lambda0={_fmt(report.lambda0)} entropy={_fmt(report.entropy)} "
        f"log_base={report.log_base} method={report.method} residual={_fmt(report.residual)}"
    )


def _cmd_entropy(args) -> int:
    method = args.method
    if method == "auto":
        method = "poly" if args.tmk is not None else "matrix"
    if method in ("poly", "both") and args.tmk is None:
        raise ParameterError(f"--method {method} needs --tmk parameters")
    # the polynomial method never reads the forbidden set, which for --tmk
    # has (k-1)^2 * m blocks
    spec = None
    if method in ("matrix", "both") or args.export_automaton:
        spec = _resolve_spec(args)
    reports = []
    if method in ("poly", "both"):
        tol = args.tol if args.tol is not None else _POLY_TOL
        reports.append(spectral.entropy_tmk(args.tmk.m, args.tmk.k, log_base=args.base, tol=tol))
    if method in ("matrix", "both"):
        tol = args.tol if args.tol is not None else _MATRIX_TOL
        reports.append(transfer.entropy_numeric(spec, tol=tol, log_base=args.base))
    _export_automaton(args, spec)
    if args.format == "text":
        out = "".join(f"{_report_line(r)}\n" for r in reports)
    elif args.format == "csv":
        out = _csv_text(
            ("method", "lambda0", "entropy", "log_base", "residual"),
            [
                (r.method, _fmt(r.lambda0), _fmt(r.entropy), r.log_base, _fmt(r.residual))
                for r in reports
            ],
        )
    else:
        out = _json_text({"command": "entropy", "reports": [_report_dict(r) for r in reports]})
    sys.stdout.write(out)
    return 0


def _verify_recurrence_for(args, counts) -> tuple[Optional[recurrence.LinearRecurrence], str]:
    if args.tmk is not None:
        return recurrence.tmk_recurrence(args.tmk), "built-in"
    max_order = min(8, (len(counts.counts) - 2) // 2)
    if max_order < 1:
        return None, "none"
    inferred = recurrence.infer_recurrence(counts, max_order)
    return inferred, "inferred" if inferred is not None else "none"


def _cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    counts = enumeration.count_sequence(spec, args.n_max)
    automaton = transfer.build_automaton(spec)
    _export_automaton(args, spec)
    rec, rec_source = _verify_recurrence_for(args, counts)
    rows = []
    agree = True
    for n in range(1, args.n_max + 1):
        enumerated = counts.value_at(n)
        matrix = transfer.count_via_matrix(automaton, n)
        rec_value = recurrence.evaluate(rec, n) if rec is not None else None
        row_ok = enumerated == matrix and (rec_value is None or rec_value == enumerated)
        agree = agree and row_ok
        rows.append((n, enumerated, matrix, rec_value, row_ok))
    rec_doc = None
    if rec is not None:
        rec_doc = {
            "order": rec.order,
            "coefficients": list(rec.coefficients),
            "initial_terms": [str(t) for t in rec.initial_terms],
            "offset": rec.offset,
            "source": rec_source,
        }
    if args.format == "text":
        lines = ["n enumeration matrix recurrence"]
        for n, enumerated, matrix, rec_value, row_ok in rows:
            rec_text = "-" if rec_value is None else str(rec_value)
            marker = "" if row_ok else " MISMATCH"
            lines.append(f"{n} {enumerated} {matrix} {rec_text}{marker}")
        if rec is None:
            lines.append("no recurrence available; compared enumeration and matrix counts only")
        else:
            lines.append(f"recurrence source: {rec_source} (order {rec.order})")
        lines.append(
            f"counts agree for n = 1..{args.n_max}"
            if agree
            else f"counts disagree first at n = {next(n for n, *_rest, ok in rows if not ok)}"
        )
        out = "".join(f"{line}\n" for line in lines)
    elif args.format == "csv":
        out = _csv_text(
            ("n", "enumeration", "matrix", "recurrence", "agree"),
            [
                (n, enumerated, matrix, "" if rec_value is None else rec_value, str(row_ok).lower())
                for n, enumerated, matrix, rec_value, row_ok in rows
            ],
        )
    else:
        out = _json_text(
            {
                "command": "verify",
                "n_max": args.n_max,
                "agree": agree,
                "recurrence": rec_doc,
                "rows": [
                    {
                        "n": n,
                        "enumeration": str(enumerated),
                        "matrix": str(matrix),
                        "recurrence": None if rec_value is None else str(rec_value),
                        "agree": row_ok,
                    }
                    for n, enumerated, matrix, rec_value, row_ok in rows
                ],
            }
        )
    sys.stdout.write(out)
    return 0 if agree else 3


def _cmd_design(args) -> int:
    if args.target_ratio is not None:
        if args.m is None:
            raise ParameterError("--target-ratio needs --m")
        found = design.k_for_target_ratio(args.target_ratio, args.m)
        if args.format == "text":
            if found is None:
                out = "no admissible k\n"
            else:
                root = spectral.dominant_root(args.m, found)
                out = f"m={args.m} k={found} lambda0={_fmt(root)} exact\n"
        elif args.format == "csv":
            out = _csv_text(("m", "k"), [(args.m, "" if found is None else found)])
        else:
            out = _json_text(
                {
                    "command": "design",
                    "target_ratio": _round15(args.target_ratio),
                    "m": args.m,
                    "k": found,
                }
            )
        sys.stdout.write(out)
        return 0
    results = design.design_for_entropy(
        args.target_entropy,
        log_base=args.base,
        m_range=args.m_range,
        k_range=args.k_range,
        tol=args.tol,
    )
    if args.format == "text":
        if not results:
            out = "no parameters within tolerance\n"
        else:
            lines = []
            for r in results:
                tail = "exact" if r.exact else f"deviation={_fmt(r.deviation)}"
                lines.append(
                    f"m={r.m} k={r.k} lambda0={_fmt(r.lambda0)} entropy={_fmt(r.entropy)} {tail}"
                )
            out = "".join(f"{line}\n" for line in lines)
    elif args.format == "csv":
        out = _csv_text(
            ("m", "k", "lambda0", "entropy", "deviation", "exact"),
            [
                (r.m, r.k, _fmt(r.lambda0), _fmt(r.entropy), _fmt(r.deviation), str(r.exact).lower())
                for r in results
            ],
        )
    else:
        out = _json_text(
            {
                "command": "design",
                "target_entropy": _round15(args.target_entropy),
                "log_base": args.base,
                "tol": _round15(args.tol),
                "results": [
                    {
                        "m": r.m,
                        "k": r.k,
                        "lambda0": _round15(r.lambda0),
                        "entropy": _round15(r.entropy),
                        "deviation": _round15(r.deviation),
                        "exact": r.exact,
                    }
                    for r in results
                ],
            }
        )
    sys.stdout.write(out)
    return 0


def _cmd_table(args) -> int:
    rows = design.entropy_table(m_range=args.m_range, k_range=args.k_range, log_base=args.base)
    if args.format == "text":
        lines = ["m k lambda0 entropy"]
        lines.extend(f"{r.m} {r.k} {_fmt(r.lambda0)} {_fmt(r.entropy)}" for r in rows)
        out = "".join(f"{line}\n" for line in lines)
    elif args.format == "csv":
        out = _csv_text(
            ("m", "k", "lambda0", "entropy"),
            [(r.m, r.k, _fmt(r.lambda0), _fmt(r.entropy)) for r in rows],
        )
    else:
        out = _json_text(
            {
                "command": "table",
                "log_base": args.base,
                "rows": [
                    {
                        "m": r.m,
                        "k": r.k,
                        "lambda0": _round15(r.lambda0),
                        "entropy": _round15(r.entropy),
                    }
                    for r in rows
                ],
            }
        )
    sys.stdout.write(out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="shiftspace",
        description="Count, enumerate, and analyze shift spaces given by forbidden blocks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_count = subparsers.add_parser("count", help="number of allowed blocks of one length")
    _add_source_arguments(p_count)
    p_count.add_argument("--n", "-n", type=int, required=True, help="block length")
    _add_format_argument(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_enum = subparsers.add_parser("enumerate", help="list the allowed blocks of one length")
    _add_source_arguments(p_enum)
    p_enum.add_argument("--n", "-n", type=int, required=True, help="block length")
    p_enum.add_argument(
        "--order",
        choices=("lex", "constructive"),
        default="lex",
        help="lexicographic, or the recurrence build order (--tmk only)",
    )
    _add_format_argument(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_seq = subparsers.add_parser("sequence", help="counts for every length up to a bound")
    _add_source_arguments(p_seq, three_symbol=True)
    p_seq.add_argument("--n-max", type=int, required=True, help="largest length")
    _add_format_argument(p_seq)
    p_seq.set_defaults(handler=_cmd_sequence)

    p_ent = subparsers.add_parser("entropy", help="growth rate and entropy")
    _add_source_arguments(p_ent)
    p_ent.add_argument(
        "--method",
        choices=("poly", "matrix", "both", "auto"),
        default="auto",
        help="characteristic polynomial root, transfer-matrix eigenvalue, or both",
    )
    p_ent.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")
    p_ent.add_argument("--tol", type=float, default=None, help="numeric tolerance")
    p_ent.add_argument(
        "--export-automaton", metavar="FILE", help="also write the automaton edge list"
    )
    _add_format_argument(p_ent)
    p_ent.set_defaults(handler=_cmd_entropy)

    p_verify = subparsers.add_parser(
        "verify", help="check counting methods against each other"
    )
    _add_source_arguments(p_verify)
    p_verify.add_argument("--n-max", type=int, default=12, help="largest length to compare")
    p_verify.add_argument(
        "--export-automaton", metavar="FILE", help="also write the automaton edge list"
    )
    _add_format_argument(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_design = subparsers.add_parser("design", help="parameters matching an entropy or ratio target")
    target = p_design.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-entropy", type=float, help="entropy to match")
    target.add_argument("--target-ratio", type=float, help="growth rate to match exactly")
    scope = p_design.add_mutually_exclusive_group()
    scope.add_argument("--m", type=int, default=None, help="gap for --target-ratio")
    scope.add_argument(
        "--m-range", type=_range_argument, default=(1, 3), metavar="LO..HI", help="gaps to scan"
    )
    p_design.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")
    p_design.add_argument(
        "--k-range",
        type=_range_argument,
        default=(2, 30),
        metavar="LO..HI",
        help="alphabet sizes to scan",
    )
    p_design.add_argument("--tol", type=float, default=1e-9, help="acceptable entropy deviation")
    _add_format_argument(p_design)
    p_design.set_defaults(handler=_cmd_design)

    p_table = subparsers.add_parser("table", help="growth rate and entropy over a parameter grid")
    p_table.add_argument(
        "--m-range", type=_range_argument, default=(1, 3), metavar="LO..HI", help="gaps to scan"
    )
    p_table.add_argument(
        "--k-range",
        type=_range_argument,
        default=(2, 30),
        metavar="LO..HI",
        help="alphabet sizes to scan",
    )
    p_table.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")
    _add_format_argument(p_table)
    p_table.set_defaults(handler=_cmd_table)

    return parser


def _progress_text(exc: ConvergenceError) -> str:
    """The partial progress a ConvergenceError carries, as a parenthesized suffix."""
    fields = [
        f"{name}={_fmt(value) if isinstance(value, float) else value}"
        for name, value in (
            ("last_estimate", exc.last_estimate),
            ("residual", exc.residual),
            ("iterations", exc.iterations),
        )
        if value is not None
    ]
    return f" ({' '.join(fields)})" if fields else ""


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run one command, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"shiftspace: numeric error: {exc}{_progress_text(exc)}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"shiftspace: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
