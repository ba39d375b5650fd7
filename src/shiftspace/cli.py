"""Command-line interface.

Subcommands: count, enumerate, sequence, entropy, verify, design, table.
Every command computes its whole result before printing and hands it to
one writer, which emits a single text, csv, or json document.  Failures
map to exit codes: 1 for every ShiftSpaceError but ConvergenceError, and
OSError, 2 for numeric non-convergence (ConvergenceError), 3 for
disagreement between counting methods.

Modules load on first use: of the package, this module imports only core
and errors, and each command's handler imports the modules it runs.  The parser adds all
seven subcommands with their names and help, but run() adds options only
to the command its argv names, so a run builds one command's options.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections.abc import Sequence
from itertools import chain, islice, repeat
from pathlib import Path

from . import core
from .errors import ConvergenceError, ParameterError, ResourceLimitError, ShiftSpaceError


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Reals at 15 significant digits."""
    return format(float(value), ".15g")


def _tmk_argument(text: str) -> core.TmkParams:
    # a wrong part count fails the unpack with ValueError, as a non-integer part fails int()
    try:
        m, k = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M,K with two integers, got {text!r}") from None
    try:
        return core.TmkParams(m=m, k=k)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range_argument(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split("..") if ".." in text else text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI with two integers, got {text!r}") from None
    return lo, hi


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


def _add_export_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--export-automaton", metavar="FILE", help="also write the automaton edge list")


def _add_range_argument(container, flag: str, default: tuple[int, int], help: str) -> None:
    """A LO..HI option on a parser or on one of its groups."""
    container.add_argument(flag, type=_range_argument, default=default, metavar="LO..HI", help=help)


def _resolve_spec(args) -> core.ShiftSpaceSpec:
    if getattr(args, "tmk", None) is not None:
        from . import transfer

        # a family too wide for the automaton's state cap is refused before
        # its forbidden set is built
        size = (args.tmk.k - 1) ** 2 * args.tmk.m
        if size > transfer.MAX_STATES:
            raise ResourceLimitError(
                f"the spaced family's (k-1)^2 * m = {size} forbidden blocks exceed "
                f"the cap of {transfer.MAX_STATES}"
            )
        return core.tmk_spec(args.tmk)
    return core.load_spec_file(args.spec)


def _cell(value):
    """A value as text and csv print it.

    Reals at 15 significant digits and booleans in lower case; csv itself
    writes None as an empty cell.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return value


def _json_value(value):
    """The document with every real rounded to 15 significant digits."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    return value


def _write(args, lines, header, rows, document: dict, code: int = 0) -> int:
    """Print a command's result as one document in args.format; return the exit code.

    text prints the lines, csv the header and the rows, json the document
    under the command's name.  Big counts arrive as decimal strings, so they
    stay exact in every format.  csv and json are imported only by their own
    branch, which keeps them out of a text run's start-up.
    """
    if args.format == "text":
        out = "".join(f"{line}\n" for line in lines)
    elif args.format == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)
        out = buffer.getvalue()
    else:
        import json

        out = json.dumps({"command": args.command, **_json_value(document)}) + "\n"
    sys.stdout.write(out)
    return code


def _cmd_count(args) -> int:
    if args.tmk is None:
        from . import enumeration

        value = str(enumeration.count_blocks(core.load_spec_file(args.spec), args.n))
    else:
        # a(n) = 1 + n(k-1) up to n = m + 1, and past it the family's
        # recurrence answers in O(m^2 log n); neither builds the (k-1)^2 * m
        # forbidden blocks
        core._require_int("block length", args.n, 0)
        if args.n <= args.tmk.m + 1:
            count = 1 + args.n * (args.tmk.k - 1)
        else:
            from . import recurrence

            count = recurrence.evaluate(recurrence.tmk_recurrence(args.tmk), args.n)
        value = str(count)
    return _write(args, [value], ("n", "count"), [(args.n, value)], {"n": args.n, "count": value})


def _cmd_enumerate(args) -> int:
    from . import enumeration

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
    document = {"n": args.n, "order": args.order, "blocks": texts}
    return _write(args, texts, ("block",), [(t,) for t in texts], document)


def _cmd_sequence(args) -> int:
    from . import recurrence

    if args.three_symbol:
        counts = recurrence.sum_recurrence_three_symbol(args.n_max)
    elif args.tmk is not None:
        # the family's two taps, never its forbidden set
        core._require_n_max(args.n_max)
        counts = islice(recurrence._tmk_terms(args.tmk), 1, args.n_max + 1)
    else:
        from . import enumeration

        counts = enumeration.count_sequence(_resolve_spec(args), args.n_max)
    texts = [str(c) for c in counts]
    document = {"n_min": 1, "n_max": args.n_max, "counts": texts}
    return _write(args, [",".join(texts)], ("n", "count"), list(enumerate(texts, start=1)), document)


def _cmd_entropy(args) -> int:
    from . import spectral

    method = args.method
    if method == "auto":
        method = "poly" if args.tmk is not None else "matrix"
    if method in ("poly", "both") and args.tmk is None:
        raise ParameterError(f"--method {method} needs --tmk parameters")
    # the polynomial method never reads the forbidden set, which for --tmk
    # has (k-1)^2 * m blocks
    spec = _resolve_spec(args) if method in ("matrix", "both") or args.export_automaton else None
    # only the matrix method reads tol, but every method refuses a bad one
    spectral._require_tol(args.tol)
    reports = []
    if method in ("poly", "both"):
        reports.append(spectral.entropy_tmk(args.tmk.m, args.tmk.k, log_base=args.base))
    if spec is not None:
        from . import transfer

        # entropy_numeric's steps on one build, which the export reuses
        automaton = transfer.build_automaton(spec)
    if method in ("matrix", "both"):
        reports.append(transfer._automaton_entropy(automaton, args.tol, args.base))
    if args.export_automaton:
        Path(args.export_automaton).write_text(transfer.edge_list_text(automaton))
    return _write(
        args,
        [" ".join(f"{key}={_cell(value)}" for key, value in r.as_dict().items()) for r in reports],
        ("method", "lambda0", "entropy", "log_base", "residual"),
        [(r.method, r.lambda0, r.entropy, r.log_base, r.residual) for r in reports],
        {"reports": [r.as_dict() for r in reports]},
    )


def _verify_recurrence_for(args, counts) -> tuple[recurrence.LinearRecurrence | None, str]:
    from . import recurrence

    if args.tmk is not None:
        return recurrence.tmk_recurrence(args.tmk), "built-in"
    max_order = (len(counts.counts) - 2) // 2
    if max_order < 1:
        return None, "none"
    inferred = recurrence.infer_recurrence(counts, max_order)
    return inferred, "inferred" if inferred is not None else "none"


def _cmd_verify(args) -> int:
    from . import enumeration, recurrence, transfer

    spec = _resolve_spec(args)
    counts = enumeration.count_sequence(spec, args.n_max)
    automaton = transfer.build_automaton(spec)
    if args.export_automaton:
        Path(args.export_automaton).write_text(transfer.edge_list_text(automaton))
    rec, rec_source = _verify_recurrence_for(args, counts)
    # one walk per column; the matrix column is the count stream from n = 1
    matrix_column = islice(transfer._path_counts(automaton), 1, None)
    rec_column = repeat(None)
    if rec is not None:
        rec_column = chain(repeat(None, rec.offset - 1), recurrence._term_iter(rec))
    rows = []
    for n, enumerated, matrix, rec_value in zip(
        range(1, args.n_max + 1), counts, matrix_column, rec_column
    ):
        row_ok = enumerated == matrix and (rec_value is None or rec_value == enumerated)
        rec_text = None if rec_value is None else str(rec_value)
        rows.append((n, str(enumerated), str(matrix), rec_text, row_ok))
    agree = all(row[-1] for row in rows)
    header = ("n", "enumeration", "matrix", "recurrence", "agree")
    lines = [" ".join(header[:4])]
    for n, enumerated, matrix, rec_text, row_ok in rows:
        marker = "" if row_ok else " MISMATCH"
        lines.append(f"{n} {enumerated} {matrix} {'-' if rec_text is None else rec_text}{marker}")
    rec_doc = None
    if rec is None:
        lines.append("no recurrence available; compared enumeration and matrix counts only")
    else:
        lines.append(f"recurrence source: {rec_source} (order {rec.order})")
        rec_doc = {
            "order": rec.order,
            "coefficients": list(rec.coefficients),
            "initial_terms": [str(t) for t in rec.initial_terms],
            "offset": rec.offset,
            "source": rec_source,
        }
    lines.append(
        f"counts agree for n = 1..{args.n_max}"
        if agree
        else f"counts disagree first at n = {next(n for n, *_cells, ok in rows if not ok)}"
    )
    document = {
        "n_max": args.n_max,
        "agree": agree,
        "recurrence": rec_doc,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return _write(args, lines, header, rows, document, 0 if agree else 3)


def _cmd_design(args) -> int:
    from . import design, spectral

    if args.target_ratio is not None:
        if args.m is None:
            raise ParameterError("--target-ratio needs --m")
        found = design.k_for_target_ratio(args.target_ratio, args.m)
        if found is None:
            line = "no admissible k"
        else:
            line = f"m={args.m} k={found} lambda0={_fmt(spectral.dominant_root(args.m, found))} exact"
        document = {"target_ratio": args.target_ratio, "m": args.m, "k": found}
        return _write(args, [line], ("m", "k"), [(args.m, found)], document)
    results = design.design_for_entropy(
        args.target_entropy,
        log_base=args.base,
        m_range=args.m_range,
        k_range=args.k_range,
        tol=args.tol,
    )
    lines = [
        f"m={r.m} k={r.k} lambda0={_fmt(r.lambda0)} entropy={_fmt(r.entropy)} "
        + ("exact" if r.exact else f"deviation={_fmt(r.deviation)}")
        for r in results
    ]
    document = {
        "target_entropy": args.target_entropy,
        "log_base": args.base,
        "tol": args.tol,
        "results": [r.as_dict() for r in results],
    }
    return _write(
        args,
        lines or ["no parameters within tolerance"],
        ("m", "k", "lambda0", "entropy", "deviation", "exact"),
        [(r.m, r.k, r.lambda0, r.entropy, r.deviation, r.exact) for r in results],
        document,
    )


def _cmd_table(args) -> int:
    from . import design

    rows = design.entropy_table(m_range=args.m_range, k_range=args.k_range, log_base=args.base)
    lines = ["m k lambda0 entropy"]
    lines.extend(f"{r.m} {r.k} {_fmt(r.lambda0)} {_fmt(r.entropy)}" for r in rows)
    return _write(
        args,
        lines,
        ("m", "k", "lambda0", "entropy"),
        [(r.m, r.k, r.lambda0, r.entropy) for r in rows],
        {"log_base": args.base, "rows": [r.as_dict() for r in rows]},
    )


def _count_options(parser: argparse.ArgumentParser) -> None:
    _add_source_arguments(parser)
    parser.add_argument("--n", "-n", type=int, required=True, help="block length")


def _enumerate_options(parser: argparse.ArgumentParser) -> None:
    _add_source_arguments(parser)
    parser.add_argument("--n", "-n", type=int, required=True, help="block length")
    parser.add_argument(
        "--order",
        choices=("lex", "constructive"),
        default="lex",
        help="lexicographic, or the recurrence build order (--tmk only)",
    )


def _sequence_options(parser: argparse.ArgumentParser) -> None:
    _add_source_arguments(parser, three_symbol=True)
    parser.add_argument("--n-max", type=int, required=True, help="largest length")


def _entropy_options(parser: argparse.ArgumentParser) -> None:
    from .spectral import DEFAULT_TOL

    _add_source_arguments(parser)
    parser.add_argument(
        "--method",
        choices=("poly", "matrix", "both", "auto"),
        default="auto",
        help="characteristic polynomial root, transfer-matrix eigenvalue, or both",
    )
    parser.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    _add_export_argument(parser)


def _verify_options(parser: argparse.ArgumentParser) -> None:
    _add_source_arguments(parser)
    parser.add_argument("--n-max", type=int, default=12, help="largest length to compare")
    _add_export_argument(parser)


def _design_options(parser: argparse.ArgumentParser) -> None:
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-entropy", type=float, help="entropy to match")
    target.add_argument("--target-ratio", type=float, help="growth rate to match exactly")
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument("--m", type=int, default=None, help="gap for --target-ratio")
    _add_range_argument(scope, "--m-range", (1, 3), "gaps to scan")
    parser.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")
    _add_range_argument(parser, "--k-range", (2, 30), "alphabet sizes to scan")
    parser.add_argument("--tol", type=float, default=1e-9, help="acceptable entropy deviation")


def _table_options(parser: argparse.ArgumentParser) -> None:
    _add_range_argument(parser, "--m-range", (1, 3), "gaps to scan")
    _add_range_argument(parser, "--k-range", (2, 30), "alphabet sizes to scan")
    parser.add_argument("--base", choices=("e", "2", "10"), default="e", help="logarithm base")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with options on the named subcommand only, or on all seven for None.

    Every subcommand is added with its name and help either way, so the
    top-level help, usage lines and unknown-command errors do not depend on
    the name; a subcommand without options is one argparse never reaches
    for an argv that names another.
    """
    parser = _ArgumentParser(
        prog="shiftspace",
        description="Count, enumerate, and analyze shift spaces given by forbidden blocks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # each subcommand's help, the function that adds its options but
    # --format, and its handler, in the order the top-level help lists them;
    # read at each call, so a handler replaced on this module is dispatched
    commands = {
        "count": ("number of allowed blocks of one length", _count_options, _cmd_count),
        "enumerate": ("list the allowed blocks of one length", _enumerate_options, _cmd_enumerate),
        "sequence": ("counts for every length up to a bound", _sequence_options, _cmd_sequence),
        "entropy": ("growth rate and entropy", _entropy_options, _cmd_entropy),
        "verify": ("check counting methods against each other", _verify_options, _cmd_verify),
        "design": ("parameters matching an entropy or ratio target", _design_options, _cmd_design),
        "table": ("growth rate and entropy over a parameter grid", _table_options, _cmd_table),
    }
    for name, (help, add_options, handler) in commands.items():
        subparser = subparsers.add_parser(name, help=help)
        if command is None or command == name:
            add_options(subparser)
            subparser.add_argument(
                "--format", choices=("text", "csv", "json"), default="text", help="output format"
            )
            subparser.set_defaults(handler=handler)
    return parser


def _command_of(argv: Sequence[str]) -> str | None:
    """The argument argparse dispatches on, if it names a command; None when there is none.

    It is the first argument that does not start with "-": the top-level
    parser's only option, --help, takes no value, so every earlier argument
    is an option, and no command's name starts with "-".
    """
    return next((arg for arg in argv if not arg.startswith("-")), None)


def _progress_text(exc: ConvergenceError) -> str:
    """The partial progress a ConvergenceError carries, as a parenthesized suffix."""
    fields = [
        f"{name}={_cell(value)}"
        for name, value in (
            ("last_estimate", exc.last_estimate),
            ("residual", exc.residual),
            ("iterations", exc.iterations),
        )
        if value is not None
    ]
    return f" ({' '.join(fields)})" if fields else ""


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, run one command, and return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(_command_of(argv)).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # counts print in full however many digits they have; Python 3.11 caps
    # int-to-str conversion at 4300 digits by default
    set_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_max_str_digits is not None:
        previous = sys.get_int_max_str_digits()
        set_max_str_digits(0)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"shiftspace: numeric error: {exc}{_progress_text(exc)}", file=sys.stderr)
        return 2
    except (ShiftSpaceError, OSError) as exc:
        print(f"shiftspace: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if set_max_str_digits is not None:
            set_max_str_digits(previous)


def main() -> None:
    sys.exit(run())
