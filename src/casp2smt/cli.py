"""Command-line entry point.

exit codes:
  0   satisfiable
  1   unsatisfiable
  2   unknown: a solver call answered 'unknown' or timed out; the answers
      found before it are printed, but the list may be incomplete
  10  the program file does not parse
  11  a usage error, bad options, or --mode tight on a non-tight program
  12  the solver cannot be started; its output cannot be read, such as
      'sat' with no model or with an (error ...) form; or the in-process
      check rejects its model, such as one with a non-integer value over
      QF_LIA, a value outside --var-box or an answer set it already gave
  13  any other error, such as a program file that cannot be read or is
      not UTF-8, an --emit-smtlib file that cannot be written, more
      guessed atoms than the oracle enumerates, or a standard output that
      closes before the answers or the help are written, as under | head -1

solver: --solver starts one process per enumeration and writes it the script,
then one blocking assertion per further answer set, each followed by (check-sat)
and (get-model); it must answer each command as it arrives, as z3 -in does. A
command with a {file} placeholder runs once per check on a temp file instead.
Each check may take 60 s; one that runs out is UNKNOWN.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    Casp2SmtError,
    InconsistentConfig,
    NotTight,
    ParseError,
    SolverProtocolError,
    SolverSpawnFailure,
)
from .lincon import LexiconKind
from .parser import parse_program
from .pipeline import DEFAULT_ORACLE_BOX, Mode, SolveConfig, Status, render_report, solve

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_PARSE_ERROR = 10
EXIT_CONFIG_ERROR = 11
EXIT_SOLVER_ERROR = 12
EXIT_OTHER_ERROR = 13


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casp2smt",
        description=(
            "Solve ground constraint answer set programs by compiling their\n"
            "input completion (plus a ranking formula for non-tight programs)\n"
            "to SMT-LIB 2."
        ),
        epilog=(__doc__ or "").partition("\n\n")[2],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("file", help="program file (UTF-8)")
    parser.add_argument(
        "--logic",
        choices=["lia", "lra"],
        default="lia",
        help="constraint domain: integers (lia) or reals (lra)",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default="auto",
        help="auto picks the encoding from tightness; tight rejects cyclic "
        "programs; ranking always adds the ranking formula",
    )
    parser.add_argument(
        "--solver",
        metavar="CMD",
        help="external SMT solver command, one process per enumeration, reading "
        "SMT-LIB 2 on stdin and answering each command as it arrives, as z3 -in "
        "does; or with a {file} placeholder, one process per check on a temp file "
        "(see below); falls back to $CASP2SMT_SOLVER",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="solve in-process by exhaustive semantics checks over the guessed "
        "atoms, the constraint atoms and the atoms under not (no SMT solver); "
        f"without --var-box it searches integer variables only in {list(DEFAULT_ORACLE_BOX)}, "
        "where the solver leaves them unbounded",
    )
    parser.add_argument(
        "--enumerate",
        type=int,
        default=1,
        metavar="N",
        help="number of answers to report, 0 for all (default 1)",
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="report a constraint-variable valuation with each answer set: "
        "with --enumerate 1 the witness the solver or the oracle found, "
        "otherwise every valuation of the --var-box for each answer set, "
        "in lexicographic order",
    )
    parser.add_argument(
        "--var-box",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        help="bounds for constraint variables, applied by the oracle and the "
        "solver over the integers and the reals (required when enumerating "
        "extended answers); without it the oracle searches the integers only "
        f"in {list(DEFAULT_ORACLE_BOX)}",
    )
    parser.add_argument(
        "--emit-smtlib",
        metavar="PATH",
        help="write the generated SMT-LIB 2 script to PATH",
    )
    parser.add_argument(
        "--format",
        choices=["text", "jsonl"],
        default="text",
        help="output format",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(
        logic=LexiconKind.REAL_LINEAR
        if args.logic == "lra"
        else LexiconKind.INTEGER_LINEAR,
        mode=Mode(args.mode),
        enumerate=args.enumerate,
        extended=args.extended,
        var_box=tuple(args.var_box) if args.var_box else None,
        oracle_only=args.oracle,
        solver_cmd=args.solver,
        emit_path=args.emit_smtlib,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OTHER_ERROR
    return code


def _run(argv: Optional[Sequence[str]]) -> int:
    """Parse the arguments, solve and print the report; returns the exit
    code. Whatever it writes to standard output, the help included, may
    raise :class:`BrokenPipeError`, which :func:`main` handles."""
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 (here UNKNOWN) on a usage error
        return EXIT_CONFIG_ERROR if exc.code == 2 else 0
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"casp2smt: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_OTHER_ERROR
    try:
        program = parse_program(text)
        report = solve(program, config_from_args(args))
    except ParseError as exc:
        print(f"casp2smt: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (InconsistentConfig, NotTight) as exc:
        print(f"casp2smt: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SolverSpawnFailure, SolverProtocolError) as exc:
        print(f"casp2smt: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except (Casp2SmtError, OSError) as exc:
        print(f"casp2smt: {exc}", file=sys.stderr)
        return EXIT_OTHER_ERROR
    output = render_report(report, args.format)
    if output:
        print(output)
    return {
        Status.SAT: EXIT_SAT,
        Status.UNSAT: EXIT_UNSAT,
        Status.UNKNOWN: EXIT_UNKNOWN,
    }[report.status]


if __name__ == "__main__":
    sys.exit(main())
