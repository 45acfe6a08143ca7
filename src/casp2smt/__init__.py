"""casp2smt: solve ground constraint answer set programs through SMT.

The package compiles a ground program's input completion (plus, for
non-tight programs, a level-ranking formula over fresh integer variables)
into SMT-LIB 2, drives an external solver, and decodes models back into
answer sets. A self-contained exhaustive oracle computes the same semantics
in-process for verification and small instances.
"""

from .errors import Casp2SmtError
from .lincon import LexiconKind, LinearConstraint, LinExpr, Rel
from .parser import parse_program, render_program
from .pipeline import (
    Encoding,
    Mode,
    SolveConfig,
    SolveReport,
    render_report,
    solve,
    verify,
)
from .program import (
    AtomId,
    Program,
    Rule,
    atom,
    input_answer_sets,
    is_input_answer_set,
    is_tight,
)
from .smtlib import Status

__version__ = "0.1.0"

__all__ = [
    "AtomId",
    "Casp2SmtError",
    "Encoding",
    "LexiconKind",
    "LinExpr",
    "LinearConstraint",
    "Mode",
    "Program",
    "Rel",
    "Rule",
    "SolveConfig",
    "SolveReport",
    "Status",
    "atom",
    "input_answer_sets",
    "is_input_answer_set",
    "is_tight",
    "parse_program",
    "render_program",
    "render_report",
    "solve",
    "verify",
]
