"""Exception hierarchy shared by all casp2smt modules."""


class Casp2SmtError(Exception):
    """Base class for all errors raised by this package."""


class OracleCapExceeded(Casp2SmtError):
    """Exhaustive enumeration was asked to cover too many guessed atoms."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} atoms exceed the oracle cap of {cap}")
        self.count = count
        self.cap = cap


class HeadsIntersectInput(Casp2SmtError):
    """A rule head occurs in the input vocabulary."""


class UnboundVariable(Casp2SmtError):
    """A constraint mentions a variable the valuation does not assign."""

    def __init__(self, name: str):
        super().__init__(f"no value for constraint variable '{name}'")
        self.name = name


class RankVarForIrregular(Casp2SmtError):
    """Rank variables exist for regular atoms only."""


class SolverSpawnFailure(Casp2SmtError):
    """The external SMT solver process could not be started."""


class SolverProtocolError(Casp2SmtError):
    """The external SMT solver produced output we cannot interpret."""


class ParseError(Casp2SmtError):
    """Syntax error in program or constraint text, with position info."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.column = column


class IrregularHead(ParseError):
    """A constraint atom may not be the head of a rule."""


class NotTight(Casp2SmtError):
    """Tight-only mode was requested for a program with positive cycles."""


class InconsistentConfig(Casp2SmtError):
    """The solve configuration combines options that contradict each other."""
