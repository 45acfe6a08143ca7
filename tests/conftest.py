import importlib.util
import os
import sys
from pathlib import Path

import pytest

from casp2smt.smtlib import SmtScript, Status, run_solver

TOOLS = Path(__file__).parent / "tools"

ACP = """\
{switch}.
lightOn :- switch, not am.
:- not lightOn.
{am}.
"""

PI1 = ACP + """\
:- not am, |x < 12|.
:- am, |x >= 12|.
:- |x < 0|.
:- |x > 23|.
"""


@pytest.fixture(scope="session")
def acp_text() -> str:
    return ACP


@pytest.fixture(scope="session")
def pi1_text() -> str:
    return PI1


@pytest.fixture(scope="session")
def solver_cmd() -> str:
    """External SMT solver command; honours CASP2SMT_SOLVER, otherwise the
    bundled reference solver. Skips solver-gated tests if neither answers."""
    cmd = os.environ.get("CASP2SMT_SOLVER") or f"{sys.executable} {TOOLS / 'minismt.py'}"
    probe = SmtScript(logic="QF_LIA")
    try:
        result = run_solver(probe, cmd, timeout=30.0)
    except Exception as exc:  # noqa: BLE001 - any failure means "not configured"
        pytest.skip(f"no usable SMT solver ({exc})")
    if result.status is not Status.SAT:
        pytest.skip(f"solver probe answered {result.status}")
    return cmd


@pytest.fixture(scope="session")
def minismt():
    """The bundled reference solver as a module, for in-process differential
    tests. It imports nothing from the package, so its Fourier-Motzkin code
    stays an independent reference."""
    spec = importlib.util.spec_from_file_location("minismt", TOOLS / "minismt.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names(xs) -> list[str]:
    """Readable form of a set of AtomIds for assertions."""
    return sorted(a.name for a in xs)


def families(list_of_sets) -> set[frozenset[str]]:
    return {frozenset(a.name for a in x) for x in list_of_sets}
