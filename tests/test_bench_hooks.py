"""The benchmark's trace hooks must find the functions they wrap.

``bench/tracer.py`` replaces each layer's public functions by timing
wrappers, looked up where the package calls them. A function that moves or
is renamed only makes the benchmark print ``bench: cannot trace ...`` and
report zeros for its layer, so these tests fail instead.
"""

from pathlib import Path

import pytest

import casp2smt
from casp2smt.pipeline import Mode

from .conftest import PI1

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def test_every_target_resolves_to_a_callable(tracer):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracer.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_an_oracle_run_reaches_the_wrapped_layers(tracer, tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        # called through the package, where the benchmark calls them
        casp2smt.solve(
            casp2smt.parse_program(PI1),
            casp2smt.SolveConfig(oracle_only=True, mode=Mode.FORCE_RANKING, emit_path=tmp_path / "out.smt2"),
        )
    finally:
        t.remove()
    seen = {name for name, _, _, _ in t.spans}
    assert {
        "parser.parse_program",
        "pipeline.solve",
        "program.is_tight",
        "program.input_answer_sets",
        "completion.input_completion",
        "ranking.build_ranking_formula",
        "formula.to_clauses",
        "smtlib.emit_script",
        "lincon.gcsp",
    } <= seen
    assert t.counts["lincon.gcsp_calls"] > 0
