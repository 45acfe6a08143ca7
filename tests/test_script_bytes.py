"""Byte-identity gate for the emitted SMT-LIB.

The SHA-256 of the script ``solve`` writes is pinned for the paper's program
PI1 and for a reachability ring with chords: over QF_LIA by mode, and over
QF_LRA and under a variable box. A third, non-tight program pins
multivariate constraints over QF_LIA and QF_LRA, and one digest covers the
scripts of random programs in every configuration. Last, one digest per
configuration covers every script the solver is sent while a stand-in
answers with the oracle's answer sets, blocking assertions included. A
change that sets out to alter the encoding updates these pins and says so;
any other change must leave them untouched.
"""

import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from casp2smt import pipeline
from casp2smt.lincon import LexiconKind
from casp2smt.parser import parse_program, render_program
from casp2smt.pipeline import Mode, SolveConfig, solve
from casp2smt.smtlib import SmtModel, SolverResult, Status

from .conftest import PI1
from .randprog import random_cas_program


def ring_text(n: int) -> str:
    """Reachability from node 0 on a ring of n nodes: successor edges are
    choices, chords to the opposite node are facts, and each node's
    constraint atom holds exactly when the node is reached."""
    lines = ["r_0."]
    edges = []
    for i in range(n):
        succ, chord = (i + 1) % n, (i + n // 2) % n
        lines.append(f"{{e_{i}_{succ}}}.")
        lines.append(f"e_{i}_{chord}.")
        edges += [(i, succ), (i, chord)]
    lines += [f"r_{j} :- r_{i}, e_{i}_{j}." for i, j in edges]
    for i in range(n):
        level = f"|x_{i} >= {i % 7}|"
        lines.append(f":- r_{i}, not {level}.")
        lines.append(f":- {level}, not r_{i}.")
    return "\n".join(lines) + "\n"


RING12 = ring_text(12)

PINS = {
    ("PI1", Mode.AUTO):
        "f41f1a850f75ed6216214074cf2ec228f2832de021dc28a2a769dbfd7f9e3e4d",
    ("PI1", Mode.FORCE_RANKING):
        "ece93325ba2c97e90eca804543b706f3a3063f9e070671452cdd0d3686396799",
    ("RING12", Mode.AUTO):
        "d33aa008cfaa204f34339631117673038ba281709ab841bbdd5cca3134eedde1",
}

# the default configuration with one setting changed
CONFIG_PINS = {
    ("PI1", "lra"): "a478346bbc75a31993b9f4ced55e3b0edac491dd63b1f19e92efb6020e8fd5ce",
    ("PI1", "box"): "254b81e3bcf15753d2479981b85b7f04b235eda8004288d59af297e69e58e5a7",
    ("RING12", "lra"): "1813b271be87275b5c0e2976879105225f786e4a478f54cb06fb8936fcaa7d83",
    ("RING12", "box"): "ca049cc28fd292ac82ac7eefc3b6171b04d2719a1b832380b604bdded82ccfc3",
}

CONFIGS = {
    "lra": dict(logic=LexiconKind.REAL_LINEAR),
    "box": dict(var_box=(0, 23)),
}

# a positive cycle through p and q; constraints over several variables with
# negative coefficients, one of them under `not not`; and two constraint
# atoms, x+y>=12 and x-y>=12, whose SMT symbols collide before the suffix
MIXED = """\
{e}.
p :- q, e.
q :- p.
q :- |x + y >= 12|.
p :- not not |x - y >= 12|, not r.
r :- |2*x - 3*y < 5|, not p.
:- r, |-x + 2*z <= 4|.
"""

MIXED_PINS = {
    "lia": "b7a64d77124b750bde2529ee76553bffea6979b09b649f4de34becbb22facdd9",
    "lra": "af076f41d1ac7bd6dd76cf81730eabc177e65055cbf5cf5d5f8039d664b75d20",
}

TEXTS = {"PI1": PI1, "RING12": RING12}


@pytest.fixture(scope="module")
def stub_solver(tmp_path_factory) -> str:
    """A solver that reads its script and answers ``unknown`` at once."""
    path = tmp_path_factory.mktemp("stub") / "stub.py"
    path.write_text("import sys\nsys.stdin.read()\nprint('unknown')\n")
    return f"{sys.executable} {path}"


@pytest.mark.parametrize("name,mode", sorted(PINS, key=str))
def test_script_hash_is_pinned(name, mode, stub_solver, tmp_path):
    target = tmp_path / "out.smt2"
    solve(parse_program(TEXTS[name]), SolveConfig(solver_cmd=stub_solver, mode=mode, emit_path=target))
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == PINS[(name, mode)]


@pytest.mark.parametrize("name,config", sorted(CONFIG_PINS))
def test_script_hash_is_pinned_per_configuration(name, config, stub_solver, tmp_path):
    target = tmp_path / "out.smt2"
    solve(
        parse_program(TEXTS[name]),
        SolveConfig(solver_cmd=stub_solver, emit_path=target, **CONFIGS[config]),
    )
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == CONFIG_PINS[(name, config)]


@pytest.mark.parametrize("logic", sorted(MIXED_PINS))
def test_multivariate_script_hash_is_pinned(logic, stub_solver, tmp_path):
    target = tmp_path / "out.smt2"
    kind = LexiconKind.REAL_LINEAR if logic == "lra" else LexiconKind.INTEGER_LINEAR
    solve(parse_program(MIXED), SolveConfig(solver_cmd=stub_solver, logic=kind, emit_path=target))
    text = target.read_text()
    assert "(declare-fun b__x_y_ge_12_1 () Bool)" in text
    assert hashlib.sha256(target.read_bytes()).hexdigest() == MIXED_PINS[logic]


# one digest over 320 scripts: 40 random programs, each read back from its
# text, in every combination of logic, mode and variable box
SWEEP_PIN = "f2b3d286dfe12d513a3c01f93c6e733532bec126d2b2351c0eebbb099e941e5f"

SWEEP_CONFIGS = [
    dict(logic=logic, mode=mode, var_box=box)
    for logic in (LexiconKind.INTEGER_LINEAR, LexiconKind.REAL_LINEAR)
    for mode in (Mode.AUTO, Mode.FORCE_RANKING)
    for box in (None, (-4, 4))
]


def test_random_program_sweep_is_pinned(monkeypatch):
    scripts: list[str] = []

    def record(script, cmd, timeout):
        scripts.append(script.text)
        return SolverResult(Status.UNKNOWN)

    monkeypatch.setattr(pipeline, "run_solver", record)
    rng = random.Random(2017)
    programs = [parse_program(render_program(random_cas_program(rng))) for _ in range(40)]
    for p in programs:
        for config in SWEEP_CONFIGS:
            solve(p, SolveConfig(solver_cmd="unused", **config))
    assert len(scripts) == 320
    digest = hashlib.sha256("".join(scripts).encode()).hexdigest()
    assert digest == SWEEP_PIN


# per configuration, the number of scripts of 40 random programs and one
# digest over them, each call answered with the oracle's next answer set
STREAM_CONFIGS = [
    (
        dict(var_box=(-4, 4)),
        (131, "788ea98c30c02e17be025da943c20d235d9c6cb1734cb900d3c3dff71d48e982"),
    ),
    (
        dict(extended=True, var_box=(-2, 2)),
        (104, "54f8b3e5ecdaa4d5e3fe0f41677a294f1d51de8d2a84d5d3f74eaaf9609e2c26"),
    ),
    (
        dict(logic=LexiconKind.REAL_LINEAR, mode=Mode.FORCE_RANKING),
        (164, "ecb17456407b2937ded7381441647f46075f5ef912213e5f27fbb92f78b05b53"),
    ),
]


def oracle_replay(p, cfg: SolveConfig):
    """The oracle's answers to ``p`` under ``cfg``, and a stand-in for
    ``run_solver`` that returns each of their answer sets in order as a
    model, with the oracle's first valuation for its atoms, then UNSAT."""
    oracle = solve(p, replace(cfg, oracle_only=True, solver_cmd=None))
    answers = {}
    for r in oracle.results:
        if r.atom_set not in answers:
            gcsp = pipeline._induced_gcsp(p.irregular_atoms, r.atom_set)
            answers[r.atom_set] = next(pipeline._solutions(gcsp, cfg.logic, cfg.var_box))
    answers = list(answers.items())
    scripts: list[str] = []

    def stand_in(script, cmd, timeout):
        scripts.append(script.text)
        if len(scripts) > len(answers):
            return SolverResult(Status.UNSAT)
        x, values = answers[len(scripts) - 1]
        bools = {s: a in x for a, s in script.atom_symbols}
        nums = {s: Fraction(values.get(v, 0)) for v, s in script.var_symbols}
        return SolverResult(Status.SAT, SmtModel(bools, nums))

    return oracle, stand_in, scripts


def test_solver_call_stream_is_pinned(monkeypatch):
    rng = random.Random(14)
    programs = [parse_program(render_program(random_cas_program(rng))) for _ in range(40)]
    streamed: list[list[str]] = [[] for _ in STREAM_CONFIGS]
    for p in programs:
        for (config, _), stream in zip(STREAM_CONFIGS, streamed):
            cfg = SolveConfig(solver_cmd="unused", enumerate=0, **config)
            oracle, stand_in, scripts = oracle_replay(p, cfg)
            monkeypatch.setattr(pipeline, "run_solver", stand_in)
            smt = solve(p, cfg)
            assert [(r.atoms, r.valuation) for r in smt.results] == [
                (r.atoms, r.valuation) for r in oracle.results
            ]
            assert smt.status is oracle.status
            stream += scripts
    pins = [(len(s), hashlib.sha256("".join(s).encode()).hexdigest()) for s in streamed]
    assert pins == [pin for _, pin in STREAM_CONFIGS]
