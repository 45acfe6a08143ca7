"""The package's public names."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import casp2smt

REMOVED = {
    # names that had a second, plain form beside the input-relative one, and
    # reference semantics that only the tests ran (now in tests/semantics.py)
    "casp2smt": ["is_answer_set", "enumerate_answer_sets"],
    "casp2smt.program": [
        "is_answer_set",
        "enumerate_answer_sets",
        "rule",
        "satisfies_rule",
        "reduct",
        "with_facts",
    ],
    "casp2smt.completion": ["completion"],
    "casp2smt.ranking": [
        "check_level_ranking",
        "exists_level_ranking",
        "exists_input_level_ranking",
        "check_input_level_ranking",
        "find_level_ranking",
        "LevelRanking",
    ],
    "casp2smt.formula": [
        "Iff",
        "eval_formula",
        "models_of",
        "satisfies_clauses",
        "project_model",
        "clause_models",
    ],
    "casp2smt.pipeline": ["constraint_models"],
    # the parser reads constraints too, and the lexer alone keeps program
    # names apart from generated ones
    "casp2smt.lincon": ["parse_constraint"],
    "casp2smt.errors": ["PartialRanking", "NotAModel", "ReservedPrefix", "UnknownSymbol"],
    # the encoder bounds variables by name; only smtlib spells them as symbols
    "casp2smt.smtlib": ["box_assert"],
}


def test_exported_names_resolve_and_star_import_gives_them():
    assert "is_input_answer_set" in casp2smt.__all__
    for name in casp2smt.__all__:
        assert getattr(casp2smt, name) is not None
    namespace: dict = {}
    exec("from casp2smt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(casp2smt.__all__)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_name_is_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_every_public_definition_runs_in_the_package_or_is_exported():
    """Each public top-level function and class of the package is named
    somewhere in the package outside its own definition, or is in
    ``__all__``: code that only the tests run belongs with the tests."""
    defined: dict[str, str] = {}
    named: set[str] = set()
    for path in sorted(Path(casp2smt.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    named.add(name)
    unused = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in named and name not in casp2smt.__all__
    )
    assert unused == []


def test_only_smtlib_names_the_symbol_tables():
    """Atoms and variables are spelled as SMT symbols in one module: the
    rest of the package bounds variables and blocks answers by name."""
    package = Path(casp2smt.__file__).parent
    naming = sorted(
        path.name
        for path in package.glob("*.py")
        if re.search(r"\b(atom_symbols|var_symbols)\b", path.read_text(encoding="utf-8"))
    )
    assert naming == ["smtlib.py"]
