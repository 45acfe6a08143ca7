"""The package's public names."""

import importlib

import pytest

import casp2smt

# names that had a second, plain form beside the input-relative one
REMOVED = {
    "casp2smt": ["is_answer_set", "enumerate_answer_sets"],
    "casp2smt.program": ["is_answer_set", "enumerate_answer_sets"],
    "casp2smt.completion": ["completion"],
    "casp2smt.ranking": ["check_level_ranking", "exists_level_ranking", "exists_input_level_ranking"],
    "casp2smt.formula": ["Iff"],
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
