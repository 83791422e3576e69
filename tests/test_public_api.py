import importlib
import inspect
import sys

import pytest

import cka

MODULES = ["partial_string", "program", "language", "expr", "testkit"]

# The public API, which each release keeps.
PUBLIC_NAMES = [
    "DependenceRelation", "Expr", "ExprError", "GenConfig", "InvalidPartialString",
    "LAWS", "Label", "Law", "LawReport", "LawResult", "LexicalError", "Morphism",
    "One", "PROGRAM_ALGEBRA_LAW_NAMES", "Par", "ParStar", "ParseError",
    "PartialString", "Program", "Seq", "SeqStar", "Sym", "TextFormatError", "Token",
    "Union", "Word", "Zero", "brute_force_refines", "chain", "contains", "empty",
    "enumerate_all", "equals", "evaluate", "exchange_holds", "find_morphism",
    "from_strict_pairs", "from_text", "hasse", "isomorphic", "lang_subset",
    "language", "law_suite", "linearize", "normalize_program", "one", "par", "parse",
    "parse_text", "pcompose", "pretty", "program_from_text", "program_of",
    "program_to_text", "punion", "random_partial_string", "refines", "seq",
    "singleton", "star", "subset", "to_dot", "to_text", "tokenize",
    "transitive_closure", "validate", "weakseq", "zero",
]

# Public names bound to typing constructs rather than defined by `def` or `class`.
TYPE_ALIASES = {"Expr", "Label", "Word"}


def _module(name):
    return importlib.import_module(f"cka.{name}")


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(cka.__all__) == PUBLIC_NAMES


def test_package_exports_are_the_union_of_disjoint_module_exports():
    exported = [name for m in MODULES for name in _module(m).__all__]
    assert len(exported) == len(set(exported))
    assert exported == cka.__all__


@pytest.mark.parametrize("name", MODULES)
def test_each_export_is_defined_in_its_module(name):
    module = _module(name)
    for attr in module.__all__:
        obj = getattr(module, attr)
        assert getattr(cka, attr) is obj
        if attr not in TYPE_ALIASES and (inspect.isfunction(obj) or inspect.isclass(obj)):
            assert (obj.__module__, obj.__name__) == (module.__name__, attr)


@pytest.mark.parametrize("name", ["cka", *(f"cka.{m}" for m in MODULES)])
def test_star_import_binds_exactly_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sys.modules[name].__all__)


def test_language_is_the_function_not_its_module():
    assert cka.language is sys.modules["cka.language"].language
    assert inspect.isfunction(cka.language)
