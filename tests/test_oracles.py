"""The oracles stay independent of the code they check: ``oracles.py`` takes
from ``radiotree`` only what builds a tree, and no test reference (a function
named ``*_reference``) calls the package code the tests check against it."""

import ast
from pathlib import Path

import oracles

TREE_BUILDERS = {"Tree", "build_tree", "_decode_pruefer"}
CHECKED = {"check_condition_a", "_condition_b_core", "_free_flags", "_remote_flags", "_bfs",
           "distance_matrix", "greedy_label_from_order", "_twin_prev", "_probe_bounds",
           "_xi_cuts", "_identity_labels"}


def names_in(node):
    """Every name, attribute, definition and imported name under ``node``."""
    return {getattr(n, key) for n in ast.walk(node) for key in ("id", "attr", "name")
            if isinstance(getattr(n, key, None), str)}


def test_oracles_import_only_what_builds_a_tree():
    module = ast.parse(Path(oracles.__file__).read_text())
    taken = {(getattr(n, "module", None) or a.name, a.name) for n in ast.walk(module)
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    from_package = {name for source, name in taken if source.partition(".")[0] == "radiotree"}
    assert from_package <= TREE_BUILDERS, from_package - TREE_BUILDERS
    assert not names_in(module) & CHECKED


def test_references_call_none_of_the_code_they_check():
    references = [node for path in Path(__file__).parent.glob("test_*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name.endswith("_reference")
                  and not node.name.startswith("test_")]
    assert {"certify_reference", "exact_rn_reference", "search_reference"} \
        <= {f.name for f in references}
    for f in references:
        assert not names_in(f) & CHECKED, (f.name, names_in(f) & CHECKED)
