"""The surface that tools and readers outside the package rely on.

The per-layer tracer in ``perfbench/tracing.py`` wraps every name a layer
module lists in ``__all__``, and counts a built game tree's leaves,
sequences and information sets with ``len()``.  The README's library
usage block runs as written.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import cider
from cider import diagram as dg
from cider import optimizer as opt

LAYERS = ("kbfile", "diagram", "contextual", "el", "evidence", "optimizer", "simplex")


def test_every_exported_name_resolves():
    names = ["cider"] + [f"cider.{m.name}" for m in pkgutil.iter_modules(cider.__path__)]
    assert {f"cider.{layer}" for layer in LAYERS} <= set(names)
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if name.removeprefix("cider.") in LAYERS:
            assert exported, name
        for attr in exported or ():
            assert hasattr(module, attr), f"{name}.{attr}"


def test_tree_sizes_have_a_length(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    assert (len(tree.leaves), len(tree.sequences), len(tree.infosets)) == (16, 9, 4)
    chance_only = dg.InfluenceDiagram(
        variables=("A",),
        kinds={"A": dg.CHANCE},
        parents={"A": ()},
        cpt={"A": {"": 0.5}},
        cost_parents=("A",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    tree = opt.build_game_tree(chance_only)
    assert (len(tree.leaves), len(tree.sequences), len(tree.infosets)) == (2, 1, 0)


def test_the_readme_library_usage_gives_its_commented_values():
    """Every statement of the block runs in order.  An expression with a
    trailing '# value' comment equals that value rounded to the
    comment's decimals; a comment ending in '...' is a prefix."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library usage\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if not (isinstance(statement, ast.Expr) and comment):
            exec(compile(ast.Module([statement], type_ignores=[]), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
        if comment.endswith("..."):
            assert str(value).startswith(comment.removesuffix("...")), (comment, value)
        else:
            decimals = len(comment.partition(".")[2])
            assert round(value, decimals) == float(comment), (comment, value)
        checked.append(comment)
    assert checked == ["4.604", "0.3", "3.445...", "2.36", "6", "2.360016", "2.36"]
