"""The surface that tools outside the package read.

The per-layer tracer in ``perfbench/tracing.py`` wraps every name a layer
module lists in ``__all__``, and counts a built game tree's leaves,
sequences and information sets with ``len()``.
"""

import importlib
import pkgutil

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
