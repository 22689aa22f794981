"""Every public name in the package is reached by the program, or is an oracle.

The scan parses ``src/mac3mg/*.py`` and collects each public module-level
function and class and each public method of those classes.  A name is
reached when an ``ast.Name`` or ``ast.Attribute`` of that name appears in
``src/``, ``tools/`` or ``perfbench/`` outside the name's own definition.
Matching is by name alone, so a wrapper that shares its name with something
the program does call goes unseen.  A public name that only the tests call
must be an entry of ``ORACLES``, with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mac3mg"
PROGRAM = ("src", "tools", "perfbench")

ORACLES = {
    "analytic.in_high_region": "the closed-form high-frequency region, checked against samples",
    "analytic.g_extrema": "the closed-form extrema of g, checked by acceptance criterion 4",
    "analytic.scan_g": "the independent brute-force scan that checks g_extrema",
    "analytic.optimal_scalar": "the closed-form qdr/qbsr optimum, checked by criterion 1",
    "analytic.uzawa_spectrum": "the closed-form sigma-Uzawa eigenvalues, checked by criterion 9",
    "analytic.uzawa_mu_c": "the complex branch of the sigma-Uzawa factor (criterion 9)",
    "analytic.uzawa_mu_r": "the real branch of the sigma-Uzawa factor (criterion 9)",
    "assemble.assemble_schur": "the assembled Schur oracle, which perfbench traces by name",
    "assemble.nullspace": "the orthonormal nullspace, which checks the cycle operator's gauge",
    "grid.mode_coefficients": "the per-mode probe of the periodic operators and sweeps",
    "twogrid.two_grid_symbol": "the single-sample LFA oracle for the batched factors",
}


def scan():
    """``(definitions, unreached)``: the public definitions by
    ``module.name`` or ``module.Class.method``, and the keys of those no
    program code refers to outside their own body."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))}
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            definitions[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        definitions[f"{path.stem}.{node.name}.{item.name}"] = item

    # every use of a name, with the definitions (by identity) enclosing it
    uses: dict[str, list[frozenset]] = {}

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            uses.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for tree in trees.values():
        walk(tree, frozenset())
    unreached = {key for key, node in definitions.items()
                 if all(id(node) in inside for inside in uses.get(node.name, ()))}
    return definitions, unreached


def test_every_public_name_is_reached_or_an_oracle():
    definitions, unreached = scan()
    # the scan sees the package: a method, a function and a class it reaches
    for key in ("grid.SaddleSystem.run", "multigrid.v_cycle", "smoothers.Smoother"):
        assert key in definitions and key not in unreached
    assert sorted(unreached - set(ORACLES)) == []


def test_every_oracle_is_an_unreached_public_name():
    definitions, unreached = scan()
    assert sorted(set(ORACLES) - set(definitions)) == []
    # an oracle the program now calls is no longer only an oracle
    assert sorted(set(ORACLES) - unreached) == []
    assert all(reason and "\n" not in reason for reason in ORACLES.values())
