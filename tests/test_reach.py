"""Every public name in the package is reached by the program, or is an oracle,
and every option of a reached function is set by the program.

The scan parses ``src/mac3mg/*.py`` and collects each public module-level
function and class and each public method of those classes.  A name is
reached when an ``ast.Name`` or ``ast.Attribute`` of that name appears in
``src/``, ``tools/`` or ``perfbench/`` outside the name's own definition.
Matching is by name alone, so a wrapper that shares its name with something
the program does call goes unseen.  A public name that only the tests call
must be an entry of ``ORACLES``, with the reason it stays.

An option is a parameter with a default.  Each option of a reached public
function or method must be passed, by keyword or by position, in some call
of that name in the same three directories; an option that only the tests
set must be an entry of ``OPTIONS``, with the reason it stays.
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

OPTIONS = {
    "multigrid.solve.rhs": "the documented solver API: a right-hand side other than zero",
    "multigrid.solve.max_iters": "the documented solver API: the iteration cap",
    "multigrid.solve.tol": "the documented solver API: the stopping residual",
    "grid.fourier_state.coeffs": "an oracle input: a mode with chosen field amplitudes",
    "multigrid.assemble_two_grid_matrix.bc": "an oracle input: the Dirichlet two-grid matrix",
    "cli.main.argv": "the tests' command lines; the program reads sys.argv",
}


def scan():
    """``(definitions, unreached, calls)``: the public definitions by
    ``module.name`` or ``module.Class.method``, the keys of those no
    program code refers to outside their own body, and every call in the
    program by the name it calls."""
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
    calls: dict[str, list[ast.Call]] = {}

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Call):
            func = node.func
            calls.setdefault(func.attr if isinstance(func, ast.Attribute)
                             else getattr(func, "id", None), []).append(node)
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
    return definitions, unreached, calls


def unset_options():
    """``module.function.parameter`` of each option of a reached public
    function or method that no call of its name passes (an oracle is
    unreached, so its options are exempt).  A method's first parameter is
    bound (the package has no static methods); a starred argument fills one
    position, and a ``**`` mapping names no keyword."""
    definitions, unreached, calls = scan()
    unset = set()
    for key, node in definitions.items():
        if not isinstance(node, ast.FunctionDef) or key in unreached:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if key.count(".") == 2:
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        options = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        options += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
        for i, name in options:
            if not any(i is not None and i < len(call.args)
                       or any(kw.arg == name for kw in call.keywords)
                       for call in calls.get(node.name, ())):
                unset.add(f"{key}.{name}")
    return unset


def test_every_public_name_is_reached_or_an_oracle():
    definitions, unreached, _ = scan()
    # the scan sees the package: a method, a function and a class it reaches
    for key in ("grid.SaddleSystem.run", "multigrid.v_cycle", "smoothers.Smoother"):
        assert key in definitions and key not in unreached
    assert sorted(unreached - set(ORACLES)) == []


def test_every_oracle_is_an_unreached_public_name():
    definitions, unreached, _ = scan()
    assert sorted(set(ORACLES) - set(definitions)) == []
    # an oracle the program now calls is no longer only an oracle
    assert sorted(set(ORACLES) - unreached) == []
    assert all(reason and "\n" not in reason for reason in ORACLES.values())


def test_every_option_is_set_by_the_program():
    unset = unset_options()
    # the scan sees options set by keyword, by position and on a method
    assert {"multigrid.solve.seed", "grid.build_system.bc",
            "grid.SaddleSystem.residual.out"}.isdisjoint(unset)
    assert sorted(unset - set(OPTIONS)) == []
    # an option the program now sets is no longer only the tests'
    assert sorted(set(OPTIONS) - unset) == []
    assert len(OPTIONS) <= 6
    assert all(reason and "\n" not in reason for reason in OPTIONS.values())
