"""Every public name in the package is reached by the program, or is an oracle,
and every option of a reached function, method or class is set by the program
and left to its default by it.

The scan parses ``src/mac3mg/*.py`` and collects each module-level function
and class and each method of those classes but the dunders.  A function or
class is reached when an ``ast.Name`` or ``ast.Attribute`` of its name
appears in ``src/``, ``tools/`` or ``perfbench/`` outside the name's own
definition and outside the body of every ``ORACLES`` entry, and a method when
an ``ast.Attribute`` (``x.name``) does: a local variable that shares a
method's name (``grad`` in ``symbols._step_symbol``) does not reach it.  No
program run executes an oracle, so what only an oracle uses is not reached
either.  Matching is by
name alone, so a wrapper that shares its name with something the program
does call goes unseen.  A public name that only the tests and the oracles
call must be an entry of ``ORACLES``, with the reason it stays.

An option is a parameter with a default: of a function or method, of a
class's ``__init__``, or a dataclass field with a default.  Calls are matched
by the name they call, a class's by its class name, outside the oracles'
bodies, so the calls of one name count for every definition of that name (``multigrid.solve`` and
``SchurOperator.solve`` share theirs), and a call made on an instance
(``Workspace.__call__``) is not seen.  Each option of a reached
definition must be passed, by keyword or by position, in some call of its
name in the same three directories, unless its ``OPTIONS`` entry says why
only the tests set it; and some call must leave it to its default.  A call
that passes a ``**`` mapping may set any keyword, so it counts for neither
rule, and a class built only from one (``cli.ExperimentConfig``) is exempt.

A required parameter that two or more calls of its name all pass as one
literal (``ast.literal_eval`` reads it) is a constant: it must go, or vary.
A starred argument at or before its position hides what a call passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mac3mg"
PROGRAM = ("src", "tools", "perfbench")

ORACLES = {
    "analytic.GExtrema": "the result of g_extrema, an oracle",
    "analytic.in_high_region": "the closed-form high-frequency region, checked against samples",
    "analytic.g_extrema": "the closed-form extrema of g, checked by acceptance criterion 4",
    "analytic.scan_g": "the independent brute-force scan that checks g_extrema",
    "analytic.optimal_scalar": "the closed-form qdr/qbsr optimum, checked by criterion 1",
    "analytic.uzawa_spectrum": "the closed-form sigma-Uzawa eigenvalues, checked by criterion 9",
    "analytic.uzawa_mu_c": "the complex branch of the sigma-Uzawa factor (criterion 9)",
    "analytic.uzawa_mu_r": "the real branch of the sigma-Uzawa factor (criterion 9)",
    "analytic.uzawa_m2": "the sigma-Uzawa mass ratio that the closed-form branches share",
    "analytic.UzawaSpectrum": "the result of uzawa_spectrum, an oracle",
    "assemble.assemble_schur": "the assembled Schur oracle, which perfbench traces by name",
    "assemble.nullspace": "the orthonormal nullspace, which checks the cycle operator's gauge",
    "grid.fourier_state": "the single staggered Fourier mode the per-mode probes apply",
    "grid.mode_coefficients": "the per-mode probe of the periodic operators and sweeps",
    "symbols.canonicalize": "wraps a frequency into [-pi, pi), for the harmonic checks",
    "symbols.is_low": "the low-frequency test that the single-sample oracle and sweeps check",
    "twogrid.two_grid_symbol": "the single-sample LFA oracle for the batched factors",
}

OPTIONS = {
    "multigrid.solve.rhs": "the documented solver API: a right-hand side other than zero",
    "multigrid.solve.max_iters": "the documented solver API: the iteration cap",
    "multigrid.solve.tol": "the documented solver API: the stopping residual",
    "multigrid.assemble_two_grid_matrix.bc": "an oracle input: the Dirichlet two-grid matrix",
    "cli.main.argv": "the tests' command lines; the program reads sys.argv",
}


def scan():
    """``(definitions, unreached, calls)``: every module-level function and
    class of the package and every method of those classes but the dunders,
    by ``module.name`` or ``module.Class.method``; the keys of those no
    program code refers to outside their own body and the oracles' bodies;
    and every call in the program outside the oracles' bodies, by the name
    it calls."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))}
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        definitions[f"{path.stem}.{node.name}.{item.name}"] = item

    # every use of a name, with the definitions (by identity) enclosing it
    uses: dict[str, list[frozenset]] = {}
    attributes: dict[str, list[frozenset]] = {}
    calls: dict[str, list[ast.Call]] = {}
    oracles = {id(definitions[key]) for key in ORACLES if key in definitions}

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if id(node) in oracles:
                return
            inside = inside | {id(node)}
        if isinstance(node, ast.Call):
            func = node.func
            calls.setdefault(func.attr if isinstance(func, ast.Attribute)
                             else getattr(func, "id", None), []).append(node)
        if isinstance(node, ast.Name):
            uses.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(inside)
            attributes.setdefault(node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for tree in trees.values():
        walk(tree, frozenset())
    # a method is reached through an attribute only, not a local of its name
    unreached = {key for key, node in definitions.items()
                 if all(id(node) in inside for inside in
                        (attributes if key.count(".") == 2 else uses).get(node.name, ()))}
    return definitions, unreached, calls


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def parameters():
    """``{key: (calls, position, parameter, required)}`` for each parameter of
    a reached function, method or class: the program's calls of its name, its
    position (None for keyword-only), its name and whether it has no default.
    A method's first parameter is bound (the package has no static methods).
    A class is called by its name: a dataclass takes its fields in field
    order, keyed ``module.Class.field``, and any other class the parameters
    of its ``__init__``, keyed ``module.Class.__init__.parameter``.  A call
    that passes a ``**`` mapping may set any keyword, so it is left out, and
    a definition that every call builds from one is exempt."""
    definitions, unreached, calls = scan()
    found = {}
    for key, node in definitions.items():
        if key in unreached:
            continue
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            params = [(i, f.target.id, f.value is None) for i, f in enumerate(fields)]
        else:
            if isinstance(node, ast.ClassDef):
                node_args = next((item.args for item in node.body
                                  if isinstance(item, ast.FunctionDef)
                                  and item.name == "__init__"), None)
                if node_args is None:
                    continue
                key, bound = f"{key}.__init__", True
            else:
                node_args, bound = node.args, key.count(".") == 2
            positional = node_args.posonlyargs + node_args.args
            if bound:
                positional = positional[1:]
            first = len(positional) - len(node_args.defaults)
            params = [(i, a.arg, i < first) for i, a in enumerate(positional)]
            params += [(None, a.arg, d is None) for a, d in zip(node_args.kwonlyargs,
                                                                node_args.kw_defaults)]
        named = calls.get(node.name, [])
        judged = [call for call in named if all(kw.arg is not None for kw in call.keywords)]
        if named and not judged:
            continue
        for i, name, required in params:
            found[f"{key}.{name}"] = (judged, i, name, required)
    return found


def options():
    """``{option key: (calls, position, parameter)}`` for each parameter with
    a default (``parameters``)."""
    return {key: (judged, i, name)
            for key, (judged, i, name, required) in parameters().items() if not required}


def _literal(call: ast.Call, position, name: str):
    """``(value,)`` of the literal ``call`` passes for the parameter, or None
    when it passes none, an expression, or a starred argument up to it."""
    if position is not None and position < len(call.args):
        if any(isinstance(a, ast.Starred) for a in call.args[: position + 1]):
            return None
        node = call.args[position]
    else:
        node = next((kw.value for kw in call.keywords if kw.arg == name), None)
    try:
        return None if node is None else (ast.literal_eval(node),)
    except ValueError:
        return None


def required_literals():
    """``{key: literals}`` for each required parameter with two or more
    calls: what each call passes (``_literal``)."""
    return {key: [_literal(call, i, name) for call in judged]
            for key, (judged, i, name, required) in parameters().items()
            if required and len(judged) >= 2}


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter; a starred argument fills one
    position."""
    return (position is not None and position < len(call.args)
            or any(kw.arg == name for kw in call.keywords))


def unset_options():
    """Keys of the options that no call of their name passes (an oracle is
    unreached, so its options are exempt)."""
    return {key for key, (judged, i, name) in options().items()
            if not any(_sets(call, i, name) for call in judged)}


def untaken_defaults():
    """Keys of the options that every call of their name passes."""
    return {key for key, (judged, i, name) in options().items()
            if all(_sets(call, i, name) for call in judged)}


def test_every_public_name_is_reached_or_an_oracle():
    definitions, unreached, _ = scan()
    # the scan sees the package: a method, a function and a class it reaches
    for key in ("grid.SaddleSystem.run", "multigrid.v_cycle", "smoothers.Smoother"):
        assert key in definitions and key not in unreached
    public = {key for key in unreached if not any(part[0] == "_" for part in key.split("."))}
    assert sorted(public - set(ORACLES)) == []


def test_every_oracle_is_an_unreached_public_name():
    definitions, unreached, _ = scan()
    assert sorted(set(ORACLES) - set(definitions)) == []
    # an oracle the program now calls is no longer only an oracle
    assert sorted(set(ORACLES) - unreached) == []
    assert all(reason and "\n" not in reason for reason in ORACLES.values())


def test_every_option_is_set_by_the_program():
    unset = unset_options()
    # the scan sees options set by keyword, by position, on a method, on a
    # private function and on a dataclass field
    seen = {"multigrid.solve.seed", "smoothers.lap1_eig.ghost",
            "grid.SaddleSystem.residual.out", "cli._emit.extras", "symbols.RelaxParams.sigma"}
    assert seen <= set(options()) and seen.isdisjoint(unset)
    assert sorted(unset - set(OPTIONS)) == []
    # an option the program now sets is no longer only the tests'
    assert sorted(set(OPTIONS) - unset) == []
    assert len(OPTIONS) <= 5
    assert all(reason and "\n" not in reason for reason in OPTIONS.values())


def test_every_default_is_taken_by_the_program():
    untaken = untaken_defaults()
    # the scan sees defaults taken on a function, a method, a private
    # function and a dataclass field, and exempts a class built from a **
    # mapping
    found = options()
    seen = {"multigrid.solve.cycle", "grid.SaddleSystem.residual.out",
            "cli._emit.extras", "symbols.RelaxParams.sigma"}
    assert seen <= set(found) and seen.isdisjoint(untaken)
    assert "cli.ExperimentConfig" in scan()[0]
    assert not any(key.startswith("cli.ExperimentConfig.") for key in found)
    assert sorted(untaken) == []


def test_no_required_parameter_is_a_constant():
    literals = required_literals()
    # the scan reads literals passed by position: transform's direction
    # takes both values, so it is no constant
    assert {repr(x) for x in literals["smoothers.transform.back"]} == {"(True,)", "(False,)"}
    constant = {key for key, passed in literals.items()
                if None not in passed and len({repr(x) for x in passed}) == 1}
    assert sorted(constant) == []
