"""Spans around the public entry points of mac3mg, recorded from outside.

The tracer replaces module and class attributes with thin wrappers, so every
call that looks the attribute up at call time is seen, including the calls
made inside ``multigrid._descend`` (``restrict_state``, ``prolong_state``,
``Smoother.sweep``) and ``twogrid._error_symbols`` (``symbols.*``).  Nothing
in the program's source changes.  Each span keeps its name, start, end, the
id of the span that was open when it started (its parent), the id of its root
span (one root per benchmark operation), the grid size it acted on, and a few
attributes (scheme, boundary type, batch size).  Spans stay in memory; the
benchmark reduces them to per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int
    root: int
    phase: str
    n: int | None
    attrs: dict
    start: float
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Records spans while ``enabled``; ``phase`` labels them (setup, pass)."""

    enabled: bool = False
    phase: str = ""
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``describe(args, kwargs)`` returns ``(n, attrs)`` for the span.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            n, attrs = describe(args, kwargs) if describe else (None, {})
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(
                sid=len(tracer.spans), name=name,
                parent=parent.sid if parent else -1,
                root=parent.root if parent else len(tracer.spans),
                phase=tracer.phase, n=n, attrs=attrs, start=time.perf_counter(),
            )
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                return orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def instrument(tracer: Tracer) -> None:
    """Wrap every public entry point the benchmark's layers are measured at."""
    from mac3mg import assemble, grid, multigrid, smoothers, symbols, twogrid

    # SchurOperators whose first solve, the one that factorises, was seen
    first_solve: set[int] = set()

    def sweep(args, kwargs):
        sm = args[0]
        return sm.system.n, {"scheme": sm.params.scheme, "bc": sm.system.bc}

    def on_self(args, kwargs):  # first argument carries n and bc
        return args[0].n, {"bc": args[0].bc}

    def schur_solve(args, kwargs):
        op = args[0]
        first = id(op) not in first_solve
        first_solve.add(id(op))
        return op.n, {"bc": op.bc, "first": first}

    def by_size(args, kwargs):
        return args[1], {"bc": args[2] if len(args) > 2 else kwargs.get("bc")}

    def by_first_arg_size(args, kwargs):
        return args[0], {"bc": args[1] if len(args) > 1 else kwargs.get("bc", "dirichlet")}

    def prolong(args, kwargs):
        return args[1], {"bc": args[0].bc}

    def cycle(kind):
        def describe(args, kwargs):
            hier = args[0]
            return hier.sizes[0], {"bc": hier.bc, "scheme": hier.params.scheme, "kind": kind}
        return describe

    def samples(theta_pos):
        def describe(args, kwargs):
            shape = np.shape(args[theta_pos])
            return None, {"samples": int(shape[0]) if len(shape) > 1 else 1}
        return describe

    tracer.wrap(smoothers.Smoother, "sweep", "smoothers.sweep", sweep)
    tracer.wrap(smoothers.SchurOperator, "__init__", "smoothers.schur_build", by_size)
    tracer.wrap(smoothers.SchurOperator, "solve", "smoothers.schur_solve", schur_solve)
    tracer.wrap(grid.SaddleSystem, "residual", "grid.residual", on_self)
    tracer.wrap(multigrid, "restrict_state", "multigrid.restrict", on_self)
    tracer.wrap(multigrid, "prolong_state", "multigrid.prolong", prolong)
    tracer.wrap(multigrid, "v_cycle", "multigrid.cycle", cycle("V(2,0)"))
    tracer.wrap(multigrid, "two_grid_cycle", "multigrid.cycle", cycle("two-grid(2,0)"))
    tracer.wrap(multigrid.DirectSolver, "__init__", "multigrid.direct_factor", by_size)
    tracer.wrap(multigrid.DirectSolver, "solve_state", "multigrid.coarse_solve", on_self)
    tracer.wrap(assemble, "assemble_ops", "assemble.ops", by_first_arg_size)
    tracer.wrap(assemble, "assemble_schur", "assemble.schur", by_first_arg_size)
    tracer.wrap(symbols, "stokes_symbol", "symbols.stokes_symbol", samples(0))
    tracer.wrap(symbols, "relax_error_symbol", "symbols.relax_error_symbol", samples(1))
    tracer.wrap(twogrid, "two_grid_factor_table", "twogrid.table")
    tracer.wrap(twogrid, "periodic_lattice_factor", "twogrid.lattice")


# (scheme, boundary type) pairs that get their own sweep numbers
SWEEP_KEYS = (("qdr", "dirichlet"), ("qdr", "periodic"), ("qibsr", "dirichlet"),
              ("qibsr", "periodic"), ("quzawa", "dirichlet"), ("quzawa", "periodic"),
              ("qbsr", "dirichlet"))
BCS = ("dirichlet", "periodic")
TRANSFER_LEVELS = 5

# per-layer metric name -> unit; every traced run reports all of them, and a
# layer the workload leaves idle reads 0
PER_LAYER_UNITS = {
    "grid.residual_ms": "ms", "grid.residual_ms_coarse": "ms",
    **{f"smoothers.sweep_ms{c}.{s}.{b}": "ms" for s, b in SWEEP_KEYS for c in ("", "_coarse")},
    "smoothers.sweeps": "count",
    "smoothers.schur_build_s": "s", "smoothers.schur_build_s_coarse": "s",
    "smoothers.schur_factor_s": "s", "smoothers.schur_factor_s_coarse": "s",
    "smoothers.schur_solve_ms": "ms", "smoothers.schur_solve_ms_coarse": "ms",
    "assemble.ops_s": "s", "assemble.ops_s_coarse": "s",
    "assemble.schur_s": "s", "assemble.schur_s_coarse": "s",
    **{f"multigrid.{t}_ms{c}.{b}": "ms" for t in ("restrict", "prolong")
       for c in ("", "_coarse") for b in BCS},
    "multigrid.cycle_self_ms": "ms",
    "multigrid.direct_factor_s": "s",
    "multigrid.coarse_solve_ms": "ms",
    "multigrid.finest_smoothing_share": "ratio",
    "multigrid.cycles": "count",
    **{f"multigrid.transfers.l{lev}": "count" for lev in range(TRANSFER_LEVELS)},
    "symbols.symbol_build_ms": "ms",
    "twogrid.table_self_ms": "ms",
    "twogrid.lattice_ms": "ms",
    "twogrid.symbol_samples": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _split_levels(spans, finest: int | None, value, per_call: bool):
    """(finest, coarse) figures: the finest level's, and the coarser levels'
    summed.  ``per_call`` averages within each level before summing."""
    by_n: dict = {}
    for s in spans:
        by_n.setdefault(s.n, []).append(value(s))
    reduce = _mean if per_call else sum
    fine = reduce(by_n.get(finest, []))
    coarse = sum(reduce(v) for n, v in by_n.items() if finest is not None and n is not None
                 and n < finest)
    return fine, coarse


def layer_metrics(spans: list, finest: int | None, overhead_s: float) -> dict:
    """Reduce setup- and pass-phase spans to the per-layer metrics."""
    setup = [s for s in spans if s.phase == "setup"]
    run = [s for s in spans if s.phase == "pass"]

    def named(group, name, **attrs):
        return [s for s in group if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    out = {}

    def levels(key, coarse_key, group, scale, per_call, inclusive=False):
        f, c = _split_levels(group, finest,
                             (lambda s: s.duration) if inclusive else (lambda s: s.self_time),
                             per_call)
        out[key], out[coarse_key] = f * scale, c * scale

    levels("grid.residual_ms", "grid.residual_ms_coarse", named(run, "grid.residual"), 1e3, True)
    for s, b in SWEEP_KEYS:
        levels(f"smoothers.sweep_ms.{s}.{b}", f"smoothers.sweep_ms_coarse.{s}.{b}",
               named(run, "smoothers.sweep", scheme=s, bc=b), 1e3, True)
    out["smoothers.sweeps"] = len(named(run, "smoothers.sweep"))
    levels("smoothers.schur_build_s", "smoothers.schur_build_s_coarse",
           named(setup, "smoothers.schur_build"), 1.0, False, inclusive=True)
    levels("smoothers.schur_factor_s", "smoothers.schur_factor_s_coarse",
           named(setup, "smoothers.schur_solve", first=True), 1.0, False)
    levels("smoothers.schur_solve_ms", "smoothers.schur_solve_ms_coarse",
           named(run, "smoothers.schur_solve", first=False), 1e3, True)
    levels("assemble.ops_s", "assemble.ops_s_coarse", named(setup, "assemble.ops"), 1.0, False)
    levels("assemble.schur_s", "assemble.schur_s_coarse", named(setup, "assemble.schur"),
           1.0, False)
    for t in ("restrict", "prolong"):
        for b in BCS:
            levels(f"multigrid.{t}_ms.{b}", f"multigrid.{t}_ms_coarse.{b}",
                   named(run, f"multigrid.{t}", bc=b), 1e3, True)
    cycles = named(run, "multigrid.cycle")
    out["multigrid.cycle_self_ms"] = _mean(s.self_time for s in cycles) * 1e3
    out["multigrid.direct_factor_s"] = sum((s.self_time for s in
                                           named(setup, "multigrid.direct_factor")), 0.0)
    out["multigrid.coarse_solve_ms"] = _mean(s.self_time for s in
                                             named(run, "multigrid.coarse_solve")) * 1e3
    cycle_time = sum(s.duration for s in cycles)
    finest_sweeps = sum(s.duration for s in named(run, "smoothers.sweep") if s.n == finest)
    out["multigrid.finest_smoothing_share"] = finest_sweeps / cycle_time if cycle_time else 0.0
    out["multigrid.cycles"] = len(cycles)
    transfers = named(run, "multigrid.restrict") + named(run, "multigrid.prolong")
    for lev in range(TRANSFER_LEVELS):
        size = finest // 3**lev if finest else None
        out[f"multigrid.transfers.l{lev}"] = sum(1 for s in transfers if s.n == size)

    tables = named(run, "twogrid.table")
    table_ids = {s.sid for s in tables}
    in_tables = [s for s in run if s.name.startswith("symbols.") and s.root in table_ids]
    out["symbols.symbol_build_ms"] = (sum(s.self_time for s in in_tables) / len(tables) * 1e3
                                      if tables else 0.0)
    out["twogrid.table_self_ms"] = _mean(s.self_time for s in tables) * 1e3
    out["twogrid.lattice_ms"] = _mean(s.duration for s in named(run, "twogrid.lattice")) * 1e3
    # batch size handed to the fine-grid error symbol, one call per table
    per_table = [s.attrs["samples"] for s in in_tables
                 if s.name == "symbols.relax_error_symbol" and s.parent in table_ids]
    out["twogrid.symbol_samples"] = sorted(per_table)[len(per_table) // 2] if per_table else 0
    out["trace.spans"] = len(run)
    out["trace.overhead_s"] = overhead_s
    assert set(out) == set(PER_LAYER_UNITS), set(out) ^ set(PER_LAYER_UNITS)
    return out


def baseline_rows(spans: list, finest: int) -> list:
    """Finest-level figures per (scheme, boundary type), in the shape of the
    ROADMAP baseline table: lazy set-up, sweep, residual, restrict, prolong
    and the whole cycle, all in ms (sweep and cycle inclusive)."""
    rows = []
    by_sid = {s.sid: s for s in spans}
    cycles = [s for s in spans if s.name == "multigrid.cycle"]
    keys = sorted({(c.attrs["scheme"], c.attrs["bc"], c.attrs["kind"])
                   for c in cycles if c.phase == "pass"})
    for scheme, bc, kind in keys:
        def under(phase, s):
            root = by_sid[s.root]
            return (s.phase == phase and root.name == "multigrid.cycle"
                    and root.attrs["scheme"] == scheme and root.attrs["bc"] == bc)

        mine = [s for s in spans if under("pass", s)]
        # Schur builds, first Schur solves (the LU) and direct factorisations
        lazy = [s for s in spans if under("setup", s) and (
            s.name in ("smoothers.schur_build", "multigrid.direct_factor") or s.attrs.get("first"))]

        def fine(name, inclusive=False):
            vals = [s.duration if inclusive else s.self_time for s in mine
                    if s.name == name and s.n == finest]
            return _mean(vals) * 1e3

        rows.append({
            "n": finest, "scheme": scheme, "bc": bc,
            "setup_ms": sum(s.duration for s in lazy) * 1e3,
            "sweep_ms": fine("smoothers.sweep", inclusive=True),
            "residual_ms": fine("grid.residual"),
            "restrict_ms": fine("multigrid.restrict"),
            "prolong_ms": fine("multigrid.prolong"),
            "cycle": kind,
            "cycle_ms": _mean(s.duration for s in mine if s.name == "multigrid.cycle") * 1e3,
        })
    return rows


def self_time_ranking(spans: list, top: int = 8) -> list:
    """Largest summed self times over the whole traced run, by span and level.
    A Schur operator's first solve is its LU factorisation and is named so."""
    totals: dict = {}
    for s in spans:
        name = "smoothers.schur_factor" if s.attrs.get("first") else s.name
        key = f"{name}@n={s.n}" if s.n is not None else name
        totals[key] = totals.get(key, 0.0) + s.self_time
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]
