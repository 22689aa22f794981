"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload makes one layer of mac3mg do nearly all the work:

* ``vcycle-729``: matrix-free finest-level work (``grid``, ``smoothers`` and
  the ``multigrid`` transfers) in V(2,0) cycles at n = 729;
* ``exact-243``: sparse assembly and LU (``assemble``, ``SchurOperator``,
  ``DirectSolver``) behind a ``qbsr`` V-cycle solve and a ``qibsr`` two-grid
  solve at n = 243;
* ``lfa-81``: batched 27x27 symbol work (``symbols``, ``twogrid``) in the
  sixteen two-grid factor tables and four lattice factors at resolution 81.

Set-up builds the inputs and then runs one warm-up operation (a cycle on a
zero state; one table and one lattice factor for the LFA), so whatever the
program builds lazily on first use (the Schur operators, their LU factors,
the coarse direct solvers) is built before the pass clock starts and is
counted in set-up time.  A pass is the workload's fixed list of
operations; its outputs are checked after the clock stops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from mac3mg import assemble, grid, multigrid, symbols, twogrid
from mac3mg.stencils import RESTRICTIONS
from mac3mg.symbols import SCHEMES, reference_params
from mac3mg.twogrid import TransferPair

NU1, NU2 = 2, 0
TRANSFER = "p25t"

VCYCLE_N = 729
VCYCLE_CYCLES = 12
VCYCLE_CONFIGS = tuple((scheme, bc) for bc in ("dirichlet", "periodic")
                       for scheme in ("qdr", "qibsr", "quzawa"))

EXACT_N = 243
EXACT_SOLVES = (("qbsr", "v"), ("qibsr", "two"))

LFA_RESOLUTION = 81
LFA_NUS = (1, 2, 3, 4)
LFA_LATTICE_NU = (1, 0)
# harmonic unknowns per frequency sample: nine harmonics times (u, v, p)
LFA_SYMBOL_SIZE = 27

# tolerances of the output checks against the stored seed-commit values
HISTORY_RTOL = 1e-6
ORACLE_RTOL = 1e-9
RHO_RTOL = 1e-4
LFA_ATOL = 1e-7


def unknowns(n: int, bc: str) -> int:
    return sum(a * b for a, b in grid.field_shapes(n, bc).values())


@dataclass
class PassResult:
    """What one pass did: per-operation times and the outputs to check."""

    wall_s: float = 0.0
    op_times: list = field(default_factory=list)
    dof_work: float = 0.0  # unknowns touched, summed over timed operations
    dof_time: float = 0.0  # time of those operations
    outputs: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)


def _time_call(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _warm_up(hier: multigrid.GridHierarchy, cycle: str) -> None:
    """One cycle on a zero state: forces every lazy build the cycles use."""
    n = hier.sizes[0]
    state = grid.StaggeredState.zeros(n, hier.bc)
    rhs = grid.StaggeredState.zeros(n, hier.bc)
    step = multigrid.v_cycle if cycle == "v" else multigrid.two_grid_cycle
    step(hier, state, rhs, NU1, NU2)


class _CycleClock:
    """Times each top-level cycle that ``multigrid.solve`` runs.

    ``solve`` looks its step function up in the module at call time, so a
    wrapper set on the module attribute sees every cycle.  Two clock reads per
    cycle (about a microsecond against cycles of milliseconds) is its cost.
    """

    def __init__(self):
        self.times = []

    def __enter__(self):
        self._orig = {name: getattr(multigrid, name) for name in ("v_cycle", "two_grid_cycle")}
        for name, fn in self._orig.items():
            setattr(multigrid, name, self._timed(fn))
        return self

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - t0)
        return timed

    def __exit__(self, *exc):
        for name, fn in self._orig.items():
            setattr(multigrid, name, fn)
        return False


def _matrix_free_residual(state: grid.StaggeredState) -> np.ndarray:
    """Residual of ``state`` for a zero right-hand side, as the cycles see it."""
    return grid.build_system(state.n, state.bc).residual(state, None).flat()


def _close(got: float, want: float, rtol: float) -> bool:
    return bool(np.isfinite(got) and abs(got - want) <= rtol * abs(want))


class VCycle729:
    name = "vcycle-729"
    finest = VCYCLE_N
    setup_repeats = 1
    min_passes = 2

    def setup(self):
        hiers = {}
        for scheme, bc in VCYCLE_CONFIGS:
            hier = multigrid.GridHierarchy(VCYCLE_N, bc, reference_params(scheme, "measured"),
                                           TransferPair(TRANSFER))
            _warm_up(hier, "v")
            hiers[(scheme, bc)] = hier
        return hiers

    def run_pass(self, hiers, seed: int) -> PassResult:
        res = PassResult()
        t_pass = time.perf_counter()
        for (scheme, bc), hier in hiers.items():
            res.attempted += 1
            try:
                state = grid.random_state(VCYCLE_N, bc, seed=seed)
                rhs = grid.StaggeredState.zeros(VCYCLE_N, bc)
                system = hier.systems[0]
                norms = [system.residual(state, rhs).norm()]
                for _ in range(VCYCLE_CYCLES):
                    _, dt = _time_call(multigrid.v_cycle, hier, state, rhs, NU1, NU2)
                    res.op_times.append(dt)
                    res.dof_time += dt
                    res.dof_work += unknowns(VCYCLE_N, bc)
                    grid.project_gauge(state)
                    norms.append(system.residual(state, rhs).norm())
            except Exception as exc:  # a failed operation is counted, not fatal
                res.errors.append(f"{scheme}/{bc}: {type(exc).__name__}: {exc}")
                continue
            res.outputs.append({"config": f"{scheme}/{bc}", "bc": bc, "norms": norms,
                                "state": state})
        res.wall_s = time.perf_counter() - t_pass
        return res

    def check(self, res: PassResult, seed: int, reference: dict) -> list:
        """Final residual against the assembled oracle; history against the
        stored seed-commit history, or for a seed without one, the reduction
        against the band of the shipped seeds.  Returns (config, problem)."""
        problems = []
        ref_seeds = reference.get(self.name, {})
        saddles = {}
        for out in res.outputs:
            cfg, norms, state = out["config"], np.asarray(out["norms"]), out["state"]
            if not np.all(np.isfinite(norms)) or norms[-1] > 1e6 * norms[0]:
                problems.append((cfg, f"diverged, history {norms.tolist()}"))
                continue
            if out["bc"] not in saddles:
                saddles[out["bc"]] = assemble.assemble_ops(VCYCLE_N, out["bc"]).saddle
            oracle = -(saddles[out["bc"]] @ state.flat())
            oracle_norm = float(np.linalg.norm(oracle))
            if np.linalg.norm(_matrix_free_residual(state) - oracle) > ORACLE_RTOL * oracle_norm:
                problems.append((cfg, "matrix-free residual differs from the assembled oracle"))
            if not _close(norms[-1], oracle_norm, ORACLE_RTOL):
                problems.append((cfg, f"final residual {norms[-1]:.6e} != oracle "
                                      f"{oracle_norm:.6e}"))
            want = ref_seeds.get(str(seed), {}).get(cfg)
            if want is not None:
                if len(want) != len(norms) or not np.allclose(norms, want, rtol=HISTORY_RTOL,
                                                              atol=0):
                    problems.append((cfg, f"history differs from the seed-{seed} reference"))
                continue
            drops = [hist[cfg][-1] / hist[cfg][0] for hist in ref_seeds.values() if cfg in hist]
            drop = norms[-1] / norms[0]
            if not drops or not 0.5 * min(drops) <= drop <= 2.0 * max(drops):
                problems.append((cfg, f"reduction {drop:.3e} outside the shipped seeds' band"))
        return problems

    def record(self, res: PassResult) -> dict:
        return {out["config"]: out["norms"] for out in res.outputs}


class Exact243:
    name = "exact-243"
    finest = EXACT_N
    setup_repeats = 1
    min_passes = 1

    def setup(self):
        hiers = {}
        for scheme, cycle in EXACT_SOLVES:
            hier = multigrid.GridHierarchy(EXACT_N, "dirichlet",
                                           reference_params(scheme, "measured"),
                                           TransferPair(TRANSFER))
            _warm_up(hier, cycle)
            hiers[(scheme, cycle)] = hier
        return hiers

    def run_pass(self, hiers, seed: int) -> PassResult:
        res = PassResult()
        t_pass = time.perf_counter()
        for (scheme, cycle), hier in hiers.items():
            res.attempted += 1
            try:
                with _CycleClock() as clock:
                    report = multigrid.solve(hier, NU1, NU2, cycle=cycle, seed=seed)
            except Exception as exc:
                res.errors.append(f"{scheme}-{cycle}: {type(exc).__name__}: {exc}")
                continue
            times = clock.times
            # the qbsr V-cycle is the workload's iteration; the qibsr two-grid
            # cycles are ten times cheaper and would split the median in two
            if scheme == "qbsr":
                res.op_times.extend(times)
            res.dof_time += sum(times)
            res.dof_work += unknowns(EXACT_N, "dirichlet") * len(times)
            res.outputs.append({"solve": f"{scheme}-{cycle}", "report": report})
        res.wall_s = time.perf_counter() - t_pass
        return res

    def check(self, res: PassResult, seed: int, reference: dict) -> list:
        """Each solve starts from the residual the assembled oracle gives for
        the seeded start, and converges with the seed commit's iteration count
        and rho_m, or for a seed without stored values, inside their band over
        the shipped seeds.  Returns (solve, problem) pairs."""
        problems = []
        ref_seeds = reference.get(self.name, {})
        start = grid.random_state(EXACT_N, "dirichlet", seed=seed).flat()
        r0 = float(np.linalg.norm(assemble.assemble_ops(EXACT_N, "dirichlet").saddle @ start))
        for out in res.outputs:
            key, rep = out["solve"], out["report"]
            if not _close(rep.residual_norms[0], r0, ORACLE_RTOL):
                problems.append((key, f"r0 {rep.residual_norms[0]:.9e} != oracle {r0:.9e}"))
            if not rep.converged:
                problems.append((key, rep.summary()))
                continue
            want = ref_seeds.get(str(seed), {}).get(key)
            if want is not None:
                if (rep.iterations != want["iterations"]
                        or not _close(rep.rho_m, want["rho_m"], RHO_RTOL)):
                    problems.append((key, f"k={rep.iterations} rho_m={rep.rho_m:.6f}, seed commit "
                                          f"k={want['iterations']} rho_m={want['rho_m']:.6f}"))
                continue
            refs = [hist[key] for hist in ref_seeds.values() if key in hist]
            ks = [r["iterations"] for r in refs]
            rhos = [r["rho_m"] for r in refs]
            if not refs or not (min(ks) - 1 <= rep.iterations <= max(ks) + 1
                                and 0.95 * min(rhos) <= rep.rho_m <= 1.05 * max(rhos)):
                problems.append((key, f"k={rep.iterations} rho_m={rep.rho_m:.6f} outside the band "
                                      f"of the shipped seeds"))
        return problems

    def record(self, res: PassResult) -> dict:
        return {out["solve"]: {"iterations": out["report"].iterations,
                               "rho_m": out["report"].rho_m,
                               "converged": out["report"].converged}
                for out in res.outputs}


class Lfa81:
    name = "lfa-81"
    finest = None
    setup_repeats = 2
    min_passes = 2

    def setup(self):
        inputs = {
            "tables": [(scheme, tag, reference_params(scheme), TransferPair(tag))
                       for scheme in SCHEMES for tag in RESTRICTIONS],
            "lattice": [(scheme, reference_params(scheme, "measured"), TransferPair(TRANSFER))
                        for scheme in SCHEMES],
            "samples": len(symbols.low_freq_samples(LFA_RESOLUTION)),
        }
        # the LFA entry points keep no state, so their warm-up is one call of
        # each: first-call costs, and anything a later change caches on first
        # use, are paid here as the warm-up cycle pays them on the grid side
        _, _, params, pair = inputs["tables"][0]
        twogrid.two_grid_factor_table(params, pair, nus=LFA_NUS, n=LFA_RESOLUTION,
                                      h=1.0 / LFA_RESOLUTION)
        _, params, pair = inputs["lattice"][0]
        twogrid.periodic_lattice_factor(params, pair, *LFA_LATTICE_NU, n=LFA_RESOLUTION)
        return inputs

    def run_pass(self, inputs, seed: int) -> PassResult:
        res = PassResult()
        t_pass = time.perf_counter()
        h = 1.0 / LFA_RESOLUTION
        for scheme, tag, params, pair in inputs["tables"]:
            res.attempted += 1
            try:
                table, dt = _time_call(twogrid.two_grid_factor_table, params, pair,
                                       nus=LFA_NUS, n=LFA_RESOLUTION, h=h)
            except Exception as exc:
                res.errors.append(f"table {scheme}/{tag}: {type(exc).__name__}: {exc}")
                continue
            res.op_times.append(dt)
            res.dof_time += dt
            res.dof_work += LFA_SYMBOL_SIZE * inputs["samples"]
            res.outputs.append({"key": f"table/{scheme}/{tag}", "value": table})
        nu1, nu2 = LFA_LATTICE_NU
        for scheme, params, pair in inputs["lattice"]:
            res.attempted += 1
            try:
                rho = twogrid.periodic_lattice_factor(params, pair, nu1, nu2, n=LFA_RESOLUTION)
            except Exception as exc:
                res.errors.append(f"lattice {scheme}: {type(exc).__name__}: {exc}")
                continue
            res.outputs.append({"key": f"lattice/{scheme}", "value": {"rho": rho}})
        res.wall_s = time.perf_counter() - t_pass
        return res

    def check(self, res: PassResult, seed: int, reference: dict) -> list:
        """The factors do not depend on the seed: compare with the stored
        seed-commit values.  Returns (table or lattice, problem) pairs."""
        problems = []
        ref = reference.get(self.name, {})
        for out in res.outputs:
            key, want = out["key"], ref.get(out["key"])
            if want is None:
                problems.append((key, "no stored reference value"))
                continue
            for k, v in out["value"].items():
                if not (np.isfinite(v) and abs(v - want[str(k)]) <= LFA_ATOL):
                    problems.append((key, f"[{k}] = {v:.10f}, seed commit {want[str(k)]:.10f}"))
        return problems

    def record(self, res: PassResult) -> dict:
        return {out["key"]: {str(k): v for k, v in out["value"].items()} for out in res.outputs}


WORKLOADS = {w.name: w for w in (VCycle729(), Exact243(), Lfa81())}
