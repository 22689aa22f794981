"""Coarsening-by-three multigrid cycles for the staggered Stokes system.

Levels step down n -> n/3 -> ... -> 3, each carrying a rediscretized saddle
system (mesh size 3h per step).  Coarse unknowns sit exactly on fine unknown
locations; per-field nested offsets below record where the (0, 0) coarse
point lands inside the fine index arrays.  Every transfer kernel is
``outer(w, w)`` for a symmetric 1D stencil ``w``, so a transfer is two strided
1D passes (x, then y): restriction evaluates ``sum_k w[k] f[o + 3I + k]`` at
the nested points only, prolongation scatter-adds ``w[k] c[I]`` around them.
Periodic fields wrap; Dirichlet fields are closed by the transfer folds of
the closure table in ``grid`` (``grid.TRANSFER_FOLDS``), so contributions
reaching across the eliminated normal-velocity wall lines drop out.  The
coarse closure stands in for the fine one because the lattices are nested: a
wall mirror maps coarse points to coarse points (fine pressure index 1
mirrors to -2 = 1 - 3), and 3 divides n for the periodic wrap.

The drivers measure convergence the way the experiments report it: iterate
cycles on a seeded random initial guess with zero right-hand side until the
residual norm falls below 1e-12, then report rho_m = (r_k / r_0)^(1/k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assemble, grid, stencils
from .smoothers import Smoother
from .symbols import RelaxParams
from .twogrid import TransferPair

NESTED_OFFSETS = {
    ("periodic", "u"): (0, 1),
    ("periodic", "v"): (1, 0),
    ("periodic", "p"): (1, 1),
    ("dirichlet", "u"): (2, 1),
    ("dirichlet", "v"): (1, 2),
    ("dirichlet", "p"): (1, 1),
}


def _factor(kernel: np.ndarray) -> np.ndarray:
    """The 1D stencil ``w`` with ``kernel == outer(w, w)``."""
    rows = kernel.sum(axis=1)
    return rows / np.sqrt(rows.sum())


def restrict_field(fine: np.ndarray, w: np.ndarray, offsets, bc: str,
                   signs) -> np.ndarray:
    """Apply ``outer(w, w)`` at the nested points only, one axis at a time."""
    out = grid.pad_field(fine, len(w) // 2, signs, bc)
    for axis, o in enumerate(offsets):
        src = np.moveaxis(out, axis, 0)
        count = len(range(o, fine.shape[axis], 3))
        acc = w[0] * src[o::3][:count]
        for k in range(1, len(w)):
            acc += w[k] * src[o + k :: 3][:count]
        out = np.moveaxis(acc, 0, axis)
    return out


def prolong_field(coarse: np.ndarray, fine_shape, w: np.ndarray,
                  offsets, bc: str, signs) -> np.ndarray:
    """Adjoint pattern, one axis at a time: padded coarse index J adds
    ``w[k] c[J]`` at fine index o - 3 - r + 3J + k, r the stencil radius."""
    out = grid.pad_field(coarse, 1, signs, bc)
    for axis, o in enumerate(offsets):
        shape = list(out.shape)
        shape[axis] = 3 * out.shape[axis] + len(w)
        acc = np.zeros(shape, np.result_type(out, w))
        dst, src = np.moveaxis(acc, axis, 0), np.moveaxis(out, axis, 0)
        for k in range(len(w)):
            dst[k::3][: len(src)] += w[k] * src
        start = 3 + len(w) // 2 - o
        out = np.moveaxis(dst[start : start + fine_shape[axis]], 0, axis)
    return out


def restrict_state(fine: grid.StaggeredState, tag: str) -> grid.StaggeredState:
    w = _factor(stencils.RESTRICTIONS[tag]().kernel())
    nc = fine.n // 3
    shapes = grid.field_shapes(nc, fine.bc)
    out = {}
    for name in ("u", "v", "p"):
        off = NESTED_OFFSETS[(fine.bc, name)]
        out[name] = restrict_field(getattr(fine, name), w, off, fine.bc,
                                   grid.TRANSFER_FOLDS[name])
        if out[name].shape != shapes[name]:
            raise ValueError(f"restricted {name} shape {out[name].shape} != {shapes[name]}")
    return grid.StaggeredState(nc, fine.bc, out["u"], out["v"], out["p"])


def prolong_state(coarse: grid.StaggeredState, n_fine: int) -> grid.StaggeredState:
    if n_fine != 3 * coarse.n:
        raise ValueError("prolongation must step up by exactly one level")
    w = _factor(stencils.p25().kernel())
    shapes = grid.field_shapes(n_fine, coarse.bc)
    out = {
        name: prolong_field(getattr(coarse, name), shapes[name], w,
                            NESTED_OFFSETS[(coarse.bc, name)], coarse.bc,
                            grid.TRANSFER_FOLDS[name])
        for name in ("u", "v", "p")
    }
    return grid.StaggeredState(n_fine, coarse.bc, out["u"], out["v"], out["p"])


class DirectSolver:
    """Exact solve of one level's saddle system.

    Factorizes the assembled operator augmented with its nullspace constraint
    (constant pressure; plus constant velocities under periodic BCs).  For a
    consistent right-hand side the result is the minimum-norm solution; any
    nullspace component of the data is absorbed by the constraint multipliers,
    which is exactly the gauge-projected behavior the cycles need.
    """

    def __init__(self, n: int, bc: str):
        self._solve = assemble.constrained_lu(assemble.assemble_ops(n, bc).saddle,
                                              assemble.nullspace(n, bc))
        self.n = n
        self.bc = bc

    def solve_state(self, rhs: grid.StaggeredState) -> grid.StaggeredState:
        return grid.StaggeredState.from_flat(self._solve(rhs.flat()), self.n, self.bc)


class GridHierarchy:
    """Nested systems from n down to 3, one smoother per level."""

    def __init__(self, n: int, bc: str, params: RelaxParams,
                 transfer: TransferPair = TransferPair("r9")):
        grid.check_size(n)
        sizes = [n]
        while sizes[-1] > 3:
            sizes.append(sizes[-1] // 3)
        self.sizes = sizes
        self.bc = bc
        self.params = params
        self.transfer = transfer
        self.systems = [grid.build_system(m, bc) for m in sizes]
        self.smoothers = [Smoother(s, params) for s in self.systems]
        self._direct: dict[int, DirectSolver] = {}

    @property
    def levels(self) -> int:
        return len(self.sizes)

    def direct(self, level: int) -> DirectSolver:
        if level not in self._direct:
            self._direct[level] = DirectSolver(self.sizes[level], self.bc)
        return self._direct[level]


def _descend(hier: GridHierarchy, level: int, state: grid.StaggeredState,
             rhs: grid.StaggeredState, nu1: int, nu2: int, solve_level: int) -> None:
    if level == solve_level:
        exact = hier.direct(level).solve_state(rhs)
        state.u[:] = exact.u
        state.v[:] = exact.v
        state.p[:] = exact.p
        return
    sm = hier.smoothers[level]
    for _ in range(nu1):
        sm.sweep(state, rhs)
    resid = hier.systems[level].residual(state, rhs)
    coarse_rhs = restrict_state(resid, hier.transfer.restrict)
    coarse = grid.StaggeredState.zeros(hier.sizes[level + 1], hier.bc,
                                       dtype=state.u.dtype)
    _descend(hier, level + 1, coarse, coarse_rhs, nu1, nu2, solve_level)
    state.add_scaled(prolong_state(coarse, hier.sizes[level]), 1.0)
    for _ in range(nu2):
        sm.sweep(state, rhs)


def two_grid_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One two-grid cycle in place: smooth, exact next-level solve, correct."""
    if hier.levels < 2:
        raise ValueError("two-grid cycle needs at least two levels")
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=1)


def v_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One V-cycle in place, recursing to the 3x3 grid's direct solve."""
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=hier.levels - 1)


@dataclass
class ConvergenceReport:
    """Residual history of a measured run and its convergence factor."""

    residual_norms: list[float]
    iterations: int
    rho_m: float
    converged: bool
    diverged: bool
    config: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "converged" if self.converged else ("diverged" if self.diverged else "max-iters")
        return (f"k={self.iterations} rho_m={self.rho_m:.4f} "
                f"r0={self.residual_norms[0]:.3e} rk={self.residual_norms[-1]:.3e} [{status}]")


def solve(hier: GridHierarchy, nu1: int, nu2: int, cycle: str = "v",
          rhs: grid.StaggeredState | None = None, max_iters: int = 200,
          tol: float = 1e-12, seed: int = 0) -> ConvergenceReport:
    """Iterate cycles from a seeded random start until the residual reaches tol.

    With the default zero right-hand side the exact solution is zero, the
    state is the error, and rho_m estimates the cycle's convergence factor.
    """
    if cycle not in ("v", "two"):
        raise ValueError(f"cycle must be 'v' or 'two', got {cycle!r}")
    step = v_cycle if cycle == "v" else two_grid_cycle
    n = hier.sizes[0]
    state = grid.random_state(n, hier.bc, seed=seed)
    if rhs is None:
        rhs = grid.StaggeredState.zeros(n, hier.bc)
    system = hier.systems[0]
    r0 = system.residual(state, rhs).norm()
    norms = [r0]
    converged = diverged = False
    k = 0
    while k < max_iters:
        step(hier, state, rhs, nu1, nu2)
        grid.project_gauge(state)
        k += 1
        rk = system.residual(state, rhs).norm()
        norms.append(rk)
        if not np.isfinite(rk) or rk > 1e6 * r0:
            diverged = True
            break
        if rk <= tol:
            converged = True
            break
    rho = float((norms[-1] / r0) ** (1.0 / k)) if k else float("nan")
    p = hier.params
    config = {
        "n": n, "bc": hier.bc, "cycle": cycle, "nu1": nu1, "nu2": nu2,
        "scheme": p.scheme, "omega": p.omega, "alpha": p.alpha,
        "sigma": p.sigma, "omega_j": p.omega_j,
        "restrict": hier.transfer.restrict, "prolong": hier.transfer.prolong,
        "seed": seed, "tol": tol, "max_iters": max_iters,
    }
    return ConvergenceReport(norms, k, rho, converged, diverged, config)


def asymptotic_factor(hier: GridHierarchy, nu1: int, nu2: int, cycle: str = "two",
                      iters: int = 360, window: int = 60, seed: int = 0) -> float:
    """Asymptotic per-cycle error contraction by renormalized power iteration.

    Applies the cycle to the homogeneous problem, rescaling the state to unit
    norm each step so the iteration never hits the floating point floor.  The
    estimate is the geometric mean of the last ``window`` contraction ratios,
    which rides out oscillations from complex or clustered eigenvalues.
    """
    if cycle not in ("v", "two"):
        raise ValueError(f"cycle must be 'v' or 'two', got {cycle!r}")
    step = v_cycle if cycle == "v" else two_grid_cycle
    n = hier.sizes[0]
    state = grid.random_state(n, hier.bc, seed=seed)
    rhs = grid.StaggeredState.zeros(n, hier.bc)
    grid.project_gauge(state)
    scale = state.norm()
    for f in (state.u, state.v, state.p):
        f /= scale
    ratios = []
    for _ in range(iters):
        step(hier, state, rhs, nu1, nu2)
        grid.project_gauge(state)
        nrm = state.norm()
        ratios.append(nrm)
        if nrm == 0.0 or not np.isfinite(nrm):
            return float(nrm)
        for f in (state.u, state.v, state.p):
            f /= nrm
    tail = np.array(ratios[-window:])
    return float(np.exp(np.mean(np.log(tail))))


def assemble_two_grid_matrix(n: int, params: RelaxParams, transfer: TransferPair,
                             nu1: int, nu2: int, bc: str = "periodic") -> np.ndarray:
    """Dense error-propagation matrix of one two-grid cycle, by column probing.

    Applies the cycle with zero right-hand side to every unit-error state, so
    column j is the propagated error of basis vector j.  Guarded to tiny grids.
    """
    if n > 9:
        raise ValueError("brute-force matrix oracle is limited to n <= 9")
    hier = GridHierarchy(n, bc, params, transfer)
    rhs = grid.StaggeredState.zeros(n, bc)
    size = rhs.flat().size
    mat = np.empty((size, size))
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        st = grid.StaggeredState.from_flat(e, n, bc)
        two_grid_cycle(hier, st, rhs, nu1, nu2)
        mat[:, j] = st.flat()
    return mat


def projected_spectral_radius(mat: np.ndarray, n: int, bc: str) -> float:
    """Spectral radius with the operator nullspace (fixed modes) projected out."""
    ns = assemble.nullspace(n, bc)
    proj = np.eye(mat.shape[0]) - ns @ ns.T
    return float(np.abs(np.linalg.eigvals(proj @ mat @ proj)).max())
