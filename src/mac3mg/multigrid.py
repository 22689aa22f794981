"""Coarsening-by-three multigrid cycles for the staggered Stokes system.

Levels step down n -> n/3 -> ... -> 3, each carrying a rediscretized saddle
system (mesh size 3h per step).  Coarse unknowns sit exactly on fine unknown
locations; per-field nested offsets below record where the (0, 0) coarse
point lands inside the fine index arrays.  Every transfer is stored as the
even 1D weight vector ``w`` of ``stencils`` (its 2D kernel is ``outer(w, w)``),
and applied as two 1D matrices: a restriction is ``A_x F A_y^T``, evaluating
``sum_k w[k] f[o + 3I + k]`` at the nested points only, and a prolongation
adds ``A_x C A_y^T``, scattering ``w[k] c[I]`` around them.  One pass builds
every matrix: it scatters ``w`` over a coarse identity closed by
``grid.pad_field``, transposed for a restriction as the lattices are nested,
so the wall folds keep one definition.  Each is built once per transfer,
boundary, fold sign, offset and length, and shared by every hierarchy.  Up to
``DENSE_MAX`` fine points per side the matrices are dense ndarrays, and above
it CSR arrays with at most 5 nonzeros per row; the input size picks the
representation, and one expression applies both.
Periodic fields wrap; Dirichlet fields are closed by the transfer folds of
the closure table in ``grid`` (``grid.TRANSFER_FOLDS``), so contributions
reaching across the eliminated normal-velocity wall lines drop out.  The
coarse closure stands in for the fine one because the lattices are nested: a
wall mirror maps coarse points to coarse points (fine pressure index 1
mirrors to -2 = 1 - 3), and 3 divides n for the periodic wrap.

After its first call a cycle keeps no per-transfer work arrays: each level's
residual, coarse data and coarse state, and every sweep temporary, are work
arrays of that level's ``SaddleSystem`` (roles in ``grid.Workspace``), shared
with every system of its size in the thread.  A prolongation applies ``A_y``
first and adds ``A_x`` times that in row blocks (``_row_blocks``), three
above ``DENSE_MAX``, where no transient temporary of a transfer is then
larger than a third of a fine field.
The cycle computes every residual and a sweep only applies its correction
map to the one it is given.  Each coarse level starts from a zero guess
(Trottenberg, Oosterlee and Schueller, *Multigrid*, 2001), so its first
residual is the restricted one, and no residual is computed for it.
The coarsest level is solved exactly by ``DirectSolver``: separable solves
by fast transforms of the saddle system with a Neumann tangential ghost,
whose velocity Laplacian commutes with the gradient, corrected on the 4(n-1)
wall rows by a capacitance matrix (Buzbee, Dorr, George and Golub, 1971).

``solve`` measures convergence the way the experiments report it: iterate
cycles on a seeded random initial guess with zero right-hand side until the
residual norm falls below 1e-12, then report rho_m = (r_k / r_0)^(1/k).
``cycle_operator`` is one such cycle, gauge projected, as a scipy
``LinearOperator``; ``cycle_spectral_radius`` takes its spectral radius by
Arnoldi (ARPACK, Lehoucq, Sorensen and Yang, 1998), and
``assemble_two_grid_matrix`` its dense matrix on tiny grids.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
from scipy import sparse

from . import grid, stencils
from .smoothers import SeparableInverse, Smoother, lap1_eig, transform
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


# the largest fine grid whose 1D transfer matrices are dense ndarrays; above
# it they are CSR (see the README's transfer paragraph)
DENSE_MAX = 81


def _prolong_pass(s: np.ndarray, d: np.ndarray, w: np.ndarray, o: int) -> np.ndarray:
    """Along axis 0, padded coarse index J adds ``w[k] s[J]`` to fine index
    ``3J + k - (3 + r - o)``, r the stencil radius, where that index exists."""
    start = 3 + len(w) // 2 - o
    for k in range(len(w)):
        j0 = max(0, -((k - start) // 3))  # first J landing at index >= 0
        i0 = 3 * j0 + k - start
        count = min(len(range(i0, len(d), 3)), len(s) - j0)
        d[i0::3][:count] += s[j0 : j0 + count] * w[k]
    return d


# bounded: 5 transfers x 5 (bc, sign, offset) closures x the level sizes
@functools.lru_cache(maxsize=None)
def _matrix(tag: str, bc: str, sign, o: int, fine: int, coarse: int):
    """The read-only 1D matrix of restriction ``tag`` (or "p25") along an axis
    of ``fine`` points whose nested offset is ``o``: the scatter of its weights
    over a coarse identity closed by ``grid.pad_field``, the one wall fold, and
    for a restriction the transpose of that scatter.  Dense up to
    ``DENSE_MAX`` fine points, CSR above (at most 5 nonzeros per row)."""
    w = stencils.P25 if tag == "p25" else stencils.RESTRICTIONS[tag]
    closed = grid.pad_field(np.eye(coarse), 1, (sign, sign), bc)[:, 1 : 1 + coarse]
    a = _prolong_pass(closed, np.zeros((fine, coarse)), w, o)
    if tag != "p25":
        a = np.ascontiguousarray(a.T)
    if fine > DENSE_MAX:
        a = sparse.csr_array(a)
        arrays = (a.data, a.indices, a.indptr)
    else:
        arrays = (a,)
    for x in arrays:
        x.flags.writeable = False
    return a


# cached too: rebuilt per field and call, the pair took 3 us, half a 9 x 9 transfer
@functools.lru_cache(maxsize=None)
def _transfer_matrices(tag: str, n: int, bc: str, name: str) -> tuple:
    """``(A_x, A_y)`` of restriction ``tag`` (or "p25") of field ``name`` from
    grid n, so that the coarse field is ``A_x F A_y^T`` (the fine one, for
    "p25").  Periodic axes share their matrices whatever the fold sign."""
    fine, coarse = grid.field_shapes(n, bc)[name], grid.field_shapes(n // 3, bc)[name]
    return tuple(_matrix(tag, bc, grid.TRANSFER_FOLDS[name][axis] if bc == "dirichlet" else None,
                         NESTED_OFFSETS[(bc, name)][axis], fine[axis], coarse[axis])
                 for axis in range(2))


def restrict_state(fine: grid.StaggeredState, tag: str,
                   out: grid.StaggeredState) -> grid.StaggeredState:
    """Restriction ``tag`` of a fine state, into the coarse state ``out``."""
    for name in ("u", "v", "p"):
        ax, ay = _transfer_matrices(tag, fine.n, fine.bc, name)
        getattr(out, name)[...] = (ay @ (ax @ getattr(fine, name)).T).T
    return out


@functools.lru_cache(maxsize=None)
def _row_blocks(n: int, bc: str, name: str) -> tuple:
    """``(lo, hi, rows lo:hi of A_x)`` of the p25 prolongation of field
    ``name`` onto grid n, read-only: the one block ``A_x`` up to ``DENSE_MAX``,
    where a block costs more in calls than it saves, and three CSR row blocks
    above."""
    ax = _transfer_matrices("p25", n, bc, name)[0]
    if n <= DENSE_MAX:
        return ((0, ax.shape[0], ax),)
    blocks = tuple((lo, hi, ax[lo:hi]) for lo, hi in grid.cuts(ax.shape[0], 3))
    for _, _, b in blocks:
        for x in (b.data, b.indices, b.indptr):
            x.flags.writeable = False
    return blocks


def prolong_state(coarse: grid.StaggeredState, n_fine: int,
                  add_to: grid.StaggeredState) -> grid.StaggeredState:
    """The p25 prolongation of a coarse state, added to the fine state
    ``add_to``.  It applies ``A_y`` first and adds ``A_x`` times that
    in the row blocks of ``_row_blocks``, so no add is strided, and above
    ``DENSE_MAX`` no temporary is as large as a fine field."""
    if n_fine != 3 * coarse.n:
        raise ValueError("prolongation must step up by exactly one level")
    for name in ("u", "v", "p"):
        ay = _transfer_matrices("p25", n_fine, coarse.bc, name)[1]
        a = getattr(add_to, name)
        t = (ay @ getattr(coarse, name).T).T.copy()
        for lo, hi, block in _row_blocks(n_fine, coarse.bc, name):
            a[lo:hi] += block @ t
        del t  # else it lives on beside the next field's two temporaries
    return add_to


class DirectSolver:
    """Exact solve of one level's saddle system ``M = [[A, B^T], [B, 0]]`` by
    a capacitance matrix on the wall rows (Buzbee, Dorr, George and Golub,
    *SIAM J. Numer. Anal.* 8, 1971).

    Per axis the edge factor of ``A`` is ``D D^T`` (``D`` the 1D difference)
    and, read with the Neumann tangential ghost +1, the tangential one is
    ``D^T D``; as ``(D D^T) D = D (D^T D)``, that ``A_N`` commutes with the
    gradient, ``A_N B^T = B^T L_p`` with ``L_p = B B^T``.  So
    ``M_N = [[A_N, B^T], [B, 0]]`` is solved exactly by ``p = L_p^+ B f - g``
    (mean removed) and ``u = A_N^+ (f - B^T p)``: three ``SeparableInverse``
    solves by the edge (DST-I) and Neumann (DCT-II) transforms of ``lap1_eig``.
    The true ghost -1 makes ``M = M_N + (2/h^2) R^T R``, ``R`` picking the
    m = 4(n-1) tangential velocities next to a wall (``_walls``), so
    ``x = M_N^+ (r - R^T z)`` with ``K z = R M_N^+ r`` for the symmetric
    positive definite ``K = (h^2/2) I + R (A_N^+ - B^T L_p^+2 B) R^T``, kept
    as its Cholesky factor.  A periodic grid has no walls (m = 0).

    The data's nullspace components (mean pressure; mean velocities under
    periodic BCs) are dropped and the result has none: the gauge-projected
    solution the cycles need.  The data are scaled by the power of two that
    brings their largest entry to [1/2, 1), and the result back: exact, and
    nothing under- or overflows for data from 1e-300 to 1e300.
    """

    def __init__(self, n: int, bc: str):
        self.n = n
        self.bc = bc
        self.system = grid.SaddleSystem(n, bc)
        h, periodic = 1.0 / n, bc == "periodic"
        # periodic: one circulant on every axis, and the velocity solves are singular
        edge = lap1_eig(self.system.shapes["u"][0], h, bc)
        neu = edge if periodic else lap1_eig(n, h, bc, 1.0)  # D^T D
        self._inv_u = SeparableInverse(edge, neu, 1.0, periodic)
        self._inv_v = SeparableInverse(neu, edge, 1.0, periodic)
        self._inv_p = SeparableInverse(neu, neu, 1.0, True)
        if periodic:
            self._walls, self._chol = (), None
        else:
            self._walls = (("u", np.s_[:, 0]), ("u", np.s_[:, -1]), ("v", np.s_[0]),
                           ("v", np.s_[-1]))
            self._edge = edge  # (lambda, kind)
            self._chol = scipy.linalg.cho_factor(self._capacitance(), overwrite_a=True)

    def _capacitance(self) -> np.ndarray:
        """``K`` in ``_walls`` order from the edge pairs ``(lambda, Ve)`` and
        the Neumann eigenvectors ``C`` (row a ``c_a``).  The 1D difference maps
        column k >= 1 of ``C`` to ``-lambda_k^(1/2) Ve_k`` and the constant to
        0, so with ``W_A``, ``W_2`` the weights of ``A_N^+`` and ``L_p^+2`` and
        ``L = diag(lambda^(1/2))``, walls a, a' of one component give
        ``Ve diag(W_A c_a c_a' - lambda (W_2 c_a c_a')_(k>=1)) Ve^T``, and u's
        wall a against v's wall b ``-Ve L (c_b W_2 c_a)_(k,l>=1) L Ve^T``,
        each ``Ve X Ve^T`` two transforms.  Probing K would cost 4 GFlop at 81."""
        (lam, kind), h = self._edge, 1.0 / self.n
        cw = transform(np.eye(self.n)[[0, -1]], self._inv_p.kinds[:1], False)
        w2 = self._inv_p.inv**2
        pairs = cw[[0, 0, 1]] * cw[[0, 1, 1]]
        weights = pairs @ self._inv_u.inv.T - lam * (pairs @ w2)[:, 1:]
        same = transform(weights[:, :, None] * np.eye(len(lam)), (kind, kind), True)
        root, cw = np.sqrt(lam), cw[:, 1:]
        cross = -transform(cw[None, :, :, None] * w2[1:, 1:] * cw[:, None, None, :]
                           * root[:, None] * root, (kind, kind), True)

        def tile(blocks):  # (2, 2, m, m) blocks as one (2m, 2m) matrix
            return blocks.swapaxes(1, 2).reshape(2 * len(lam), -1)

        one, cross = tile(same[[[0, 1], [1, 2]]]), tile(cross)
        k = np.block([[one, cross], [cross.T, one]])
        k[np.diag_indices_from(k)] += h * h / (1.0 - grid.VELOCITY_GHOST)
        return k

    def _commuting(self, f: grid.StaggeredState, out: grid.StaggeredState) -> None:
        """The solution of ``M_N x = f``, into ``out``."""
        sysm = self.system
        p = self._inv_p(sysm.neg_div(f.u, f.v, out=out.p), out=out.p)
        p -= f.p
        p -= p.mean()
        gu, gv = sysm.grad(p, out=(out.u, out.v))
        self._inv_u(np.subtract(f.u, gu, out=gu), out=out.u)
        self._inv_v(np.subtract(f.v, gv, out=gv), out=out.v)

    def solve_state(self, rhs: grid.StaggeredState,
                    out: grid.StaggeredState) -> grid.StaggeredState:
        """The gauge-projected solution for ``rhs``, into ``out``."""
        top = max(np.abs(x).max() for x in (rhs.u, rhs.v, rhs.p))
        e = min(max(int(np.frexp(top)[1]), -1021), 1023)
        f = grid.StaggeredState(self.n, self.bc, *(x * np.ldexp(1.0, -e) for x in
                                                   (rhs.u, rhs.v, rhs.p)))
        self._commuting(f, out)
        if self._walls:
            # non-finite data (a diverging cycle) pass through as NaN
            z = scipy.linalg.cho_solve(self._chol, np.concatenate(
                [getattr(out, name)[wall] for name, wall in self._walls]), check_finite=False)
            for (name, wall), zw in zip(self._walls, z.reshape(len(self._walls), -1)):
                getattr(f, name)[wall] -= zw
            self._commuting(f, out)
        # a diverging cycle's solution may overflow when scaled back; the
        # run's own residual check reports the divergence
        with np.errstate(over="ignore"):
            for x in (out.u, out.v, out.p):
                x *= np.ldexp(1.0, e)
        return out


class GridHierarchy:
    """Nested systems from n down to 3, one smoother per level."""

    def __init__(self, n: int, bc: str, params: RelaxParams, transfer: TransferPair):
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
    """One cycle from ``level`` down, in place.  Each sweep is given the
    residual computed into the level's ``r`` work state.  Below the finest
    level the state is zero-filled (a coarse level's first guess), so the
    first residual is ``rhs`` itself and none is computed for it."""
    if min(nu1, nu2) < 0:
        raise ValueError(f"smoothing counts must be >= 0, got nu1={nu1}, nu2={nu2}")
    if level == solve_level:
        hier.direct(level).solve_state(rhs, out=state)
        return
    # the residual, coarse data and coarse state are the levels' work arrays
    system, below = hier.systems[level], hier.systems[level + 1]
    dtype = state.u.dtype
    sm = hier.smoothers[level]
    r = system.work_state("r", dtype)
    if level > 0:
        for f in (state.u, state.v, state.p):
            f.fill(0.0)
    for i in range(nu1):
        sm.sweep(state, rhs if level > 0 and i == 0 else system.residual(state, rhs, out=r))
    system.residual(state, rhs, out=r)
    coarse_rhs = restrict_state(r, hier.transfer.restrict, out=below.work_state("f", dtype))
    coarse = below.work_state("x", dtype)
    _descend(hier, level + 1, coarse, coarse_rhs, nu1, nu2, solve_level)
    prolong_state(coarse, hier.sizes[level], add_to=state)
    for _ in range(nu2):
        sm.sweep(state, system.residual(state, rhs, out=r))


def two_grid_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One two-grid cycle in place: smooth, exact next-level solve, correct."""
    if hier.levels < 2:
        raise ValueError("two-grid cycle needs at least two levels")
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=1)


def v_cycle(hier: GridHierarchy, state, rhs, nu1: int, nu2: int) -> None:
    """One V-cycle in place, recursing to the 3x3 grid's direct solve."""
    _descend(hier, 0, state, rhs, nu1, nu2, solve_level=hier.levels - 1)


def _cycle(name: str):
    """The cycle called ``name``, for ``solve`` and ``cycle_operator``."""
    cycles = {"v": v_cycle, "two": two_grid_cycle}
    if name not in cycles:
        raise ValueError(f"cycle must be 'v' or 'two', got {name!r}")
    return cycles[name]


@dataclass
class ConvergenceReport:
    """Residual history of a measured run and its convergence factor."""

    residual_norms: list[float]
    iterations: int
    rho_m: float
    converged: bool
    diverged: bool
    config: dict

    @property
    def status(self) -> str:
        """How the run ended: ``converged``, ``diverged`` or ``maxiter``."""
        return "diverged" if self.diverged else ("converged" if self.converged else "maxiter")

    def summary(self) -> str:
        return (f"k={self.iterations} rho_m={self.rho_m:.4f} r0={self.residual_norms[0]:.3e} "
                f"rk={self.residual_norms[-1]:.3e} [{self.status}]")


def solve(hier: GridHierarchy, nu1: int, nu2: int, cycle: str = "v",
          rhs: grid.StaggeredState | None = None, max_iters: int = 200,
          tol: float = 1e-12, seed: int = 0) -> ConvergenceReport:
    """Iterate cycles from a seeded random start until the residual reaches tol.

    With the default zero right-hand side the exact solution is zero, the
    state is the error, and rho_m estimates the cycle's convergence factor.
    """
    step = _cycle(cycle)
    n = hier.sizes[0]
    state = grid.random_state(n, hier.bc, seed=seed)
    if rhs is None:
        rhs = grid.StaggeredState.zeros(n, hier.bc)
    system = hier.systems[0]
    # measured into the residual work array the cycle itself uses
    resid = system.work_state("r", np.result_type(state.u, rhs.u))
    r0 = system.residual(state, rhs, out=resid).norm()
    norms = [r0]
    converged = diverged = False
    k = 0
    while k < max_iters:
        step(hier, state, rhs, nu1, nu2)
        grid.project_gauge(state)
        k += 1
        rk = system.residual(state, rhs, out=resid).norm()
        norms.append(rk)
        if not np.isfinite(rk) or rk > 1e6 * r0:
            diverged = True
            break
        if rk <= tol:
            converged = True
            break
    rho = float((norms[-1] / r0) ** (1.0 / k)) if k else float("nan")
    config = {
        "n": n, "bc": hier.bc, "cycle": cycle, "nu1": nu1, "nu2": nu2, **asdict(hier.params),
        "restrict": hier.transfer.restrict, "prolong": "p25",
        "seed": seed, "tol": tol, "max_iters": max_iters,
    }
    return ConvergenceReport(norms, k, rho, converged, diverged, config)


# ``cycle_spectral_radius``'s ARPACK settings.  On periodic two-grid nu = 1
# cycles (n = 9 and 27, ``p25t``, measured parameters, seeds 0-2) they land
# within 2.4e-10 of the lattice factor in 0.05-0.35 s, ``quzawa`` at n = 27
# in 1.1-1.4 s and 1300-1550 cycles; k = 1 misses its complex pair (0.5958).
ARNOLDI_K, ARNOLDI_NCV, ARNOLDI_TOL, ARNOLDI_MAXITER = 4, 20, 1e-10, 300


def cycle_operator(hier: GridHierarchy, nu1: int, nu2: int, cycle: str):
    """The cycle's error propagation as a scipy ``LinearOperator`` on flat
    states: one cycle with zero right-hand side, then ``grid.project_gauge``.
    Its ``cycles`` attribute counts the applications."""
    from scipy.sparse.linalg import LinearOperator

    step = _cycle(cycle)
    n, bc = hier.sizes[0], hier.bc
    rhs = grid.StaggeredState.zeros(n, bc)

    def matvec(x: np.ndarray) -> np.ndarray:
        state = grid.StaggeredState.from_flat(np.ravel(x), n, bc)
        step(hier, state, rhs, nu1, nu2)
        op.cycles += 1
        return grid.project_gauge(state).flat()

    op = LinearOperator((rhs.flat().size,) * 2, matvec=matvec, dtype=float)
    op.cycles = 0
    return op


def cycle_spectral_radius(hier: GridHierarchy, nu1: int, nu2: int, cycle: str,
                          seed: int) -> tuple:
    """``(radius, cycles)``: the spectral radius of ``cycle_operator`` by ARPACK's
    ``eigs`` from the seeded ``grid.random_state``, and the cycles it applied.
    An ARPACK failure, such as missing the tolerance, raises ``LinAlgError``."""
    from scipy.sparse.linalg import ArpackError, eigs

    op = cycle_operator(hier, nu1, nu2, cycle)
    v0 = grid.random_state(hier.sizes[0], hier.bc, seed=seed).flat()
    try:
        vals = eigs(op, k=ARNOLDI_K, ncv=ARNOLDI_NCV, tol=ARNOLDI_TOL,
                    maxiter=ARNOLDI_MAXITER, v0=v0, return_eigenvectors=False)
    except ArpackError as exc:  # its subclass ArpackNoConvergence too
        raise np.linalg.LinAlgError(f"Arnoldi on the {cycle} cycle: {exc}") from None
    return float(np.abs(vals).max()), op.cycles


def assemble_two_grid_matrix(n: int, params: RelaxParams, transfer: TransferPair,
                             nu1: int, nu2: int, bc: str = "periodic") -> np.ndarray:
    """Dense matrix of the two-grid ``cycle_operator``, column j the image of
    unit state j.  Guarded to tiny grids."""
    if n > 9:
        raise ValueError("brute-force matrix oracle is limited to n <= 9")
    op = cycle_operator(GridHierarchy(n, bc, params, transfer), nu1, nu2, "two")
    return op @ np.eye(op.shape[0])
