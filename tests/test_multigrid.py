"""Multigrid cycles: transfers, coarse corrections, measured convergence.

The central oracle: on a small periodic grid the brute-force error
propagation matrix of the real cycle must reproduce the lattice factor
computed from the 27x27 harmonic symbols to near machine precision.
"""

import concurrent.futures
import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.ndimage as ndi

from conftest import apply
from mac3mg import assemble, grid, multigrid, stencils, symbols, twogrid
from mac3mg.multigrid import GridHierarchy
from mac3mg.symbols import RelaxParams, reference_params
from mac3mg.twogrid import TransferPair

ALL_TRANSFERS = ("r1", "r9", "r9b", "p25t")


def rand_state(n, bc, seed):
    rng = np.random.default_rng(seed)
    shapes = grid.field_shapes(n, bc)
    return grid.StaggeredState(
        n, bc, *[rng.standard_normal(shapes[f]) for f in ("u", "v", "p")]
    )


def restricted(fine, tag):
    """Restriction ``tag`` of ``fine`` into a new coarse state."""
    return multigrid.restrict_state(
        fine, tag, grid.StaggeredState.zeros(fine.n // 3, fine.bc, fine.u.dtype))


def prolonged(coarse, n):
    """The prolongation of ``coarse`` onto a new zero state of size n."""
    return multigrid.prolong_state(coarse, n,
                                   grid.StaggeredState.zeros(n, coarse.bc, coarse.u.dtype))


# -- transfers -------------------------------------------------------------


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (27, 243))
def test_prolongation_adjoint_to_p25t_restriction(n, bc):
    # <P c, f> = 9 <c, R f> for the scaled-transpose restriction; the factor
    # 9 is the coarsening ratio in each direction squared over the kernel
    # scaling, and the Dirichlet folds keep the identity exact at the walls;
    # n = 243 checks the CSR matrices above DENSE_MAX
    nc = n // 3
    for seed in range(10):
        cs = rand_state(nc, bc, seed)
        fs = rand_state(n, bc, 100 + seed)
        lhs = np.vdot(prolonged(cs, n).flat(), fs.flat())
        rhs = 9.0 * np.vdot(cs.flat(), restricted(fs, "p25t").flat())
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("tag", ALL_TRANSFERS)
def test_restriction_preserves_constant_pressure(bc, tag):
    n = 27
    st = grid.StaggeredState.zeros(n, bc)
    st.p[:] = 1.0
    coarse = restricted(st, tag)
    assert np.abs(coarse.p - 1.0).max() < 1e-13


@pytest.mark.parametrize("bc", grid.BCS)
def test_prolongation_preserves_constant_pressure(bc):
    nc = 9
    cs = grid.StaggeredState.zeros(nc, bc)
    cs.p[:] = 1.0
    fine = prolonged(cs, 27)
    assert np.abs(fine.p - 1.0).max() < 1e-13


def _dense_filter(f, kernel, op, signs, bc):
    """Slow oracle: the 2D kernel over the whole closed field, real and
    imaginary parts filtered apart."""
    if np.iscomplexobj(f):
        return (_dense_filter(f.real, kernel, op, signs, bc)
                + 1j * _dense_filter(f.imag, kernel, op, signs, bc))
    r = kernel.shape[0] // 2
    full = op(grid.pad_field(f, r, signs, bc), kernel, mode="constant", cval=0.0)
    return full[r : r + f.shape[0], r : r + f.shape[1]]


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (9, 27, 81, 243))
def test_transfers_match_dense_filter_oracle(n, bc, dtype):
    # the transfers (dense 1D matrices up to DENSE_MAX, CSR above it)
    # against correlating (restriction) or convolving an embedded grid
    # (prolongation) with the full 2D kernel
    rng = np.random.default_rng(n)

    def field(shape):
        f = rng.standard_normal(shape)
        return f + 1j * rng.standard_normal(shape) if dtype is complex else f

    fine = grid.StaggeredState(n, bc, *map(field, grid.field_shapes(n, bc).values()))
    coarse = grid.StaggeredState(n // 3, bc,
                                 *map(field, grid.field_shapes(n // 3, bc).values()))
    cases = [(restricted(fine, tag), tag) for tag in ALL_TRANSFERS]
    cases.append((prolonged(coarse, n), "p25"))
    for got, tag in cases:
        for name in ("u", "v", "p"):
            o0, o1 = multigrid.NESTED_OFFSETS[(bc, name)]
            signs = grid.TRANSFER_FOLDS[name]
            if tag == "p25":
                emb = np.zeros(getattr(fine, name).shape, dtype)
                emb[o0::3, o1::3] = getattr(coarse, name)
                kernel = np.outer(stencils.P25, stencils.P25)
                want = _dense_filter(emb, kernel, ndi.convolve, signs, bc)
            else:
                kernel = np.outer(stencils.RESTRICTIONS[tag], stencils.RESTRICTIONS[tag])
                want = _dense_filter(getattr(fine, name), kernel, ndi.correlate, signs,
                                     bc)[o0::3, o1::3]
            have = getattr(got, name)
            assert have.shape == want.shape and have.dtype == want.dtype, (tag, name)
            assert np.abs(have - want).max() <= 1e-13 * np.abs(want).max(), (tag, name)


@pytest.mark.parametrize("n", (27, 243))
def test_cached_transfer_matrices_are_read_only(n):
    # every hierarchy shares them: dense up to DENSE_MAX, CSR above it
    for bc in grid.BCS:
        for tag in ("p25t", "p25"):
            for a in multigrid._transfer_matrices(tag, n, bc, "u"):
                if n <= multigrid.DENSE_MAX:
                    assert isinstance(a, np.ndarray)
                    arrays = (a,)
                else:
                    assert a.format == "csr" and np.diff(a.indptr).max() <= 5
                    arrays = (a.data, a.indices, a.indptr)
                for x in arrays:
                    assert not x.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        x[0] = 0


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (9, 27, 81, 243))
def test_row_blocks_are_read_only_and_stack_to_the_prolongation_rows(n, bc):
    # prolong_state adds A_x t through these blocks at every size: the one
    # dense A_x up to DENSE_MAX, three CSR row blocks above it
    for name in ("u", "v", "p"):
        ax = multigrid._transfer_matrices("p25", n, bc, name)[0]
        blocks = multigrid._row_blocks(n, bc, name)
        assert len(blocks) == (1 if n <= multigrid.DENSE_MAX else 3)
        assert [b[0] for b in blocks] == [0, *(b[1] for b in blocks[:-1])]
        assert blocks[-1][1] == ax.shape[0]
        rows = []
        for lo, hi, block in blocks:
            dense = isinstance(block, np.ndarray)
            assert block.shape == (hi - lo, ax.shape[1])
            for x in (block,) if dense else (block.data, block.indices, block.indptr):
                assert not x.flags.writeable
            rows.append(block if dense else block.toarray())
        assert np.array_equal(np.vstack(rows), ax if n <= multigrid.DENSE_MAX else ax.toarray())


def test_restrict_prolong_shape_contracts():
    st = rand_state(9, "dirichlet", 0)
    coarse = restricted(st, "r9")
    assert coarse.n == 3
    assert coarse.u.shape == (2, 3) and coarse.v.shape == (3, 2)
    with pytest.raises(ValueError):
        prolonged(coarse, 27)  # must step up by one level


def test_periodic_transfer_symbols_match_real_transfers():
    # restricting a single fine Fourier mode yields the coarse mode scaled by
    # the stencil symbol times the per-field harmonic sign
    n, nc = 9, 3
    base = np.array([2 * np.pi * 1 / n, -2 * np.pi * 1 / n])
    freqs = twogrid._harmonic_freqs(base)
    for tag in ALL_TRANSFERS:
        sym = stencils.symbol(stencils.RESTRICTIONS[tag], freqs)
        for a, shift in enumerate(twogrid.HARMONIC_SHIFTS):
            theta = freqs[a]
            st = grid.fourier_state(n, theta)
            coarse = restricted(st, tag)
            coarse_mode = grid.fourier_state(nc, 3.0 * base)
            for fi, fname in enumerate(("u", "v", "p")):
                got = getattr(coarse, fname)
                want = (sym[a] * twogrid.FIELD_PHASES[a, fi]) * getattr(coarse_mode, fname)
                assert np.abs(got - want).max() < 1e-12, (tag, shift, fname)


# -- hierarchy plumbing ----------------------------------------------------


def test_hierarchy_sizes_and_levels():
    hier = GridHierarchy(81, "dirichlet", reference_params("qibsr"), TransferPair("r9"))
    assert hier.levels == 4
    assert hier.sizes == [81, 27, 9, 3]
    assert [s.n for s in hier.systems] == [81, 27, 9, 3]
    hier3 = GridHierarchy(3, "dirichlet", reference_params("qdr"), TransferPair("r9"))
    with pytest.raises(ValueError):
        multigrid.two_grid_cycle(hier3, grid.StaggeredState.zeros(3, "dirichlet"),
                                 grid.StaggeredState.zeros(3, "dirichlet"), 1, 0)


@pytest.mark.parametrize("bc", grid.BCS)
def test_direct_solver_solves_consistent_systems(bc):
    n = 9
    sysm = grid.build_system(n, bc)
    sol = grid.random_state(n, bc, seed=4)
    rhs = apply(sysm, sol)
    out = multigrid.DirectSolver(n, bc).solve_state(rhs, grid.StaggeredState.zeros(n, bc))
    # the augmented factorization pins the gauge, so compare gauge-projected
    grid.project_gauge(sol)
    assert np.linalg.norm(out.flat() - sol.flat()) < 1e-10
    assert sysm.residual(out, rhs).norm() < 1e-10


@pytest.mark.parametrize("cycle", (multigrid.two_grid_cycle, multigrid.v_cycle))
@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_exact_solution_is_cycle_fixed_point(cycle, scheme):
    n = 27
    hier = GridHierarchy(n, "dirichlet", reference_params(scheme), TransferPair("p25t"))
    sol = grid.random_state(n, "dirichlet", seed=5)
    rhs = apply(hier.systems[0], sol)
    st = sol.copy()
    cycle(hier, st, rhs, 1, 1)
    assert np.linalg.norm(st.flat() - sol.flat()) < 1e-9 * max(1.0, sol.norm())


# -- the matrix oracle -----------------------------------------------------


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
@pytest.mark.parametrize("tag", ALL_TRANSFERS)
def test_two_grid_matrix_matches_lattice_factor(scheme, tag):
    # brute-force error propagation matrix of the real periodic cycle versus
    # the harmonic-space prediction: agreement to near machine precision ties
    # grids, smoothers, transfers and symbols together in one shot
    n = 9
    params = reference_params(scheme)
    pair = TransferPair(tag)
    mat = multigrid.assemble_two_grid_matrix(n, params, pair, 1, 0)
    rho_mat = np.abs(np.linalg.eigvals(mat)).max()
    rho_lat = twogrid.periodic_lattice_factor(params, pair, 1, 0, n)
    assert abs(rho_mat - rho_lat) < 1e-8, (scheme, tag, rho_mat, rho_lat)


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_two_grid_matrix_is_the_projected_column_probe(scheme):
    # the operator's matrix is the unprojected cycle's column probe M with
    # the orthonormal nullspace N projected out after the cycle: (I - N N^T) M
    n, bc = 9, "periodic"
    params, pair = reference_params(scheme), TransferPair("p25t")
    hier = GridHierarchy(n, bc, params, pair)
    rhs = grid.StaggeredState.zeros(n, bc)

    def cycle(st):
        multigrid.two_grid_cycle(hier, st, rhs, 1, 0)
        return st

    m = probe_matrix(cycle, n, bc)
    ns = assemble.nullspace(n, bc)
    want = m - ns @ (ns.T @ m)
    got = multigrid.assemble_two_grid_matrix(n, params, pair, 1, 0)
    assert np.abs(got - want).max() < 1e-13


def test_two_grid_matrix_guard():
    with pytest.raises(ValueError):
        multigrid.assemble_two_grid_matrix(27, reference_params("qdr"),
                                           TransferPair("r9"), 1, 0)


def probe_matrix(fn, n, bc):
    size = grid.StaggeredState.zeros(n, bc).flat().size
    cols = []
    for j in range(size):
        e = np.zeros(size)
        e[j] = 1.0
        cols.append(fn(grid.StaggeredState.from_flat(e, n, bc)).flat())
    return np.stack(cols, axis=1)


def test_galerkin_correction_is_idempotent_rediscretized_is_not():
    # a coarse-grid correction built on the Galerkin operator R A P is a
    # projection (pinv identity), so C C = C; the rediscretized correction
    # used by the cycles is deliberately not a projection
    n, bc = 9, "periodic"
    nc = 3
    A = assemble.assemble_ops(n, bc).saddle.toarray()
    Ac = assemble.assemble_ops(nc, bc).saddle.toarray()
    R = probe_matrix(lambda st: restricted(st, "p25t"), n, bc)
    P = probe_matrix(lambda st: prolonged(st, 9), nc, bc)
    assert R.shape == (27, 243) and P.shape == (243, 27)

    C_gal = np.eye(A.shape[0]) - P @ np.linalg.pinv(R @ A @ P) @ R @ A
    assert np.abs(C_gal @ C_gal - C_gal).max() < 1e-10

    C_re = np.eye(A.shape[0]) - P @ np.linalg.pinv(Ac) @ R @ A
    assert np.abs(C_re @ C_re - C_re).max() > 1e-3


# -- measured convergence --------------------------------------------------


def test_solve_reports_are_reproducible():
    hier = GridHierarchy(27, "dirichlet", reference_params("qibsr"), TransferPair("p25t"))
    a = multigrid.solve(hier, 2, 0, cycle="v", seed=3)
    b = multigrid.solve(hier, 2, 0, cycle="v", seed=3)
    assert a.residual_norms == b.residual_norms
    assert a.rho_m == b.rho_m and a.iterations == b.iterations
    assert a.converged and not a.diverged
    assert a.config["scheme"] == "qibsr" and a.config["seed"] == 3
    assert "rho_m" in a.summary()


@pytest.mark.parametrize("cycle", ("v", "two"))
def test_solve_runs_each_cycle_through_its_module_attribute(monkeypatch, cycle):
    # the benchmark times cycles by wrapping multigrid.v_cycle and
    # two_grid_cycle: solve must call the one it runs once per iteration
    calls = {"v_cycle": 0, "two_grid_cycle": 0}
    for name in calls:
        def counted(*args, _name=name, _step=getattr(multigrid, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(multigrid, name, counted)
    hier = GridHierarchy(27, "dirichlet", reference_params("qibsr"), TransferPair("p25t"))
    rep = multigrid.solve(hier, 2, 0, cycle=cycle, max_iters=5)
    ran = "v_cycle" if cycle == "v" else "two_grid_cycle"
    assert rep.iterations > 0
    assert calls == {"v_cycle": 0, "two_grid_cycle": 0, ran: rep.iterations}


def test_solve_seed_stability():
    hier = GridHierarchy(27, "dirichlet", reference_params("qibsr"), TransferPair("p25t"))
    rhos = [multigrid.solve(hier, 2, 0, cycle="two", seed=s).rho_m for s in range(5)]
    assert max(rhos) - min(rhos) < 0.02


def test_v_cycle_no_faster_than_two_grid():
    hier = GridHierarchy(27, "dirichlet", reference_params("qibsr"), TransferPair("p25t"))
    tg = multigrid.solve(hier, 2, 0, cycle="two", seed=0).rho_m
    v = multigrid.solve(hier, 2, 0, cycle="v", seed=0).rho_m
    assert v >= tg - 0.02


def test_solve_divergence_guard():
    params = RelaxParams("qdr", omega=5.0, alpha=1.0)
    hier = GridHierarchy(9, "dirichlet", params, TransferPair("r9"))
    rep = multigrid.solve(hier, 1, 0, cycle="two", seed=0)
    assert rep.diverged and not rep.converged
    assert rep.iterations < 200
    assert "diverged" in rep.summary()


def test_report_status_names_each_outcome():
    # one word per outcome, for the summary and the CLI's status column
    hier = GridHierarchy(9, "dirichlet", reference_params("qibsr"), TransferPair("p25t"))
    unstable = GridHierarchy(9, "dirichlet", RelaxParams("qdr", omega=5.0, alpha=1.0),
                             TransferPair("r9"))
    for rep, status in ((multigrid.solve(hier, 1, 0, cycle="two"), "converged"),
                        (multigrid.solve(hier, 1, 0, cycle="two", max_iters=2), "maxiter"),
                        (multigrid.solve(unstable, 1, 0, cycle="two"), "diverged")):
        assert rep.status == status
        assert rep.summary().endswith(f"[{status}]")


def test_cycles_go_on_once_the_residual_leaves_the_normal_range():
    # the residual falls past 1e-160, where the squared norms of the 3x3
    # solve's conjugate gradients underflowed (the 201st cycle raised).  The
    # gauge is projected after each cycle, as ``solve`` does: unprojected, a
    # one-ulp spread in the mean pressure has a gradient that stalls the
    # residual near 1e-29 for some seeds, and which ones moves with roundoff.
    n, bc = 27, "dirichlet"
    hier = GridHierarchy(n, bc, reference_params("qbsr", "measured"), TransferPair("p25t"))
    rhs = grid.StaggeredState.zeros(n, bc)
    for seed in range(8):
        st = grid.random_state(n, bc, seed=seed)
        for _ in range(210):
            multigrid.v_cycle(hier, st, rhs, 2, 0)
            grid.project_gauge(st)
        assert np.isfinite(st.flat()).all(), seed
        assert hier.systems[0].residual(st, rhs).norm() < 1e-140, seed


def test_solve_rejects_unknown_cycle():
    hier = GridHierarchy(9, "dirichlet", reference_params("qdr"), TransferPair("r9"))
    with pytest.raises(ValueError):
        multigrid.solve(hier, 1, 0, cycle="w")
    with pytest.raises(ValueError):
        multigrid.cycle_operator(hier, 1, 0, cycle="fmg")


@pytest.mark.parametrize("nu1, nu2", [(-1, 0), (0, -1), (2, -1)])
def test_cycles_reject_a_negative_smoothing_count(nu1, nu2):
    # a negative count smooths nothing: no cycle and no solve runs with one
    hier = GridHierarchy(9, "dirichlet", reference_params("qdr"), TransferPair("r9"))
    rhs = grid.StaggeredState.zeros(9, "dirichlet")
    for cycle in (multigrid.v_cycle, multigrid.two_grid_cycle):
        with pytest.raises(ValueError, match="smoothing counts"):
            cycle(hier, grid.random_state(9, "dirichlet", seed=0), rhs, nu1, nu2)
    for cycle in ("v", "two"):
        with pytest.raises(ValueError, match="smoothing counts"):
            multigrid.solve(hier, nu1, nu2, cycle=cycle)


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_cycle_spectral_radius_matches_lattice_factor(scheme):
    # Arnoldi on the real periodic two-grid cycle lands on the lattice factor;
    # quzawa's top eigenvalues are a complex pair beside a cluster
    n = 27
    params = reference_params(scheme, "measured")
    pair = TransferPair("p25t")
    hier = GridHierarchy(n, "periodic", params, pair)
    got, cycles = multigrid.cycle_spectral_radius(hier, 1, 0, cycle="two", seed=0)
    want = twogrid.periodic_lattice_factor(params, pair, 1, 0, n)
    assert abs(got - want) < 1e-8, (scheme, got, want)
    assert cycles > multigrid.ARNOLDI_NCV


def test_cycle_spectral_radius_matches_dense_eigenvalues():
    # a Dirichlet V(1,0) cycle, which the lattice analysis does not cover
    n, bc = 9, "dirichlet"
    hier = GridHierarchy(n, bc, reference_params("qdr", "measured"), TransferPair("p25t"))
    op = multigrid.cycle_operator(hier, 1, 0, cycle="v")
    want = np.abs(np.linalg.eigvals(op @ np.eye(op.shape[0]))).max()
    assert op.cycles == op.shape[0]
    got, _ = multigrid.cycle_spectral_radius(hier, 1, 0, cycle="v", seed=0)
    assert abs(got - want) < 1e-8, (got, want)


# -- work arrays -----------------------------------------------------------


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_warm_cycle_allocates_no_fine_field(scheme, bc):
    # after the first cycle every level works in its own work arrays, so the
    # second cycle's traced peak stays below one fine pressure field; qbsr's
    # Schur solve may take a few
    n = 243
    hier = GridHierarchy(n, bc, reference_params(scheme, "measured"), TransferPair("p25t"))
    st = grid.random_state(n, bc, seed=1)
    rhs = grid.StaggeredState.zeros(n, bc)
    multigrid.v_cycle(hier, st, rhs, 2, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        multigrid.v_cycle(hier, st, rhs, 2, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    fields = peak / st.p.nbytes
    assert fields < (3.0 if scheme == "qbsr" else 1.0), fields


def in_new_thread(fn, *args):
    """``fn(*args)`` in a thread of its own, whose registry of level
    workspaces starts empty; returns its result or raises its exception."""
    with concurrent.futures.ThreadPoolExecutor(1) as worker:
        return worker.submit(fn, *args).result(timeout=300)


def held_workspace(n):
    """This thread's workspace of size n, or None when no live system holds one."""
    gc.collect()
    return getattr(grid._LEVELS, "by_n", {}).get(n)


def work_fields(hiers, n):
    """The arrays of every workspace the hierarchies reach, each counted once,
    in pressure fields of size n."""
    systems = [s for h in hiers for s in h.systems]
    flats = {id(f): f for s in systems for f in s.work._flat.values()}
    return sum(f.nbytes for f in flats.values()) / (n * n * 8)


# work arrays a warm V(2,0) cycle keeps at n = 243, in fine pressure fields,
# summed over the levels; 17.4 for every scheme while ``apply`` kept a
# gradient pair, ``neg_div`` its own scratch and every sweep a "b" state
# (which quzawa never read)
WORK_FIELDS = {"qdr": 11.0, "qbsr": 11.0, "qibsr": 11.0, "quzawa": 10.0}
CONFIGS = [(scheme, bc) for scheme in symbols.SCHEMES for bc in grid.BCS]


def warm_hierarchy(n, scheme, bc):
    hier = GridHierarchy(n, bc, reference_params(scheme, "measured"), TransferPair("p25t"))
    multigrid.v_cycle(hier, grid.random_state(n, bc, seed=1), grid.StaggeredState.zeros(n, bc),
                      2, 0)
    return hier


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_warm_cycle_work_arrays_stay_small(scheme, bc):
    # one hierarchy, alone in its thread's registry
    def alone():
        assert held_workspace(243) is None
        return work_fields([warm_hierarchy(243, scheme, bc)], 243)

    fields = in_new_thread(alone)
    assert fields < WORK_FIELDS[scheme], fields


def test_every_scheme_and_boundary_together_keep_one_hierarchys_work_arrays():
    # all eight hierarchies of one size share their levels' arrays, so
    # together they keep what the largest (qdr, periodic: every role, the
    # n x n velocities, two bands' padding) keeps alone
    def together():
        assert held_workspace(243) is None
        hiers = [warm_hierarchy(243, "qdr", "periodic")]
        alone = work_fields(hiers, 243)
        hiers += [warm_hierarchy(243, *cfg) for cfg in CONFIGS if cfg != ("qdr", "periodic")]
        return alone, work_fields(hiers, 243)

    alone, fields = in_new_thread(together)
    assert fields == alone and fields < 11.0, (alone, fields)


def test_hierarchies_of_one_size_share_their_work_arrays_until_the_last_goes():
    def shared():
        a = warm_hierarchy(27, "qdr", "dirichlet")
        b = warm_hierarchy(27, "quzawa", "periodic")
        assert [s.work for s in a.systems] == [s.work for s in b.systems]
        assert len({id(s.work) for s in a.systems}) == a.levels  # one per size
        held = [weakref.ref(s.work) for s in a.systems]
        del a
        assert all(held_workspace(m) is ref() for m, ref in zip(b.sizes, held))
        del b
        assert all(held_workspace(m) is None for m in (27, 9, 3))
        assert all(ref() is None for ref in held)

    in_new_thread(shared)


def test_a_grown_padding_is_freed_while_a_system_that_used_it_lives(monkeypatch):
    # a periodic n = 243 system run with one band, then another with two:
    # the second grows the shared padding, and no band view of the first
    # keeps the replaced array alive
    n, bc = 243, "periodic"
    st = grid.random_state(n, bc, seed=3)

    def grow():
        one, two = grid.SaddleSystem(n, bc), grid.SaddleSystem(n, bc)
        assert one.work is two.work
        monkeypatch.setattr(grid, "BANDS", 1)
        want = one.residual(st, None).flat()
        old = weakref.ref(one.work._flat[("pad", np.dtype(float))])
        monkeypatch.setattr(grid, "BANDS", 2)
        assert np.array_equal(two.residual(st, None).flat(), want)
        gc.collect()
        assert old() is None
        monkeypatch.setattr(grid, "BANDS", 1)
        assert np.array_equal(one.residual(st, None).flat(), want)

    in_new_thread(grow)


# the cycles of the sharing tests: the two-grid cycle for qbsr, then V(2,0)
# for every scheme and boundary.  In this order later cycles grow arrays that earlier ones made:
# the n x n periodic velocities after the Dirichlet ones.
CYCLES = [(scheme, bc, cycle) for cycle, schemes in (("two", ("qbsr",)), ("v", symbols.SCHEMES))
          for scheme in schemes for bc in ("dirichlet", "periodic")]


def cycled(n, cycles, rounds=2):
    """The states of ``cycles`` after ``rounds`` cycles each, their
    hierarchies, built here, taking turns."""
    runs = []
    for scheme, bc, cycle in cycles:
        hier = GridHierarchy(n, bc, reference_params(scheme, "measured"), TransferPair("p25t"))
        step = multigrid.v_cycle if cycle == "v" else multigrid.two_grid_cycle
        k = CYCLES.index((scheme, bc, cycle))
        runs.append((hier, step, rand_state(n, bc, 20 + k), rand_state(n, bc, 40 + k)))
    for _ in range(rounds):
        for hier, step, st, rhs in runs:
            step(hier, st, rhs, 2, 0)
    return [st.flat() for _, _, st, _ in runs]


@pytest.mark.parametrize("n", (81, 243))
def test_interleaved_cycles_match_separate_runs(n):
    # each reference runs in a thread of its own and so shares nothing
    want = [in_new_thread(cycled, n, [cyc])[0] for cyc in CYCLES]
    for got, w in zip(cycled(n, CYCLES), want):
        assert np.array_equal(got, w)


def test_threads_cycling_their_own_hierarchies_match_serial_runs():
    # three threads build the same sizes at once and cycle them with the
    # interpreter switching every microsecond: arrays shared across threads
    # would mix their data
    n, threads = 81, 3
    want = cycled(n, CYCLES)
    start = threading.Barrier(threads, timeout=60)
    works = []

    def run():
        works.append(grid.SaddleSystem(n, "dirichlet").work)
        start.wait()  # every thread holds its workspace
        return cycled(n, CYCLES)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as workers:
            futures = [workers.submit(run) for _ in range(threads)]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len({id(w) for w in works}) == threads
    for got in results:
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# -- coarse levels start from zero ------------------------------------------


def nan_fill(st):
    for f in (st.u, st.v, st.p):
        f.fill(np.nan)


@pytest.mark.parametrize("nu1, nu2", [(2, 0), (1, 1), (0, 2)])
@pytest.mark.parametrize("bc", grid.BCS)
def test_cycles_never_read_a_coarse_state_left_from_before(nu1, bc, nu2):
    # every coarse level zero-fills its state and takes the restricted
    # residual as its first residual, whatever the state held before
    n = 81
    params = reference_params("qdr", "measured")
    rhs = rand_state(n, bc, 4)
    results = []
    for stale in (False, True):
        hier = GridHierarchy(n, bc, params, TransferPair("p25t"))
        st = rand_state(n, bc, 5)
        multigrid.v_cycle(hier, st, rhs, nu1, nu2)
        if stale:
            for system in hier.systems[1:]:
                nan_fill(system.work_state("x", float))
            st = rand_state(n, bc, 5)
            multigrid.v_cycle(hier, st, rhs, nu1, nu2)
        results.append(st)
    assert np.isfinite(results[1].flat()).all()
    assert np.array_equal(results[1].flat(), results[0].flat())


def test_the_cycle_computes_every_residual_and_a_sweep_none(monkeypatch):
    # V(2,0): the finest level computes each sweep's residual and the
    # restricted one; a coarse level's first residual is its restricted data
    n, bc = 81, "dirichlet"
    hier = GridHierarchy(n, bc, reference_params("qdr", "measured"), TransferPair("p25t"))
    st, rhs = rand_state(n, bc, 5), rand_state(n, bc, 4)
    r = hier.systems[0].residual(st, rhs)
    residual, calls = grid.SaddleSystem.residual, []

    def counted(self, *args, **kwargs):
        calls.append(self.n)
        return residual(self, *args, **kwargs)

    monkeypatch.setattr(grid.SaddleSystem, "residual", counted)
    hier.smoothers[0].sweep(st, r)
    assert calls == []
    multigrid.v_cycle(hier, st, rhs, 2, 0)
    assert {m: calls.count(m) for m in hier.sizes} == {81: 3, 27: 2, 9: 2, 3: 0}
