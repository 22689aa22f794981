"""Phase bands: bit-identical kernels, the threshold, the band pool.

A level's kernels run in ``grid.BANDS`` row bands from ``grid.BAND_MIN``
points (n = 243), in every cycle: no exact solve makes a matrix product
that OpenBLAS would thread.  Most tests lower the threshold to 0 and set the
band count to 2 and to 3 (cuts of unequal length) on small grids; the
n = 243 tests keep the real threshold.  Every banded result must equal the
unbanded one exactly: each element goes through the same ufuncs in the same
order.  Transfers are 1D matrix products and never band.  The two-grid LFA
splits its bases into ``grid.BANDS`` chunks on the same pool, with no size
threshold.
"""

import concurrent.futures
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from conftest import apply
from mac3mg import grid, multigrid, stencils, symbols, twogrid
from mac3mg.smoothers import Smoother
from mac3mg.symbols import reference_params
from mac3mg.twogrid import TransferPair

CASES = [(n, bc, dtype) for n in (9, 27, 81) for bc in grid.BCS for dtype in (float, complex)]


@pytest.fixture
def no_threshold(monkeypatch):
    monkeypatch.setattr(grid, "BAND_MIN", 0)


def rand_state(rng, n, bc, dtype):
    shapes = grid.field_shapes(n, bc)
    fields = []
    for f in ("u", "v", "p"):
        x = rng.standard_normal(shapes[f])
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shapes[f])
        fields.append(x)
    return grid.StaggeredState(n, bc, *fields)


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def fields(st):
    return (st.u, st.v, st.p)


def swept(system, st, rhs):
    """Each scheme's sweep of a copy of st on system."""
    out = []
    for scheme in symbols.SCHEMES:
        x = st.copy()
        Smoother(system, reference_params(scheme, "measured")).sweep(x, system.residual(x, rhs))
        out.append(fields(x))
    return out


def kernel_results(monkeypatch, system, st, rhs, bands):
    """The operator, both residuals and every scheme's sweep on ``bands`` bands."""
    monkeypatch.setattr(grid, "BANDS", bands)
    return [fields(apply(system, st)), *(fields(system.residual(st, r)) for r in (rhs, None)),
            *swept(system, st, rhs)]


def assert_banded_kernels_match(monkeypatch, system, st, rhs, bands):
    want = kernel_results(monkeypatch, system, st, rhs, 1)
    for got, w in zip(kernel_results(monkeypatch, system, st, rhs, bands), want):
        assert_same(got, w)


@pytest.mark.parametrize("bands", (2, 3))
@pytest.mark.parametrize("n, bc, dtype", CASES)
def test_banded_kernels_are_bit_identical(no_threshold, monkeypatch, n, bc, dtype, bands):
    rng = np.random.default_rng(n)
    st, rhs = rand_state(rng, n, bc, dtype), rand_state(rng, n, bc, dtype)
    for radius in (1, 2):
        for signs in ((0.0, -1.0), (1.0, 1.0)):
            # padded rows in separate pieces, as bands pad them
            want = grid.pad_field(st.p, radius, signs, bc)
            got = np.full_like(want, np.nan)
            for lo, hi in grid.cuts(len(want), bands):
                grid.pad_rows(st.p, radius, signs, bc, got[lo:hi], lo)
            assert_same([got], [want])
    assert_banded_kernels_match(monkeypatch, grid.SaddleSystem(n, bc), st, rhs, bands)


@pytest.mark.parametrize("bands", (2, 3))
@pytest.mark.parametrize("scheme", symbols.SCHEMES)
@pytest.mark.parametrize("n, bc, dtype", CASES)
def test_banded_v_cycle_is_bit_identical(no_threshold, monkeypatch, n, bc, dtype, scheme,
                                         bands):
    rhs = rand_state(np.random.default_rng(n + 2), n, bc, dtype)
    results = []
    for count in (1, bands):
        monkeypatch.setattr(grid, "BANDS", count)
        hier = multigrid.GridHierarchy(n, bc, reference_params(scheme, "measured"),
                                       TransferPair("p25t"))
        st = rand_state(np.random.default_rng(n + 3), n, bc, dtype)
        multigrid.v_cycle(hier, st, rhs, 2, 0)
        results.append(fields(st))
    assert_same(results[1], results[0])


# -- which cycles band, and the pool -----------------------------------------


class CountingPool:
    """Runs each band at once in the caller and counts the submissions."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool()
    monkeypatch.setattr(grid, "band_pool", lambda pid: counting)
    monkeypatch.setattr(grid, "BANDS", 2)
    return counting


def cycle_submits(pool, scheme, n, cycle):
    hier = multigrid.GridHierarchy(n, "dirichlet", reference_params(scheme, "measured"),
                                   TransferPair("p25t"))
    st = grid.random_state(n, "dirichlet", seed=1)
    rhs = grid.StaggeredState.zeros(n, "dirichlet")
    before = pool.submits
    (multigrid.v_cycle if cycle == "v" else multigrid.two_grid_cycle)(hier, st, rhs, 2, 0)
    return pool.submits - before


@pytest.mark.parametrize("scheme, n, cycle", [
    ("qdr", 81, "v"),
    ("quzawa", 27, "two"),  # the coarse solve on 9 points per side
    ("qbsr", 27, "v"),  # its Schur solves act on at most 27 per side
    ("qbsr", 81, "v"),  # a Schur solve on 81 per side
    ("qdr", 243, "two"),  # the coarse solve on 81 per side
    ("qibsr", 243, "two"),
])
def test_every_cycle_bands_its_levels_of_at_least_band_min_points(no_threshold, pool, scheme,
                                                                   n, cycle):
    # the transforms of the Schur and coarse solves leave no OpenBLAS worker
    # spinning, so no cycle keeps its levels whole
    assert cycle_submits(pool, scheme, n, cycle) > 0


def test_fields_below_the_threshold_submit_nothing(pool):
    # at n = 81 a banded residual took 0.15 ms against 0.07 ms whole
    assert grid.BAND_MIN > 81 * 81
    assert cycle_submits(pool, "qdr", 81, "v") == 0


def test_an_n243_cycle_bands_its_finest_level_but_not_its_transfers(pool, monkeypatch):
    assert grid.BAND_MIN <= 243 * 243
    during = []
    for name in ("restrict_state", "prolong_state"):
        def counted(*args, transfer=getattr(multigrid, name), **kwargs):
            before = pool.submits
            out = transfer(*args, **kwargs)
            during.append(pool.submits - before)
            return out
        monkeypatch.setattr(multigrid, name, counted)
    assert cycle_submits(pool, "qdr", 243, "v") > 0
    assert during == [0] * 8  # four restrictions and four prolongations
    # transfers from n = 729 are 1D matrix products too
    fine = grid.random_state(729, "dirichlet", seed=2)
    coarse = multigrid.restrict_state(fine, "p25t", grid.StaggeredState.zeros(243, "dirichlet"))
    multigrid.prolong_state(coarse, 729, add_to=fine)
    assert during[8:] == [0, 0]


# -- n = 243 at the real threshold -------------------------------------------

CASES_243 = [(bc, dtype, bands) for bc in grid.BCS for dtype in (float, complex)
             for bands in (2, 3)]


@pytest.mark.parametrize("bc, dtype, bands", CASES_243)
def test_n243_phases_are_bit_identical(monkeypatch, bc, dtype, bands):
    n = 243
    assert n * n >= grid.BAND_MIN
    rng = np.random.default_rng(7)
    st, rhs = rand_state(rng, n, bc, dtype), rand_state(rng, n, bc, dtype)
    system = grid.SaddleSystem(n, bc)
    for start in (st, grid.StaggeredState.zeros(n, bc, dtype)):
        assert_banded_kernels_match(monkeypatch, system, start, rhs, bands)
    for scheme in symbols.SCHEMES:
        results = []
        for count in (1, bands):
            monkeypatch.setattr(grid, "BANDS", count)
            hier = multigrid.GridHierarchy(n, bc, reference_params(scheme, "measured"),
                                           TransferPair("p25t"))
            x = st.copy()
            multigrid.v_cycle(hier, x, rhs, 2, 0)
            results.append(fields(x))
        assert_same(results[1], results[0])


def test_n243_phases_under_fast_thread_switches(monkeypatch):
    # three bands on three threads, the interpreter switching every
    # microsecond: a phase that read rows another band is still writing
    # would differ from the whole-level run
    n, bc = 243, "periodic"
    rng = np.random.default_rng(8)
    st, rhs = rand_state(rng, n, bc, float), rand_state(rng, n, bc, float)
    system = grid.SaddleSystem(n, bc)
    monkeypatch.setattr(grid, "BANDS", 1)
    want_res = fields(system.residual(st, rhs))
    want = swept(system, st, rhs)
    workers = concurrent.futures.ThreadPoolExecutor(2)
    monkeypatch.setattr(grid, "band_pool", lambda pid: workers)
    monkeypatch.setattr(grid, "BANDS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert_same(fields(system.residual(st, rhs)), want_res)
            for got, w in zip(swept(system, st, rhs), want):
                assert_same(got, w)
    finally:
        sys.setswitchinterval(interval)
        workers.shutdown(wait=True)


def _banded_residual_matches(n, bc, bands):
    rng = np.random.default_rng(5)
    st, rhs = rand_state(rng, n, bc, float), rand_state(rng, n, bc, float)
    system = grid.SaddleSystem(n, bc)
    grid.BANDS = 1
    want = fields(system.residual(st, rhs))
    grid.BANDS = bands
    assert_same(fields(system.residual(st, rhs)), want)


def test_a_forked_child_builds_its_own_pool(no_threshold, monkeypatch):
    monkeypatch.setattr(grid, "BANDS", 2)  # restored after the test
    _banded_residual_matches(27, "dirichlet", 2)  # the parent's pool now has a worker
    child = multiprocessing.get_context("fork").Process(
        target=_banded_residual_matches, args=(27, "dirichlet", 2))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("banded residual in a forked child did not finish")
    assert child.exitcode == 0


# -- the two-grid LFA's chunks of bases -------------------------------------


def lfa_results(scheme, restrict, n):
    params, pair = reference_params(scheme), TransferPair(restrict)
    return (twogrid.two_grid_factor_table(params, pair, nus=(1, 2, 3, 4), n=n, h=1.0 / n),
            twogrid.periodic_lattice_factor(params, pair, 1, 1, n))


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_chunked_lfa_is_bit_identical(monkeypatch, scheme):
    # each base's smoother powers and eigvals run alone, and a max does not
    # depend on the order, so every chunking gives the same bits
    for restrict in ("r9", "p25t"):
        for n in (9, 27, 81):
            results = []
            for bands in (1, 2, 3):
                monkeypatch.setattr(grid, "BANDS", bands)
                results.append(lfa_results(scheme, restrict, n))
            assert results[1] == results[0] and results[2] == results[0], (restrict, n)


def test_chunked_lfa_under_fast_thread_switches(monkeypatch):
    # more chunks than cores on a pool of five workers, the interpreter
    # switching threads every microsecond: each chunk writes only its rows
    monkeypatch.setattr(grid, "BANDS", 1)
    want = lfa_results("qibsr", "p25t", 81)
    workers = concurrent.futures.ThreadPoolExecutor(5)
    monkeypatch.setattr(grid, "band_pool", lambda pid: workers)
    monkeypatch.setattr(grid, "BANDS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert lfa_results("qibsr", "p25t", 81) == want
    finally:
        sys.setswitchinterval(interval)
        workers.shutdown(wait=True)


def test_lfa_chunks_run_on_the_pool(pool, monkeypatch):
    before = pool.submits
    twogrid.two_grid_factor_table(reference_params("qdr"), TransferPair("p25t"),
                                  nus=(1, 2, 3, 4), n=27, h=1.0 / 27)
    assert pool.submits - before == 1
    # the chunk count is clamped to the batch: n = 9 has two nonzero bases
    monkeypatch.setattr(grid, "BANDS", 3)
    before = pool.submits
    twogrid.periodic_lattice_factor(reference_params("qdr"), TransferPair("p25t"), 1, 1, 9)
    assert pool.submits - before == 1
    before = pool.submits
    twogrid._max_radius(np.array([[0.1, 0.05]]), reference_params("qdr"),
                        TransferPair("p25t"), 1.0 / 27, (1, 2))
    assert pool.submits == before


def test_lfa_survivors_run_on_the_pool(pool):
    # quzawa's radii lie on a plateau, so at n = 27 several bases reach the
    # largest chunk radius, and the second dispatch splits them too
    before = pool.submits
    twogrid.two_grid_factor_table(reference_params("quzawa"), TransferPair("r9"),
                                  nus=(1, 2, 3, 4), n=27, h=1.0 / 27)
    assert pool.submits - before == 2


def test_chunks_prune_against_the_largest_chunk_radius(monkeypatch):
    # each chunk solves its own top bases, at the 16th power and at the
    # 256th; every other base must reach the largest radius of all chunks.
    # So the second dispatch of k chunks gets no base that one chunk neither
    # kept nor solved, and not one chunk's top at the 16th power, which its
    # own chunk solves: with the same factors
    sizes, solved, lock = [], [], threading.Lock()
    eigvals, radius_bounds = np.linalg.eigvals, twogrid._radius_bounds

    def counted(a):
        with lock:
            sizes.append(np.size(a) // 27**2)
        return eigvals(a)

    def bounds(*args):
        out = radius_bounds(*args)
        with lock:
            solved.append(len(out[2]))
        return out

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(twogrid, "_radius_bounds", bounds)
    nus = (1, 2, 3, 4)
    for scheme in symbols.SCHEMES:
        for restrict in stencils.RESTRICTIONS:
            params, pair = reference_params(scheme), TransferPair(restrict)
            chunks, second, tables = [], [], []
            for bands in (1, 2, 3):
                monkeypatch.setattr(grid, "BANDS", bands)
                sizes.clear()
                solved.clear()
                tables.append(twogrid.two_grid_factor_table(params, pair, nus=nus, n=27,
                                                            h=1.0 / 27))
                chunks.append(sum(solved))
                second.append(sum(sizes) - sum(solved))
            for k in (2, 3):
                assert second[k - 1] <= second[0] + chunks[0] - len(nus), (
                    scheme, restrict, chunks, second)
                assert chunks[k - 1] <= 2 * k * len(nus), (scheme, restrict, chunks)
                assert tables[k - 1] == tables[0], (scheme, restrict)


def test_a_worker_chunks_linalg_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(grid, "BANDS", 2)
    caller, eigvals = threading.get_ident(), np.linalg.eigvals

    def failing_off_the_caller(a):
        if threading.get_ident() != caller:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing_off_the_caller)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        twogrid.two_grid_factor_table(reference_params("qdr"), TransferPair("p25t"),
                                      nus=(1, 2, 3, 4), n=27, h=1.0 / 27)
