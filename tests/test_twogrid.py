"""Two-grid harmonic analysis for coarsening by three."""

import threading
import warnings

import numpy as np
import pytest

from mac3mg import grid, stencils, symbols, twogrid
from mac3mg.symbols import reference_params
from mac3mg.twogrid import TransferPair


def test_transfer_pair_validation():
    TransferPair("r1")
    TransferPair("p25t")
    with pytest.raises(ValueError):
        TransferPair("p25_r1")


def test_harmonics_require_low_base():
    # the nine harmonics of a low base land in [-pi, pi)^2 without rewrapping;
    # a high base would push some of them off the torus, so only low bases
    # are accepted as two-grid bases
    hs = twogrid._harmonic_freqs((0.1, -0.2))
    assert hs.shape == (9, 2)
    assert np.all((hs >= -np.pi) & (hs < np.pi))
    high = twogrid._harmonic_freqs((np.pi / 2, 0.0))
    assert not np.all((high >= -np.pi) & (high < np.pi))
    with pytest.raises(ValueError):
        twogrid.two_grid_symbol((np.pi / 2, 0.0), 1, 0, reference_params("qdr"),
                                TransferPair("p25t"))


def test_harmonics_alias_on_the_coarse_grid():
    # all nine harmonics map to the same coarse frequency 3 theta (mod 2 pi)
    # and exactly one of them (the base) is low
    base = np.array([0.21, -0.77]) / 3.0
    freqs = twogrid._harmonic_freqs(base)
    coarse = 3.0 * freqs
    base3 = 3.0 * base
    wrapped = symbols.canonicalize(coarse)
    for a in range(9):
        assert np.allclose(wrapped[a], symbols.canonicalize(base3), atol=1e-12)
    low_flags = symbols.is_low(freqs)
    assert low_flags.sum() == 1
    assert low_flags[twogrid.BASE_INDEX]
    # harmonics are pairwise distinct
    flat = {tuple(np.round(f, 12)) for f in freqs}
    assert len(flat) == 9


def test_field_phase_table():
    for a, (i, j) in enumerate(twogrid.HARMONIC_SHIFTS):
        assert twogrid.FIELD_PHASES[a, 0] == (-1.0) ** j  # u offset (0, 1/2)
        assert twogrid.FIELD_PHASES[a, 1] == (-1.0) ** i  # v offset (1/2, 0)
        assert twogrid.FIELD_PHASES[a, 2] == (-1.0) ** (i + j)  # p offset


def test_expanded_fine_symbol_is_block_diagonal():
    freqs = twogrid._harmonic_freqs((0.2, 0.1))
    big = twogrid._expand(symbols.stokes_symbol(freqs, 0.5)[None])[0]
    assert big.shape == (27, 27)
    for a in range(9):
        blk = big[3 * a : 3 * a + 3, 3 * a : 3 * a + 3]
        assert np.abs(blk - symbols.stokes_symbol(freqs[a], 0.5)).max() < 1e-13
    mask = np.ones((27, 27), dtype=bool)
    for a in range(9):
        mask[3 * a : 3 * a + 3, 3 * a : 3 * a + 3] = False
    assert np.abs(big[mask]).max() == 0.0


def test_transfer_symbols_sparsity_and_scaling():
    # a transfer couples field f of harmonic a with coarse field f alone: its
    # weight is the scalar stencil symbol times the phase sign, and the
    # prolongation's carries the 1/9 aliasing factor
    freqs = twogrid._harmonic_freqs((0.01, 0.02))
    _, _, _, prolong, restrict = twogrid._blocks(np.array([0.01, 0.02]),
                                                 reference_params("qdr"),
                                                 TransferPair("p25t"), 1.0 / 27)
    assert prolong.shape == restrict.shape == (1, 9, 3)
    p_sym = stencils.symbol(stencils.P25, freqs)
    r_sym = stencils.symbol(stencils.RESTRICTIONS["p25t"], freqs)
    assert np.array_equal(prolong[0], (1.0 / 9.0) * p_sym[:, None] * twogrid.FIELD_PHASES)
    assert np.array_equal(restrict[0], r_sym[:, None] * twogrid.FIELD_PHASES)
    # near theta = 0 the base-harmonic weights approach 1 for both transfers
    b = twogrid.BASE_INDEX
    assert np.abs(prolong[0, b] - 1.0).max() < 1e-3
    assert np.abs(restrict[0, b] - 1.0).max() < 1e-3


def test_two_grid_symbol_requires_low_base():
    p = reference_params("qdr")
    with pytest.raises(ValueError):
        twogrid.two_grid_symbol((np.pi / 2, 0.0), 1, 0, p, TransferPair("p25t"))


def test_two_grid_symbol_singular_at_zero_base():
    p = reference_params("qdr")
    with pytest.raises(np.linalg.LinAlgError):
        twogrid.two_grid_symbol((0.0, 0.0), 1, 0, p, TransferPair("p25t"))


def test_a_singular_base_in_a_batch_raises():
    # no base is dropped: the zero base's coarse symbol is singular, and the
    # batched coarse solve of its chunk raises rather than leaving it empty
    bases = np.array([[0.3, 0.1], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        twogrid._max_radius(bases, reference_params("qdr"), TransferPair("p25t"), 1.0 / 27, (1,))


def test_pre_post_smoothing_split_is_spectrally_equivalent():
    # S^a C S^b is similar to C S^(a+b): identical eigenvalues
    p = reference_params("qbsr")
    pair = TransferPair("r9b")
    theta = (0.31, -0.12)
    h = 1.0 / 27.0
    variants = [(2, 0), (1, 1), (0, 2)]
    spectra = []
    for nu1, nu2 in variants:
        e = twogrid.two_grid_symbol(theta, nu1, nu2, p, pair, h)
        spectra.append(np.sort_complex(np.round(np.linalg.eigvals(e), 10)))
    assert np.abs(spectra[0] - spectra[1]).max() < 1e-8
    assert np.abs(spectra[1] - spectra[2]).max() < 1e-8


def test_factor_table_matches_single_factor_calls():
    # the batched table is the maximum over the offset low samples of the
    # single-sample oracle, for any pre/post split of the smoothing steps
    p = reference_params("qdr")
    pair = TransferPair("p25t")
    h = 1.0 / 27.0
    table = twogrid.two_grid_factor_table(p, pair, nus=(1, 2), n=27, h=h)
    for nu1, nu2 in ((1, 0), (2, 0), (1, 1)):
        single = max(
            float(np.abs(np.linalg.eigvals(
                twogrid.two_grid_symbol(theta, nu1, nu2, p, pair, h))).max())
            for theta in symbols.low_freq_samples(27)
        )
        assert abs(table[nu1 + nu2] - single) < 1e-12, (nu1, nu2)


def test_factor_table_handles_unsorted_nus():
    p = reference_params("quzawa")
    pair = TransferPair("r9")
    a = twogrid.two_grid_factor_table(p, pair, nus=(3, 1), n=27, h=1.0 / 27.0)
    b = twogrid.two_grid_factor_table(p, pair, nus=(1, 3), n=27, h=1.0 / 27.0)
    assert set(a) == {1, 3}
    for nu in (1, 3):
        assert abs(a[nu] - b[nu]) < 1e-14


def test_factors_decrease_with_more_smoothing():
    pair = TransferPair("p25t")
    for scheme in symbols.SCHEMES:
        table = twogrid.two_grid_factor_table(
            reference_params(scheme), pair, nus=(1, 2, 3, 4), n=27, h=1.0 / 27.0
        )
        vals = [table[nu] for nu in (1, 2, 3, 4)]
        assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:])), scheme
        assert all(0.0 < v < 1.0 for v in vals), scheme


def test_smoke_cells_against_published_factors():
    # coarse sampling (n = 27) reproduces a spread of published two-grid
    # factors within 0.03; the full 48-cell sweep runs in the acceptance tests
    cells = [
        ("qdr", "p25t", 1, 0.387),
        ("qdr", "r9", 4, 0.126),
        ("qbsr", "r9b", 2, 0.149),
        ("quzawa", "p25t", 2, 0.361),
        ("quzawa", "r1", 1, 0.642),
    ]
    for scheme, restrict, nu, published in cells:
        got = twogrid.two_grid_factor_table(
            reference_params(scheme), TransferPair(restrict), nus=(nu,), n=27, h=1.0 / 27.0
        )[nu]
        assert abs(got - published) < 0.03, (scheme, restrict, nu, got)


def test_periodic_lattice_factor_zero_base_family():
    # on a lattice the zero base contributes pure relaxation on its eight
    # nonzero harmonics; the returned factor can never drop below that
    p = reference_params("qdr")
    pair = TransferPair("p25t")
    n = 9
    rho = twogrid.periodic_lattice_factor(p, pair, 1, 0, n)
    zero_freqs = twogrid._harmonic_freqs(np.zeros(2))
    keep = [a for a in range(9) if a != twogrid.BASE_INDEX]
    s = symbols.relax_error_symbol(p, zero_freqs[keep], 1.0 / n)
    rho_zero = float(np.abs(np.linalg.eigvals(s)).max())
    assert rho >= rho_zero - 1e-14
    assert 0.0 < rho < 1.0
    # the factor depends on nu1 + nu2 only
    split = twogrid.periodic_lattice_factor(p, pair, 2, 1, n)
    assert abs(split - twogrid.periodic_lattice_factor(p, pair, 3, 0, n)) < 1e-12


def test_factors_reject_inputs_they_cannot_compute():
    # a negative count would be the radius of an inverse smoother power, and
    # a lattice factor needs n = 3 * 3**k with a nonzero low base (n >= 9)
    p, pair = reference_params("qdr"), TransferPair("p25t")
    for nus in ((-1,), (), (2, -1)):
        with pytest.raises(ValueError, match="smoothing counts"):
            twogrid.two_grid_factor_table(p, pair, nus=nus, n=27, h=1.0 / 27.0)
    for nu1, nu2, n in ((-1, 0, 9), (0, -1, 9), (-1, 3, 9), (1, 0, 3)):
        with pytest.raises(ValueError, match="lattice factor needs"):
            twogrid.periodic_lattice_factor(p, pair, nu1, nu2, n=n)
    with pytest.raises(ValueError, match=r"3 \* 3\*\*k"):
        twogrid.periodic_lattice_factor(p, pair, 1, 0, n=10)
    # a count of zero stays legal: the coarse-grid correction alone
    assert twogrid.two_grid_factor_table(p, pair, nus=(0,), n=27, h=1.0 / 27.0)[0] > 0.0
    assert twogrid.periodic_lattice_factor(p, pair, 0, 0, n=9) > 0.0


def test_two_grid_factor_limit_at_zero_depends_on_direction():
    # near theta = 0 the (r1, qbsr, nu=1) two-grid factor depends on the
    # direction of approach, so its sampled maximum depends on how close to
    # the axes the lattice falls; the p25t factor has a single limit
    h = 1.0 / 81.0
    r = 1e-3
    axis = (r, 0.0)
    diagonal = (r / np.sqrt(2.0), r / np.sqrt(2.0))
    p = reference_params("qbsr")

    def rho(restrict, theta):
        e = twogrid.two_grid_symbol(theta, 1, 0, p, TransferPair(restrict), h)
        return float(np.abs(np.linalg.eigvals(e)).max())

    assert abs(rho("r1", axis) - 0.546) < 2e-3
    assert abs(rho("r1", diagonal) - 0.446) < 2e-3
    assert abs(rho("p25t", axis) - 0.234) < 1e-3
    assert abs(rho("p25t", diagonal) - 0.234) < 1e-3


def _bases_passed(monkeypatch, call) -> np.ndarray:
    """The bases a factor routine hands to ``_max_radius``."""
    seen = []

    def record(bases, params, pair, h, nus):
        seen.append(np.asarray(bases))
        return {nu: 0.0 for nu in nus}

    monkeypatch.setattr(twogrid, "_max_radius", record)
    call()
    assert len(seen) == 1
    return seen[0]


def _alias_edge(q, edge):
    """Integer frequency ``q`` with the edge ``edge`` (pi/3, if it is a lattice
    value) folded to ``-edge``."""
    return -edge if q == edge else q


def _square_images(points, edge):
    """Integer frequency pairs under the eight maps of the square, edge aliased."""
    images = set()
    for a, b in points:
        for x, y in ((a, b), (b, a)):
            for sx in (1, -1):
                for sy in (1, -1):
                    images.add((_alias_edge(sx * x, edge), _alias_edge(sy * y, edge)))
    return images


@pytest.mark.parametrize("n, count", [(9, 3), (18, 6), (27, 15), (81, 105)])
def test_offset_wedge_covers_the_low_samples(monkeypatch, n, count):
    # in units of pi/n the offset samples are odd integers and the low set
    # is [-n/3, n/3); the edge sample -pi/3 exists only when n/3 is odd, and
    # the wedge holds it as its alias +pi/3, so both sides fold the edge.
    wedge = _bases_passed(monkeypatch, lambda: twogrid.two_grid_factor_table(
        reference_params("qdr"), TransferPair("p25t"), nus=(1, 2, 3, 4), n=n, h=1.0 / n))
    assert np.all(wedge[:, 0] >= wedge[:, 1]) and np.all(wedge[:, 1] >= 0.0)
    units = [tuple(p) for p in np.rint(wedge * n / np.pi).astype(int)]
    assert len(units) == len(set(units)) == count
    edge = n // 3
    full = {(_alias_edge(a, edge), _alias_edge(b, edge))
            for a, b in np.rint(symbols.low_freq_samples(n) * n / np.pi).astype(int)}
    assert _square_images(units, edge) == full


@pytest.mark.parametrize("n, count", [(9, 2), (27, 14), (81, 104)])
def test_periodic_wedge_covers_the_nonzero_lattice(monkeypatch, n, count):
    wedge = _bases_passed(monkeypatch, lambda: twogrid.periodic_lattice_factor(
        reference_params("qdr"), TransferPair("p25t"), 1, 0, n))
    assert np.all(wedge[:, 0] >= wedge[:, 1]) and np.all(wedge[:, 1] >= 0.0)
    units = [tuple(p) for p in np.rint(wedge * n / (2.0 * np.pi)).astype(int)]
    assert len(units) == len(set(units)) == count
    kmax = (n // 3 - 1) // 2
    full = {(k1, k2) for k1 in range(-kmax, kmax + 1) for k2 in range(-kmax, kmax + 1)
            if (k1, k2) != (0, 0)}
    assert _square_images(units, None) == full


# every distinct parameter set of the published tables
_TABLE_PARAMS = list(dict.fromkeys(
    reference_params(s, purpose) for s in symbols.SCHEMES for purpose in ("lfa", "measured")))


def _unpruned(bases, params, pair, h, nus):
    """The largest radius of ``C S^nu`` over the bases by ``eigvals`` on every
    base, with the powers and ``E`` formed as ``_max_radius`` forms them: the
    unpruned reference for its factors."""
    smo, prolong, z = twogrid._error_symbols(bases, params, pair, h)
    out, power = {}, np.broadcast_to(np.eye(3), smo.shape).copy()
    for nu in range(1, max(nus) + 1):
        power = smo @ power
        if nu in nus:
            e = twogrid._error_matrices(power, prolong, z, None)
            out[nu] = float(np.abs(np.linalg.eigvals(e)).max())
    return out


def _routed(monkeypatch, call):
    """``call()``'s result and the bases its one ``_max_radius`` call got."""
    seen, real = [], twogrid._max_radius

    def record(bases, *args):
        seen.append(np.asarray(bases))
        return real(bases, *args)

    monkeypatch.setattr(twogrid, "_max_radius", record)
    got = call()
    monkeypatch.setattr(twogrid, "_max_radius", real)
    assert len(seen) == 1
    return got, seen[0]


@pytest.mark.parametrize("params", _TABLE_PARAMS, ids=lambda p: f"{p.scheme}-a{p.alpha:.2f}")
def test_wedge_table_matches_full_lattice(params):
    # the full offset low lattice is the oracle: every restriction at n = 27,
    # and the p25t row at the published resolution 81
    nus = (1, 2, 3, 4)
    cases = [(r, 27) for r in stencils.RESTRICTIONS] + [("p25t", 81)]
    for restrict, n in cases:
        pair = TransferPair(restrict)
        want = _unpruned(symbols.low_freq_samples(n), params, pair, 1.0 / n, nus)
        got = twogrid.two_grid_factor_table(params, pair, nus=nus, n=n, h=1.0 / n)
        for nu in nus:
            assert abs(got[nu] - want[nu]) < 1e-10, (restrict, n, nu)


@pytest.mark.parametrize("params", _TABLE_PARAMS, ids=lambda p: f"{p.scheme}-a{p.alpha:.2f}")
def test_wedge_lattice_factor_matches_full_lattice(params):
    # the whole nonzero lattice 2 pi k / n, |k| < n/6, is the oracle
    n = 27
    h = 1.0 / n
    ks = 2.0 * np.pi * np.arange(-4, 5) / n
    t1, t2 = np.meshgrid(ks, ks, indexing="ij")
    bases = np.stack([t1.ravel(), t2.ravel()], axis=-1)
    bases = bases[np.abs(bases).max(axis=-1) > 0.0]
    zero_freqs = np.delete(twogrid._harmonic_freqs(np.zeros(2)), twogrid.BASE_INDEX, axis=0)
    for restrict in stencils.RESTRICTIONS:
        pair = TransferPair(restrict)
        for nu in (1, 2):
            s = np.linalg.matrix_power(symbols.relax_error_symbol(params, zero_freqs, h), nu)
            rho_zero = float(np.abs(np.linalg.eigvals(s)).max())
            want = max(_unpruned(bases, params, pair, h, (nu,))[nu], rho_zero)
            got = twogrid.periodic_lattice_factor(params, pair, nu, 0, n)
            assert abs(got - want) < 1e-10, (restrict, nu)


@pytest.mark.parametrize("params", _TABLE_PARAMS, ids=lambda p: f"{p.scheme}-a{p.alpha:.2f}")
def test_pruned_factors_are_bitwise_the_unpruned_ones(monkeypatch, params):
    # the power-norm bound only skips eigvals: the base that holds the
    # maximum is always solved, on the same matrix
    nus = (1, 2, 3, 4)
    for restrict in stencils.RESTRICTIONS:
        pair = TransferPair(restrict)
        for n in (9, 27, 81):
            got, bases = _routed(monkeypatch, lambda: twogrid.two_grid_factor_table(
                params, pair, nus=nus, n=n, h=1.0 / n))
            assert got == _unpruned(bases, params, pair, 1.0 / n, nus), (restrict, n)
        got, bases = _routed(monkeypatch, lambda: twogrid._max_radius(
            twogrid._wedge(2.0 * np.pi * np.arange(5) / 27)[1:], params, pair, 1.0 / 27, nus))
        assert got == _unpruned(bases, params, pair, 1.0 / 27, nus), restrict


def test_no_table_hands_eigvals_an_empty_batch(monkeypatch):
    # when no chunk keeps a base past its own solves, the second dispatch
    # is skipped; the factors are still bitwise the unpruned ones
    sizes, lock, eigvals = [], threading.Lock(), np.linalg.eigvals

    def counted(a):
        with lock:
            sizes.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for scheme in symbols.SCHEMES:
        for restrict in stencils.RESTRICTIONS:
            params, pair = reference_params(scheme), TransferPair(restrict)
            got, bases = _routed(monkeypatch, lambda: twogrid.two_grid_factor_table(
                params, pair, nus=(1, 2, 3, 4), n=27, h=1.0 / 27))
            assert 0 not in sizes, (scheme, restrict, sizes)
            assert got == _unpruned(bases, params, pair, 1.0 / 27, (1, 2, 3, 4)), (scheme, restrict)
            sizes.clear()


def test_the_bound_prunes_most_eigvals(monkeypatch):
    sizes, lock, eigvals = [], threading.Lock(), np.linalg.eigvals

    def counted(a):
        with lock:
            sizes.append(a.size // 27**2)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    twogrid.two_grid_factor_table(reference_params("qdr"), TransferPair("p25t"),
                                  nus=(1, 2, 3, 4), n=81, h=1.0 / 81)
    assert sum(sizes) < 0.3 * 105 * 4, sizes


@pytest.mark.parametrize("scale", (2.0**60, 2.0**-60), ids=("huge", "tiny"))
def test_bounds_of_huge_and_tiny_radii_keep_the_factor(monkeypatch, scale):
    # radii near 1e17 and 1e-19: their 256th powers over- and underflow
    # unless the bound rescales every square, and with no rescaling the
    # tiny ones all bound to zero and prune the maximum
    params, pair, h = reference_params("qdr"), TransferPair("p25t"), 1.0 / 27
    error_matrices = twogrid._error_matrices

    def scaled(*args):
        e = error_matrices(*args)
        e *= scale
        return e

    monkeypatch.setattr(twogrid, "_error_matrices", scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, bases = _routed(monkeypatch, lambda: twogrid.two_grid_factor_table(
            params, pair, nus=(1, 2, 3, 4), n=27, h=h))
    assert got == _unpruned(bases, params, pair, h, (1, 2, 3, 4))
    assert min(got.values()) > 1e16 if scale > 1.0 else max(got.values()) < 1e-17


def test_radius_bounds_hold_and_need_no_warnings():
    rng = np.random.default_rng(7)
    e = rng.standard_normal((6, 27, 27))
    e[1] *= 1e300
    e[2] *= 1e-300
    e[3] = 0.0
    e[4] = np.triu(e[4], 1)  # nilpotent: radius 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound, rho, solved = twogrid._radius_bounds(e, e.__getitem__, 1, np.empty((2,) + e.shape))
    radius = np.abs(np.linalg.eigvals(e)).max(axis=-1)
    assert np.all(bound >= radius * (1.0 - twogrid._MARGIN)) and bound[3] == 0.0
    assert np.all(bound[[0, 1, 2, 5]] <= 1.5 * radius[[0, 1, 2, 5]])
    # the largest radius is solved, on E itself
    assert solved == {1} and rho[0] == radius[1]


def _crafted(monkeypatch, make):
    """Route ``_max_radius`` and ``_unpruned`` to crafted matrices:
    ``_error_symbols`` hands each base's first frequency on as its
    prolongation weights, and ``_error_matrices`` returns ``make(theta1)``
    for each base, whatever the smoothing count."""

    def error_symbols(thetas, *args):
        thetas = np.asarray(thetas, dtype=float).reshape(-1, 2)
        ns = len(thetas)
        return (np.broadcast_to(np.eye(3), (ns, 9, 3, 3)).copy(),
                np.broadcast_to(thetas[:, :1, None], (ns, 9, 3)).copy(),
                np.zeros((ns, 9, 3, 3)))

    def error_matrices(power, prolong, z, out=None):
        return np.array([make(theta) for theta in prolong[:, 0, 0]]).reshape(-1, 27, 27)

    monkeypatch.setattr(twogrid, "_error_symbols", error_symbols)
    monkeypatch.setattr(twogrid, "_error_matrices", error_matrices)


def test_an_underflowing_power_never_prunes_the_maximum(monkeypatch):
    # the maximising base's E = 1e-25 I + N with N^2 = 0 has a radius 1e-25 of
    # its Frobenius norm, so its 16th power, about 16e-375 N, underflows
    # between renormalisations; the others are diagonal with radii up to 8e-27,
    # and a bound of 0 for the first would prune it against them
    bases = np.stack([np.arange(1.0, 9.0), np.zeros(8)], axis=-1)
    params, pair, h = reference_params("qdr"), TransferPair("p25t"), 1.0 / 27

    def make(theta):
        e = np.diag(np.full(27, 1e-25 if theta == 5.0 else 1e-27 * theta))
        e[0, 1] = 1.0 if theta == 5.0 else 0.0
        return e

    _crafted(monkeypatch, make)
    nus = (1, 2, 3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = twogrid._max_radius(bases, params, pair, h, nus)
    assert got == _unpruned(bases, params, pair, h, nus)
    assert all(abs(r - 1e-25) < 1e-30 for r in got.values()), got


def test_a_maximum_below_the_largest_16th_power_bound_is_found(monkeypatch):
    # base 4 carries a 2x2 Jordan block of eigenvalue 0.5 that balancing
    # cannot shrink (its rows and columns have equal norms), so its bound at
    # the 16th power, about 0.998, tops the chunk and is solved first; base 2
    # holds the maximum 0.9 and must survive that pruning to be solved at 256
    bases = np.stack([np.arange(1.0, 7.0), np.zeros(6)], axis=-1)
    params, pair, h = reference_params("qdr"), TransferPair("p25t"), 1.0 / 27
    c = 1000.0

    def make(theta):
        e = np.diag(np.full(27, 0.1 if theta in (2.0, 4.0) else 0.05 * theta))
        if theta == 2.0:
            e[0, 0] = 0.9
        if theta == 4.0:
            e[:2, :2] = [[0.5 + c, c], [-c, 0.5 - c]]
        return e

    def bound16(e):
        a, t = twogrid._balance(e[None], np.empty((1, 27, 27)))
        return float(np.linalg.norm(np.linalg.matrix_power(a[0], 16)) ** (1 / 16) * 2.0 ** t[0])

    assert bound16(make(4.0)) > 0.99 > bound16(make(2.0)) >= 0.9 > bound16(make(6.0))
    _crafted(monkeypatch, make)
    monkeypatch.setattr(grid, "BANDS", 1)
    solved, eigvals = [], np.linalg.eigvals

    def recorded(a):
        solved.append(np.asarray(a).copy())
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    nus = (1, 2)
    got = twogrid._max_radius(bases, params, pair, h, nus)
    # for both counts at once: base 4 at the 16th power, then base 2 at the 256th
    assert [len(m) for m in solved[:2]] == [len(nus), len(nus)]
    assert all(np.array_equal(m, make(4.0)) for m in solved[0])
    assert all(np.array_equal(m, make(2.0)) for m in solved[1])
    assert got == _unpruned(bases, params, pair, h, nus)
    assert all(abs(r - 0.9) < 1e-15 for r in got.values()), got


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_error_matrices_are_the_real_form_of_the_dense_symbol(scheme):
    # E = blockdiag(S^nu) - P (Z S^nu) from the 3x3 blocks is D^-1 E D of
    # the dense complex oracle, base by base: the blocks expand, the
    # transfers place their weights and the real form discards nothing
    params, pair, h = reference_params(scheme), TransferPair("r9b"), 1.0 / 27
    bases = symbols.low_freq_samples(27)[::7]
    smo, prolong, z = twogrid._error_symbols(bases, params, pair, h)
    d = np.tile([1.0, 1.0, 1.0j], 9)
    power = np.broadcast_to(np.eye(3), smo.shape).copy()
    for nu in (1, 2, 3):
        power = smo @ power
        e = twogrid._error_matrices(power, prolong, z, None)
        assert e.dtype == np.float64
        for b, theta in enumerate(bases):
            dense = twogrid.two_grid_symbol(theta, nu, 0, params, pair, h)
            real = dense * np.outer(d.conj(), d)
            scale = np.abs(dense).max()
            assert np.abs(real.imag).max() <= 1e-13 * scale, (nu, b)
            assert np.abs(real.real - e[b]).max() <= 1e-13 * scale, (nu, b)


def test_balancing_is_exact_keeps_the_radii_and_the_bounds_hold():
    # one power-of-two diagonal similarity per matrix: every nonzero entry
    # stays a normal number below 1, a ratio of powers of two to its
    # original, so the radii are those of E over 2^t; zero rows and
    # columns and entries near 1e+-300 need no special case.  Matrix 6 spans
    # more than the normal range, so its smallest entry cannot stay normal:
    # it is not balanced, and its bound still holds.  Nothing warns.
    rng = np.random.default_rng(11)
    graded = np.exp2(rng.integers(-8, 9, (6, 27)))
    e = rng.standard_normal((8, 27, 27)) * graded[[0, 1, 2, 3, 4, 5, 0, 1], None, :]
    e /= graded[[0, 1, 2, 3, 4, 5, 0, 1], :, None]  # D^-1 G D: rows and columns graded
    e[1] *= 1e300
    e[2] *= 1e-300
    e[3][[3, 7]] = 0.0
    e[3][:, [5, 9]] = 0.0
    e[4] = 0.0
    e[5] = np.triu(e[5], 1)  # nilpotent: radius 0
    e[6][0, 1], e[6][1, 0] = 1e300, 1e-300  # a span of 2^1993
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, t = twogrid._balance(e, np.empty_like(e))
        bound, rho, solved = twogrid._radius_bounds(e, e.__getitem__, 1, np.empty((2,) + e.shape))
    exact = [0, 1, 2, 3, 4, 5, 7]
    nonzero = e[exact] != 0.0
    assert np.array_equal(a[exact] != 0.0, nonzero)
    assert np.abs(a[exact][nonzero]).min() >= np.finfo(float).tiny
    assert np.abs(a).max(axis=(1, 2))[[0, 1, 2, 3, 5, 6, 7]].min() >= 0.5
    assert np.abs(a).max() < 1.0
    mantissa, _ = np.frexp(a[exact][nonzero] / e[exact][nonzero])
    assert np.all(mantissa == 0.5)  # a / e is a power of two
    assert np.abs(a[6]).max() >= 0.5 and a[6][1, 0] == 0.0
    radius = np.abs(np.linalg.eigvals(e)).max(axis=-1)
    balanced = np.abs(np.linalg.eigvals(a)).max(axis=-1)
    for m in (0, 1, 2, 3, 6, 7):
        assert abs(np.log(balanced[m]) + t[m] * np.log(2.0) - np.log(radius[m])) < 1e-12, m
    assert bound[4] == 0.0 and balanced[4] == 0.0
    assert np.all(bound >= radius * (1.0 - twogrid._MARGIN))
    assert rho[0] == radius[list(solved)].max()


@pytest.mark.parametrize("params", _TABLE_PARAMS, ids=lambda p: f"{p.scheme}-a{p.alpha:.2f}")
def test_real_factor_table_matches_complex_oracle(params):
    # the table runs in real arithmetic on D^-1 E D; the oracle is the
    # complex two-grid symbol at every offset low sample
    n = 27
    h = 1.0 / n
    for restrict in stencils.RESTRICTIONS:
        pair = TransferPair(restrict)
        table = twogrid.two_grid_factor_table(params, pair, nus=(1, 2), n=n, h=h)
        for nu in (1, 2):
            oracle = max(
                float(np.abs(np.linalg.eigvals(
                    twogrid.two_grid_symbol(theta, nu, 0, params, pair, h))).max())
                for theta in symbols.low_freq_samples(n)
            )
            assert abs(table[nu] - oracle) < 1e-12, (restrict, nu)


@pytest.mark.parametrize("params", _TABLE_PARAMS, ids=lambda p: f"{p.scheme}-a{p.alpha:.2f}")
def test_similarity_discards_an_exact_zero(params):
    # velocity-pressure entries are purely imaginary and the rest real, so
    # D^-1 X D drops an imaginary part that is exactly zero from every 3x3
    # Stokes, smoother and coarse block, on the offset and the periodic low
    # lattices alike; the transfer weights are real
    n = 27
    ks = 2.0 * np.pi * np.arange(-4, 5) / n
    t1, t2 = np.meshgrid(ks, ks, indexing="ij")
    lattice = np.stack([t1.ravel(), t2.ravel()], axis=-1)
    lattice = lattice[np.abs(lattice).max(axis=-1) > 0.0]
    for bases in (symbols.low_freq_samples(n), lattice):
        for restrict in stencils.RESTRICTIONS:
            stokes, smo, coarse, prolong, weights = twogrid._blocks(
                bases, params, TransferPair(restrict), 1.0 / n)
            assert prolong.dtype == weights.dtype == np.float64
            for blocks in (stokes, smo, coarse):
                sim = blocks * twogrid._SIMILARITY
                assert np.abs(sim.imag).max() == 0.0
                real = twogrid._real_form(blocks)
                assert real.dtype == np.float64
                assert np.array_equal(real, sim.real)


def test_real_form_rejects_a_symbol_without_the_pattern(monkeypatch):
    stokes = twogrid._blocks(np.array([0.3, 0.1]), reference_params("qdr"),
                             TransferPair("p25t"), 1.0 / 27.0)[0]
    assert twogrid._real_form(stokes).shape == (1, 9, 3, 3)
    bad = stokes.copy()
    bad[0, 4, 0, 1] += 0.5j  # a complex velocity-velocity entry
    with pytest.raises(np.linalg.LinAlgError):
        twogrid._real_form(bad)
    bad = stokes.copy()
    bad[0, 4, 0, 2] = 1.0  # a real velocity-pressure entry
    with pytest.raises(np.linalg.LinAlgError):
        twogrid._real_form(bad)
    # a smoother symbol without the pattern stops a table the same way
    relax = symbols.relax_error_symbol
    monkeypatch.setattr(symbols, "relax_error_symbol", lambda *args: relax(*args) + 0.5j)
    with pytest.raises(np.linalg.LinAlgError):
        twogrid.two_grid_factor_table(reference_params("qdr"), TransferPair("p25t"),
                                      nus=(1, 2, 3, 4), n=27, h=1.0 / 27)
