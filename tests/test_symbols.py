"""Block Fourier symbols of the saddle operator and the four relaxations."""

import numpy as np
import pytest

from mac3mg import analytic, stencils, symbols
from mac3mg.symbols import RelaxParams, reference_params


def rand_thetas(count, seed, lo=0.3, hi=2.9):
    """Frequencies bounded away from the singular point theta = 0."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(lo, hi, (count, 2))
    t *= rng.choice([-1.0, 1.0], (count, 2))
    return t


def test_stokes_symbol_structure():
    for t in rand_thetas(20, 1):
        s1 = np.sin(t[0] / 2.0)
        s2 = np.sin(t[1] / 2.0)
        m = s1**2 + s2**2
        h = 0.25
        expected = np.array(
            [
                [4 * m / h**2, 0, 2j * s1 / h],
                [0, 4 * m / h**2, 2j * s2 / h],
                [-2j * s1 / h, -2j * s2 / h, 0],
            ]
        )
        got = symbols.stokes_symbol(t, h)
        assert np.abs(got - expected).max() < 1e-12


def test_stokes_symbol_is_hermitian():
    # the saddle operator is real symmetric, so its staggered symbol is
    # Hermitian: the grad column is the conjugate of the neg-div row
    for t in rand_thetas(10, 2):
        L = symbols.stokes_symbol(t)
        assert np.abs(L - L.conj().T).max() < 1e-13


def test_mass_symbol_and_m_r_match_polynomial():
    # m_r = 4 m q equals (2/9) g(cos t1, cos t2) with g the quartic used by
    # the closed-form optimization
    for t in rand_thetas(50, 4, lo=0.0, hi=np.pi):
        m, m_s, m_r = symbols.aux(t)
        q = stencils.symbol(stencils.MASS, t)
        c1, c2 = np.cos(t)
        assert abs(q - (4 + 2 * c1 + 2 * c2 + c1 * c2) / 9.0) < 1e-13
        assert abs(m_s * q - 1.0) < 1e-13
        assert abs(m_r - 4.0 * m * q) < 1e-13
        assert abs(m_r - (2.0 / 9.0) * analytic.g(c1, c2)) < 1e-12


def test_m_r_range_on_high_frequencies():
    m_r = symbols.aux(symbols.high_freq_samples(243)).m_r
    assert m_r.min() >= 5.0 / 6.0 - 1e-12
    assert m_r.max() <= 16.0 / 9.0 + 1e-12
    # both bounds are approached under refinement
    assert m_r.min() < 5.0 / 6.0 + 2e-3
    assert m_r.max() > 16.0 / 9.0 - 2e-3


def test_schur_jacobi_weight_is_four_thirds():
    # the stencil coefficient at offset zero is the mean of its symbol over
    # any lattice finer than the stencil degree; an 8x8 lattice is exact
    k = 2.0 * np.pi * np.arange(8) / 8.0
    t1, t2 = np.meshgrid(k, k, indexing="ij")
    lattice = np.stack([t1.ravel(), t2.ravel()], axis=-1)
    mean = float(np.mean(symbols.aux(lattice).m_r))
    assert abs(mean - symbols.SCHUR_JACOBI_WEIGHT) < 1e-14
    assert symbols.SCHUR_JACOBI_WEIGHT == 4.0 / 3.0


def test_canonicalize_and_region_predicates():
    assert np.allclose(symbols.canonicalize([2 * np.pi, -2 * np.pi]), [0.0, 0.0])
    assert np.allclose(symbols.canonicalize([np.pi, -np.pi]), [-np.pi, -np.pi])
    assert symbols.is_low([0.1, -0.2])
    assert not symbols.is_low([np.pi / 2, 0.0])
    # half-open region edges, probed strictly inside and outside to stay
    # clear of canonicalization roundoff
    assert symbols.is_low([-np.pi / 3 + 1e-9, 0.0])
    assert not symbols.is_low([-np.pi / 3 - 1e-9, 0.0])
    assert not symbols.is_low([np.pi / 3 + 1e-9, 0.0])


def test_sample_lattices_partition_and_avoid_axes():
    n = 27
    high = symbols.high_freq_samples(n)
    low = symbols.low_freq_samples(n)
    assert len(high) + len(low) == n * n
    assert len(low) == n * n // 9
    assert not np.any(symbols.is_low(high))
    assert np.all(symbols.is_low(low))
    # offset sampling never touches the axes or the zero frequency
    assert np.abs(high).min() > 1e-8
    assert np.abs(low).min() > 1e-8


@pytest.mark.parametrize("n", (9, 27, 81, 243))
def test_sample_counts_and_integer_units(n):
    # in units of pi/n the offset samples are the odd integers of [-n, n),
    # and the low ones exactly those of [-n/3, n/3)
    low, high = symbols.low_freq_samples(n), symbols.high_freq_samples(n)
    assert len(low) == n * n // 9 and len(high) == 8 * n * n // 9

    def units(t):
        u = t * n / np.pi
        assert np.abs(u - np.rint(u)).max() < 1e-9
        return {tuple(q) for q in np.rint(u).astype(int)}

    odd_low = range(-(n // 3), n // 3, 2)
    odd_all = range(-n, n, 2)
    assert units(low) == {(a, b) for a in odd_low for b in odd_low}
    assert units(high) == {(a, b) for a in odd_all for b in odd_all} - units(low)
    assert len(units(high)) == len(high)


def test_sample_lattice_rejects_bad_resolution():
    with pytest.raises(ValueError):
        symbols.high_freq_samples(40)
    with pytest.raises(ValueError):
        symbols.high_freq_samples(6)


def test_relax_params_validation():
    with pytest.raises(ValueError):
        RelaxParams("nope", omega=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        RelaxParams("qdr", omega=-0.1, alpha=1.0)
    with pytest.raises(ValueError):
        RelaxParams("qdr", omega=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        RelaxParams("quzawa", omega=1.0, alpha=1.0)  # missing sigma
    with pytest.raises(ValueError):
        RelaxParams("qibsr", omega=1.0, alpha=1.0)  # missing omega_j
    with pytest.raises(ValueError):
        RelaxParams("qibsr", omega=1.0, alpha=1.0, omega_j=2.5)
    # a given sigma or omega_j is range-checked whatever the scheme
    with pytest.raises(ValueError):
        RelaxParams("qdr", 0.7, 1.0, omega_j=5.0)
    with pytest.raises(ValueError):
        RelaxParams("qbsr", 0.7, 1.0, sigma=0.0)
    # non-finite values slip past the sign checks unless rejected outright
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            RelaxParams("qdr", omega=bad, alpha=1.0)
        with pytest.raises(ValueError):
            RelaxParams("qdr", omega=1.0, alpha=bad)
        with pytest.raises(ValueError):
            RelaxParams("quzawa", omega=1.0, alpha=1.0, sigma=bad)
        with pytest.raises(ValueError):
            RelaxParams("qibsr", omega=1.0, alpha=1.0, omega_j=bad)
    # the symbols divide by alpha and sigma, so a subnormal one would overflow
    with pytest.raises(ValueError):
        RelaxParams("qdr", omega=1.0, alpha=1e-320)
    with pytest.raises(ValueError):
        RelaxParams("quzawa", omega=1.0, alpha=1.0, sigma=1e-320)
    RelaxParams("qdr", omega=1.0, alpha=1e-300)


def test_reference_params_values():
    p = reference_params("qdr")
    assert abs(p.omega - 36.0 / 47.0) < 1e-15 and p.alpha == 1.0
    p = reference_params("qdr", "measured")
    assert abs(p.omega - 0.7 * 36.0 / 47.0) < 1e-15 and p.alpha == 0.7
    p = reference_params("qbsr")
    assert abs(p.omega - 36.0 / 47.0) < 1e-15 and p.alpha == 1.0
    p = reference_params("qibsr")
    assert p.omega == 1.0 and abs(p.alpha - 47.0 / 36.0) < 1e-15 and p.omega_j == 0.9
    p = reference_params("quzawa")
    assert p.omega == 1.0 and abs(p.alpha - 47.0 / 36.0) < 1e-15
    assert abs(p.sigma - 15.0 / 32.0) < 1e-15
    with pytest.raises(ValueError):
        reference_params("qdr", "smoothing")


def test_error_symbol_is_identity_at_zero_damping():
    for scheme in symbols.SCHEMES:
        ref = reference_params(scheme)
        p = RelaxParams(scheme, 0.0, ref.alpha, sigma=ref.sigma, omega_j=ref.omega_j)
        for t in rand_thetas(5, 7):
            S = symbols.relax_error_symbol(p, t)
            assert np.abs(S - np.eye(3)).max() < 1e-12


def char_poly(mat):
    return np.poly(mat)


def test_qdr_error_symbol_has_triple_eigenvalue():
    # the distributive error symbol is defective: a single Jordan block with
    # eigenvalue 1 - omega m_r / alpha.  Compare characteristic polynomials,
    # never eigenvalue lists.
    p = RelaxParams("qdr", omega=0.61, alpha=0.83)
    for t in rand_thetas(20, 8):
        m_r = float(symbols.aux(t).m_r)
        lam = 1.0 - p.omega * m_r / p.alpha
        S = symbols.relax_error_symbol(p, t)
        assert np.abs(char_poly(S) - np.poly([lam] * 3)).max() < 1e-12


def test_qbsr_error_symbol_eigenvalues():
    # exact block solve: eigenvalues {1 - omega, 1 - omega, 1 - omega m_r/alpha}
    p = RelaxParams("qbsr", omega=0.77, alpha=1.21)
    for t in rand_thetas(20, 9):
        m_r = float(symbols.aux(t).m_r)
        roots = [1.0 - p.omega, 1.0 - p.omega, 1.0 - p.omega * m_r / p.alpha]
        S = symbols.relax_error_symbol(p, t)
        assert np.abs(char_poly(S) - np.poly(roots)).max() < 1e-12


def test_uzawa_error_symbol_eigenvalues():
    p = reference_params("quzawa")
    for t in rand_thetas(20, 10):
        m_r = float(symbols.aux(t).m_r)
        sp = analytic.uzawa_spectrum(m_r, p.alpha, p.sigma)
        roots = [1.0 - p.omega * lam for lam in (sp.lam1, sp.lam2, sp.lam3)]
        S = symbols.relax_error_symbol(p, t)
        assert np.abs(char_poly(S) - np.poly(roots)).max() < 1e-11


def test_smoother_symbols_broadcast():
    thetas = rand_thetas(13, 12)
    for scheme in symbols.SCHEMES:
        p = reference_params(scheme)
        batch = symbols.relax_error_symbol(p, thetas)
        assert batch.shape == (13, 3, 3)
        for k in range(13):
            single = symbols.relax_error_symbol(p, thetas[k])
            assert np.abs(batch[k] - single).max() < 1e-13


def test_smoothing_factor_reference_values():
    mu = np.sqrt(17.0 / 47.0)
    for scheme in ("qdr", "qbsr"):
        got = symbols.smoothing_factor(reference_params(scheme), n=81)
        assert abs(got - 17.0 / 47.0) < 1e-3, scheme
    got = symbols.smoothing_factor(reference_params("quzawa"), n=81)
    assert abs(got - mu) < 1e-3
    # the inexact Schur sweep cannot beat the exact one
    got_ibsr = symbols.smoothing_factor(reference_params("qibsr"), n=81)
    assert got_ibsr >= 17.0 / 47.0 - 1e-6
    assert got_ibsr < 0.45


@pytest.mark.parametrize("params", [reference_params("qdr", "lfa"),
                                    reference_params("qdr", "measured"),
                                    RelaxParams("qdr", omega=0.83, alpha=1.21)])
def test_qdr_smoothing_factor_is_the_triple_eigenvalue(params):
    # S has the one eigenvalue 1 - omega m_r / alpha, three times over
    theta = symbols.high_freq_samples(81)
    closed = np.abs(1.0 - params.omega * symbols.aux(theta).m_r / params.alpha).max()
    assert abs(symbols.smoothing_factor(params, n=81) - closed) < 1e-14
