"""Relaxation sweeps: per-mode consistency with the symbols, fixed points,
gauge preservation, and the Schur helper."""

import numpy as np
import pytest

from conftest import apply
from mac3mg import assemble, grid, symbols
from mac3mg.smoothers import SchurOperator, Smoother
from mac3mg.symbols import RelaxParams, reference_params


def lattice_thetas(n, count, seed):
    """Random nonzero lattice frequencies 2 pi k / n."""
    rng = np.random.default_rng(seed)
    ks = [(k1, k2) for k1 in range(n) for k2 in range(n) if (k1, k2) != (0, 0)]
    idx = rng.choice(len(ks), size=count, replace=False)
    return [ks[i] for i in idx]


def probe_mode_matrix(scheme_params, n, theta):
    """3x3 matrix action of one sweep on a single staggered Fourier mode."""
    sysm = grid.build_system(n, "periodic")
    sm = Smoother(sysm, scheme_params)
    cols = []
    for coeffs in np.eye(3):
        st = grid.fourier_state(n, theta, coeffs.astype(complex))
        sm.sweep(st, sysm.residual(st, None))
        cols.append(grid.mode_coefficients(st, theta))
    return np.stack(cols, axis=1)


def probe_params(scheme):
    """The reference and measured parameters of a scheme, and one set away from
    both: ``alpha != 1``, ``sigma != 15/32`` and ``omega_j != 0.9``, so that a
    parameter misplaced in the symbol cannot cancel."""
    off = RelaxParams(scheme, omega=0.83, alpha=1.21,
                      sigma=0.37 if scheme == "quzawa" else None,
                      omega_j=0.7 if scheme == "qibsr" else None)
    return list(dict.fromkeys([reference_params(scheme), reference_params(scheme, "measured"),
                               off]))


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_sweep_matches_error_symbol_per_mode(scheme):
    # with zero right-hand side the state is the error, so one sweep acts on
    # a staggered Fourier mode exactly as the 3x3 error symbol
    n = 27
    for params in probe_params(scheme):
        for k1, k2 in lattice_thetas(n, 20, seed=symbols.SCHEMES.index(scheme)):
            theta = (2 * np.pi * k1 / n, 2 * np.pi * k2 / n)
            got = probe_mode_matrix(params, n, theta)
            want = symbols.relax_error_symbol(params, np.array(theta), h=1.0 / n)
            assert np.abs(got - want).max() < 1e-12, (params, k1, k2)


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_sweep_adds_its_correction_map_applied_to_the_given_residual(scheme):
    # the state holds one mode and r another: the sweep adds omega K r, K the
    # correction map of the symbols, and leaves the state's own mode alone
    n = 27
    rng = np.random.default_rng(symbols.SCHEMES.index(scheme))
    sysm = grid.build_system(n, "periodic")
    ks = lattice_thetas(n, 10, seed=symbols.SCHEMES.index(scheme) + 10)
    for params in probe_params(scheme):
        sm = Smoother(sysm, params)
        for k, j in zip(ks[::2], ks[1::2]):
            theta, theta_x = (2 * np.pi * np.array(m) / n for m in (k, j))
            c, x0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            st = grid.fourier_state(n, theta_x, x0)
            sm.sweep(st, grid.fourier_state(n, theta, c))
            want = params.omega * symbols._step_symbol(params, theta, 1.0 / n) @ c
            got = grid.mode_coefficients(st, theta)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (params, k)
            kept = grid.mode_coefficients(st, theta_x)
            assert np.abs(kept - x0).max() <= 1e-12 * np.abs(want).max(), (params, j)


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
@pytest.mark.parametrize("bc", grid.BCS)
def test_exact_solution_is_a_fixed_point(scheme, bc):
    n = 9
    sysm = grid.build_system(n, bc)
    sol = grid.random_state(n, bc, seed=3)
    rhs = apply(sysm, sol)
    params = reference_params(scheme)
    st = sol.copy()
    Smoother(sysm, params).sweep(st, sysm.residual(st, rhs))
    assert np.linalg.norm(st.flat() - sol.flat()) < 1e-11 * max(1.0, sol.norm())


@pytest.mark.parametrize("scheme", symbols.SCHEMES)
def test_sweep_preserves_gauge_on_periodic_grids(scheme):
    n = 9
    sysm = grid.build_system(n, "periodic")
    st = grid.random_state(n, "periodic", seed=11)
    Smoother(sysm, reference_params(scheme)).sweep(st, sysm.residual(st, None))
    assert abs(st.p.mean()) < 1e-13
    assert abs(st.u.mean()) < 1e-13
    assert abs(st.v.mean()) < 1e-13


def test_sweep_is_linear():
    n = 9
    sysm = grid.build_system(n, "dirichlet")
    params = reference_params("qdr")
    a = grid.random_state(n, "dirichlet", seed=5)
    b = grid.random_state(n, "dirichlet", seed=6)
    combo = grid.StaggeredState.from_flat(a.flat() + 2.5 * b.flat(), n, "dirichlet")
    sm = Smoother(sysm, params)
    for st in (a, b, combo):
        sm.sweep(st, sysm.residual(st, None))
    expect = a.flat() + 2.5 * b.flat()
    assert np.abs(combo.flat() - expect).max() < 1e-12


@pytest.mark.parametrize("bc", grid.BCS)
def test_schur_operator_solve(bc):
    n = 9
    op = SchurOperator(n, bc)
    mat = assemble.assemble_schur(n, bc)
    assert np.all(op.diag > 0.0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, n))
    x -= x.mean()
    g = mat @ x.ravel()
    assert abs(g.mean()) < 1e-12  # range of S is mean-zero
    y = op.solve(g.reshape(n, n), np.empty((n, n)))
    assert abs(y.mean()) < 1e-12
    assert np.abs(y - x).max() < 1e-9
    # residual form as well, and complex right-hand sides
    xr = np.roll(x, 1, axis=0)
    gz = g + 1j * (mat @ (xr - xr.mean()).ravel())
    yz = op.solve(gz.reshape(n, n), np.empty((n, n), complex))
    assert np.abs(mat @ yz.ravel() - gz).max() < 1e-9


def test_schur_diagonal_is_constant_on_periodic_grids():
    n = 9
    op = SchurOperator(n, "periodic")
    assert np.abs(op.diag - op.diag[0]).max() < 1e-14
    # dimensionless self-weight 4/3 (h factors cancel in B Q B^T)
    assert abs(op.diag[0] - 4.0 / 3.0) < 1e-13


def test_per_mode_damping_on_the_lattice():
    # at the reference parameters every nonzero lattice mode is damped in the
    # spectral sense (single sweeps are non-normal and may grow transiently,
    # so the per-mode radius is the meaningful quantity) and the high modes
    # are damped at least at the advertised smoothing rate
    n = 27
    ks = [(k1, k2) for k1 in range(n) for k2 in range(n) if (k1, k2) != (0, 0)]
    thetas = np.array([[2 * np.pi * k1 / n, 2 * np.pi * k2 / n] for k1, k2 in ks])
    high = ~symbols.is_low(thetas)
    mu = {"qdr": 17.0 / 47.0, "qbsr": 17.0 / 47.0,
          "qibsr": 0.45, "quzawa": np.sqrt(17.0 / 47.0)}
    for scheme in symbols.SCHEMES:
        S = symbols.relax_error_symbol(reference_params(scheme), thetas, h=1.0 / n)
        rho = np.abs(np.linalg.eigvals(S)).max(axis=1)
        assert rho.max() < 1.0, scheme
        assert rho[high].max() <= mu[scheme] + 1e-6, scheme
