"""Staggered fields and matrix-free operator actions.

Every matrix-free action is cross-checked against the independently built
sparse matrices, and the periodic operators against their Fourier symbols.
"""

import functools
import math

import numpy as np
import pytest

from conftest import apply, stencil
from mac3mg import assemble, grid, symbols
from mac3mg.grid import CELL_LAPLACIAN_SIGNS, PRESSURE_MASS_SIGNS, VELOCITY_SIGNS

MASS_SIGNS = {**VELOCITY_SIGNS, "p": PRESSURE_MASS_SIGNS}


def random_fields(n, bc, seed):
    rng = np.random.default_rng(seed)
    shapes = grid.field_shapes(n, bc)
    return {f: rng.standard_normal(shapes[f]) for f in ("u", "v", "p")}


def random_st(n, bc, seed):
    f = random_fields(n, bc, seed)
    return grid.StaggeredState(n, bc, f["u"], f["v"], f["p"])


# -- sizes, shapes, state plumbing ----------------------------------------


def test_check_size_accepts_triadic_sizes_only():
    for n in (3, 9, 27, 81, 243):
        grid.check_size(n)
    for n in (1, 2, 4, 6, 12, 18, 80, 82):
        with pytest.raises(ValueError):
            grid.check_size(n)


def test_field_shapes():
    assert grid.field_shapes(9, "periodic") == {"u": (9, 9), "v": (9, 9), "p": (9, 9)}
    assert grid.field_shapes(9, "dirichlet") == {"u": (8, 9), "v": (9, 8), "p": (9, 9)}
    with pytest.raises(ValueError):
        grid.field_shapes(9, "neumann")


def test_flat_roundtrip():
    for bc in grid.BCS:
        st = random_st(9, bc, 1)
        back = grid.StaggeredState.from_flat(st.flat(), 9, bc)
        assert np.array_equal(back.u, st.u)
        assert np.array_equal(back.v, st.v)
        assert np.array_equal(back.p, st.p)
    with pytest.raises(ValueError):
        grid.StaggeredState.from_flat(np.zeros(5), 9, "periodic")


def test_norm_matches_flat_vector_norm():
    st = random_st(9, "dirichlet", 2)
    assert abs(st.norm() - np.linalg.norm(st.flat())) < 1e-13


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("n", (27, 81, 243))
def test_norm_matches_exact_sum_of_squares(n, dtype):
    # norm sums with einsum, not BLAS; against a correctly rounded sum of the
    # squared real and imaginary parts
    rng = np.random.default_rng(n)
    fields = {}
    for name, shape in grid.field_shapes(n, "dirichlet").items():
        fields[name] = rng.standard_normal(shape)
        if dtype is complex:
            fields[name] = fields[name] + 1j * rng.standard_normal(shape)
    st = grid.StaggeredState(n, "dirichlet", **fields)
    squares = [x * x for f in fields.values() for x in (f.real, f.imag)]
    exact = math.sqrt(math.fsum(np.concatenate([s.ravel() for s in squares])))
    assert abs(st.norm() - exact) <= 1e-15 * exact


def test_flat_arithmetic_is_fieldwise():
    a = random_st(9, "periodic", 3)
    b = random_st(9, "periodic", 4)
    c = grid.StaggeredState.from_flat(a.flat() + 0.7 * b.flat(), 9, "periodic")
    for name in ("u", "v", "p"):
        assert np.array_equal(getattr(c, name), getattr(a, name) + 0.7 * getattr(b, name))


def test_project_gauge_removes_means():
    st = random_st(9, "periodic", 5)
    grid.project_gauge(st)
    assert abs(st.p.mean()) < 1e-14
    assert abs(st.u.mean()) < 1e-14
    assert abs(st.v.mean()) < 1e-14
    st = random_st(9, "dirichlet", 6)
    u0 = st.u.copy()
    grid.project_gauge(st)
    assert abs(st.p.mean()) < 1e-14
    # walls fix the velocity gauge, so u must be untouched
    assert np.array_equal(st.u, u0)


def test_random_state_reproducible_and_projected():
    a = grid.random_state(27, "dirichlet", seed=0)
    b = grid.random_state(27, "dirichlet", seed=0)
    c = grid.random_state(27, "dirichlet", seed=1)
    assert np.array_equal(a.flat(), b.flat())
    assert not np.array_equal(a.flat(), c.flat())
    assert abs(a.p.mean()) < 1e-14
    assert a.u.min() >= -1.0 and a.u.max() <= 1.0


# -- boundary closure --------------------------------------------------------

PAD_BASE = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

PAD_CASES = [
    ("periodic", 1, None, [
        [6, 4, 5, 6, 4],
        [3, 1, 2, 3, 1],
        [6, 4, 5, 6, 4],
        [3, 1, 2, 3, 1],
    ]),
    ("periodic", 2, None, [
        [2, 3, 1, 2, 3, 1, 2],
        [5, 6, 4, 5, 6, 4, 5],
        [2, 3, 1, 2, 3, 1, 2],
        [5, 6, 4, 5, 6, 4, 5],
        [2, 3, 1, 2, 3, 1, 2],
        [5, 6, 4, 5, 6, 4, 5],
    ]),
    ("dirichlet", 1, (-1.0, -1.0), [
        [1, -1, -2, -3, 3],
        [-1, 1, 2, 3, -3],
        [-4, 4, 5, 6, -6],
        [4, -4, -5, -6, 6],
    ]),
    ("dirichlet", 2, (-1.0, -1.0), [
        [5, 4, -4, -5, -6, 6, 5],
        [2, 1, -1, -2, -3, 3, 2],
        [-2, -1, 1, 2, 3, -3, -2],
        [-5, -4, 4, 5, 6, -6, -5],
        [5, 4, -4, -5, -6, 6, 5],
        [2, 1, -1, -2, -3, 3, 2],
    ]),
    ("dirichlet", 1, (0.0, 0.0), [
        [0, 0, 0, 0, 0],
        [0, 1, 2, 3, 0],
        [0, 4, 5, 6, 0],
        [0, 0, 0, 0, 0],
    ]),
    ("dirichlet", 2, (0.0, 0.0), [
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 2, 3, 0, 0],
        [0, 0, 4, 5, 6, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ]),
    ("dirichlet", 1, (1.0, 1.0), [
        [1, 1, 2, 3, 3],
        [1, 1, 2, 3, 3],
        [4, 4, 5, 6, 6],
        [4, 4, 5, 6, 6],
    ]),
    # the pressure fold of the transfers: even
    ("dirichlet", 2, grid.TRANSFER_FOLDS["p"], [
        [5, 4, 4, 5, 6, 6, 5],
        [2, 1, 1, 2, 3, 3, 2],
        [2, 1, 1, 2, 3, 3, 2],
        [5, 4, 4, 5, 6, 6, 5],
        [5, 4, 4, 5, 6, 6, 5],
        [2, 1, 1, 2, 3, 3, 2],
    ]),
    # the velocity closures: zero extension across the wall line, odd along it
    ("dirichlet", 1, grid.VELOCITY_SIGNS["u"], [
        [0, 0, 0, 0, 0],
        [-1, 1, 2, 3, -3],
        [-4, 4, 5, 6, -6],
        [0, 0, 0, 0, 0],
    ]),
    ("dirichlet", 2, grid.TRANSFER_FOLDS["v"], [
        [0, 0, -4, -5, -6, 0, 0],
        [0, 0, -1, -2, -3, 0, 0],
        [0, 0, 1, 2, 3, 0, 0],
        [0, 0, 4, 5, 6, 0, 0],
        [0, 0, -4, -5, -6, 0, 0],
        [0, 0, -1, -2, -3, 0, 0],
    ]),
]


@pytest.mark.parametrize("bc, radius, signs, expected", PAD_CASES)
def test_pad_field(bc, radius, signs, expected):
    out = grid.pad_field(PAD_BASE, radius, signs, bc)
    assert np.array_equal(out, np.array(expected, dtype=float))
    with pytest.raises(ValueError):
        grid.pad_field(PAD_BASE, radius, signs, "neumann")


# -- operator identities ---------------------------------------------------


def test_grad_div_adjointness():
    # <grad p, (u, v)> = <p, neg_div(u, v)> makes the saddle matrix symmetric
    for bc in grid.BCS:
        sys = grid.build_system(9, bc)
        for seed in range(50):
            f = random_fields(9, bc, 100 + seed)
            gu, gv = sys.grad(f["p"])
            lhs = np.vdot(gu, f["u"]) + np.vdot(gv, f["v"])
            rhs = np.vdot(f["p"], sys.neg_div(f["u"], f["v"]))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_laplacians_symmetric_and_positive():
    for bc in grid.BCS:
        sys = grid.build_system(9, bc)
        for seed in range(20):
            x = random_fields(9, bc, 200 + seed)
            y = random_fields(9, bc, 300 + seed)
            for comp in ("u", "v"):
                lap = functools.partial(stencil, sys, sys.five_point_rows,
                                        signs=VELOCITY_SIGNS[comp])
                lhs = np.vdot(lap(x[comp]), y[comp])
                rhs = np.vdot(x[comp], lap(y[comp]))
                assert abs(lhs - rhs) < 1e-9
                energy = np.vdot(x[comp], lap(x[comp]))
                assert energy >= -1e-12


def test_mass_operators_symmetric_positive():
    for bc in grid.BCS:
        sys = grid.build_system(9, bc)
        for seed in range(20):
            x = random_fields(9, bc, 400 + seed)
            y = random_fields(9, bc, 500 + seed)
            for comp in ("u", "v", "p"):
                mass = functools.partial(stencil, sys, sys.mass_rows, signs=MASS_SIGNS[comp])
                lhs = np.vdot(mass(x[comp]), y[comp])
                rhs = np.vdot(x[comp], mass(y[comp]))
                assert abs(lhs - rhs) < 1e-12
                assert np.vdot(x[comp], mass(x[comp])) > 0.0


def test_residual_definition():
    for bc in grid.BCS:
        sys = grid.build_system(9, bc)
        st = random_st(9, bc, 7)
        rhs = random_st(9, bc, 8)
        res = sys.residual(st, rhs)
        expect = rhs.flat() - apply(sys, st).flat()
        assert np.allclose(res.flat(), expect, atol=1e-14)


# -- assembled matrices agree with the matrix-free actions ----------------


def check_against_assembled(n, bc, bands):
    """Every matrix-free action against the assembled matrices.  The
    tolerances are absolute at n = 9 and scale with each operator's power of
    1/h, as its entries do."""
    sys = grid.build_system(n, bc)
    sys.bands = bands
    ops = assemble.assemble_ops(n, bc)
    f = random_fields(n, bc, 9)
    scale = n / 9

    def check(got, matrix, x, tol, power):
        assert np.abs(got.ravel() - matrix @ x.ravel()).max() < tol * scale**power

    for comp, a in (("u", ops.a_u), ("v", ops.a_v)):
        check(stencil(sys, sys.five_point_rows, f[comp], VELOCITY_SIGNS[comp]), a, f[comp],
              1e-11, 2)

    gu, gv = sys.grad(f["p"])
    check(gu, ops.gx, f["p"], 1e-11, 1)
    check(gv, ops.gy, f["p"], 1e-11, 1)

    vel = np.concatenate([f["u"].ravel(), f["v"].ravel()])
    check(sys.neg_div(f["u"], f["v"]), ops.b, vel, 1e-11, 1)

    for comp, q in (("u", ops.q_u), ("v", ops.q_v), ("p", ops.q_p)):
        check(stencil(sys, sys.mass_rows, f[comp], MASS_SIGNS[comp]), q, f[comp], 1e-13, -2)
    check(stencil(sys, sys.five_point_rows, f["p"], CELL_LAPLACIAN_SIGNS), ops.a_p, f["p"],
          1e-11, 2)

    st = grid.StaggeredState(n, bc, f["u"], f["v"], f["p"])
    check(apply(sys, st).flat(), ops.saddle, st.flat(), 1e-11, 2)


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("bc", grid.BCS)
def test_matrix_free_matches_assembled(bc, n):
    # at n = 3 the periodic wrap entries sit beside the band and the
    # Dirichlet edge factors are 2x2
    check_against_assembled(n, bc, 1)


@pytest.mark.parametrize("bc", grid.BCS)
def test_banded_matrix_free_matches_assembled(bc):
    # n = 243 is at least grid.BAND_MIN: every kernel runs in 2 row bands
    check_against_assembled(243, bc, 2)


@pytest.mark.parametrize("bc", grid.BCS)
def test_assembled_saddle_is_symmetric(bc):
    saddle = assemble.assemble_ops(9, bc).saddle
    assert abs(saddle - saddle.T).max() < 1e-13


@pytest.mark.parametrize("bc", grid.BCS)
def test_nullspace_annihilated(bc):
    ops = assemble.assemble_ops(9, bc)
    ns = assemble.nullspace(9, bc)
    assert np.abs(ops.saddle @ ns).max() < 1e-12
    # orthonormal columns
    assert np.abs(ns.T @ ns - np.eye(ns.shape[1])).max() < 1e-13


# -- periodic operators diagonalize in the staggered Fourier basis --------


def test_periodic_modes_match_stokes_symbol():
    n = 9
    sys = grid.build_system(n, "periodic")
    ks = [(k1, k2) for k1 in range(n) for k2 in range(n) if (k1, k2) != (0, 0)]
    for k1, k2 in ks:
        theta = (2 * np.pi * k1 / n, 2 * np.pi * k2 / n)
        L = symbols.stokes_symbol(np.array(theta), h=sys.h)
        for col, coeffs in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            st = grid.fourier_state(n, theta, coeffs)
            out = apply(sys, st)
            got = grid.mode_coefficients(out, theta)
            assert np.abs(got - L[:, col]).max() < 1e-11, (k1, k2, col)


def test_periodic_mass_and_cell_laplacian_symbols():
    n = 9
    sys = grid.build_system(n, "periodic")
    h = sys.h
    for k1, k2 in ((1, 0), (2, 5), (4, 4), (8, 1)):
        theta = np.array([2 * np.pi * k1 / n, 2 * np.pi * k2 / n])
        c1, c2 = np.cos(theta)
        mass = h**2 * (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2) / 9.0
        lap = 4.0 * (np.sin(theta[0] / 2) ** 2 + np.sin(theta[1] / 2) ** 2) / h**2
        st = grid.fourier_state(n, theta)
        got = grid.mode_coefficients(
            grid.StaggeredState(n, "periodic",
                                stencil(sys, sys.mass_rows, st.u, MASS_SIGNS["u"]),
                                st.v, stencil(sys, sys.mass_rows, st.p, MASS_SIGNS["p"])),
            theta,
        )
        assert abs(got[0] - mass) < 1e-12
        assert abs(got[2] - mass) < 1e-12
        got_ap = grid.mode_coefficients(
            grid.StaggeredState(n, "periodic", st.u, st.v,
                                stencil(sys, sys.five_point_rows, st.p, CELL_LAPLACIAN_SIGNS)),
            theta,
        )
        assert abs(got_ap[2] - lap) < 1e-10


def test_mode_projection_is_exact_on_the_lattice():
    n = 9
    theta = (2 * np.pi * 2 / n, 2 * np.pi * 7 / n)
    st = grid.fourier_state(n, theta, coeffs=(0.3, -1.1, 2.0 + 0.5j))
    got = grid.mode_coefficients(st, theta)
    assert np.abs(got - np.array([0.3, -1.1, 2.0 + 0.5j])).max() < 1e-12


def test_workspace_hands_back_one_view_per_role_shape_and_dtype():
    ws = grid.Workspace()
    u = ws("r", (8, 9), float)
    assert ws("r", (8, 9), float) is u
    assert np.shares_memory(ws("r", (8, 9), np.float64), u)  # one flat array per dtype
    p = ws("r", (9, 9), float)  # grows the role's flat array: u is rebuilt on it
    assert ws._flat[("r", np.dtype(float))].size == 81
    u2 = ws("r", (8, 9), float)
    assert u2 is not u and u2.shape == (8, 9) and np.shares_memory(u2, p)
    assert np.shares_memory(ws("r", (9, 8), float), p)
    assert ws("r", (9, 9), float) is p
    assert not np.shares_memory(ws("r", (9, 9), complex), p)
    assert not np.shares_memory(ws("a", (9, 9), float), p)
