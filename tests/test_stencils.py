"""Stencil tables, kernels and Fourier symbols."""

import numpy as np
import pytest

from mac3mg import stencils


def _row_sum(st):
    return sum(st.entries.values())


def test_restriction_tables_sum_to_one():
    for name, builder in stencils.RESTRICTIONS.items():
        assert abs(_row_sum(builder()) - 1.0) < 1e-14, name


def test_prolongation_table_sums_to_nine():
    # coarsening by three spreads one coarse value over a 3x3 block of
    # influence: the 25-point table carries total weight 9
    assert abs(_row_sum(stencils.p25()) - 9.0) < 1e-13


def test_symbol_at_zero_equals_row_sum():
    for builder in (
        stencils.laplacian_5pt,
        stencils.mass_q,
        stencils.p25,
        stencils.r1,
        stencils.r9,
        stencils.r9b,
        stencils.rp25t,
    ):
        st = builder()
        val = st.symbol((0.0, 0.0), h=1.0)
        assert abs(val - _row_sum(st)) < 1e-13


def test_laplacian_symbol_closed_form():
    st = stencils.laplacian_5pt()
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.uniform(-np.pi, np.pi, 2)
        h = rng.uniform(0.05, 2.0)
        m = np.sin(t[0] / 2) ** 2 + np.sin(t[1] / 2) ** 2
        assert abs(st.symbol(t, h) - 4.0 * m / h**2) < 1e-12


def test_mass_symbol_closed_form():
    st = stencils.mass_q()
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = rng.uniform(-np.pi, np.pi, 2)
        h = rng.uniform(0.05, 2.0)
        c1, c2 = np.cos(t)
        expected = h**2 * (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2) / 9.0
        assert abs(st.symbol(t, h) - expected) < 1e-12


def test_gradient_symbol_at_half_angle():
    gx = stencils.grad_x_half()
    gy = stencils.grad_y_half()
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.uniform(-np.pi, np.pi, 2)
        h = rng.uniform(0.05, 2.0)
        assert abs(gx.symbol(t / 2, h) - 2j * np.sin(t[0] / 2) / h) < 1e-12
        assert abs(gy.symbol(t / 2, h) - 2j * np.sin(t[1] / 2) / h) < 1e-12


def test_symbol_broadcasting_matches_scalar():
    st = stencils.mass_q()
    thetas = np.random.default_rng(6).uniform(-np.pi, np.pi, (7, 2))
    batch = st.symbol(thetas, h=0.5)
    assert batch.shape == (7,)
    for k in range(7):
        assert abs(batch[k] - st.symbol(thetas[k], h=0.5)) < 1e-14


def test_kernels_and_radii():
    assert stencils.laplacian_5pt().radius() == 1
    assert stencils.p25().radius() == 2
    assert stencils.r1().radius() == 0

    k = stencils.r9b().kernel()
    assert k.shape == (3, 3)
    np.testing.assert_allclose(
        k, np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
    )

    k25 = stencils.p25().kernel()
    v = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    np.testing.assert_allclose(k25, np.outer(v, v) / 9.0)


def test_symmetry_flags():
    assert stencils.laplacian_5pt().is_symmetric()
    assert stencils.mass_q().is_symmetric()
    assert stencils.p25().is_symmetric()
    assert stencils.r9().is_symmetric()
    assert stencils.r9b().is_symmetric()
    assert not stencils.grad_x_half().is_symmetric()


def test_p25t_is_scaled_transpose_of_p25():
    p = stencils.p25()
    r = stencils.rp25t()
    for k, v in p.entries.items():
        assert abs(r.entries[k] - v / 9.0) < 1e-15


def test_restriction_registry_names():
    assert set(stencils.RESTRICTIONS) == {"r1", "r9", "r9b", "p25t"}


def test_real_symbols_for_symmetric_stencils():
    t = np.array([0.7, -1.3])
    for builder in (stencils.laplacian_5pt, stencils.mass_q, stencils.r9b):
        val = builder().symbol(t)
        assert abs(val.imag) < 1e-13
