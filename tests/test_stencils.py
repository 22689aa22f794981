"""Stencils as 1D weight vectors, their 2D tables and Fourier symbols."""

import numpy as np

from mac3mg import stencils

V = np.array([1.0, 2.0, 3.0, 2.0, 1.0])

# each 1D vector against the literal 2D table it stands for
PUBLISHED = {
    "p25": (stencils.P25, np.outer(V, V) / 9.0),
    "mass": (stencils.MASS, np.array([[1, 4, 1], [4, 16, 4], [1, 4, 1]]) / 36.0),
    "r1": (stencils.RESTRICTIONS["r1"], np.ones((1, 1))),
    "r9": (stencils.RESTRICTIONS["r9"], np.ones((3, 3)) / 9.0),
    "r9b": (stencils.RESTRICTIONS["r9b"], np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0),
    "p25t": (stencils.RESTRICTIONS["p25t"], np.outer(V, V) / 81.0),
}


def _brute_force_symbol(table, theta):
    """``sum_k table[k] exp(i theta.k)`` over the 2D offsets, complex."""
    r = table.shape[0] // 2
    t1, t2 = theta[..., 0], theta[..., 1]
    acc = np.zeros(t1.shape, dtype=complex)
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            acc += table[k1 + r, k2 + r] * np.exp(1j * (k1 * t1 + k2 * t2))
    return acc


def test_kernels_and_radii():
    for name, (w, table) in PUBLISHED.items():
        assert len(w) == table.shape[0] == 2 * (len(w) // 2) + 1, name
        np.testing.assert_allclose(np.outer(w, w), table, rtol=1e-15, atol=0, err_msg=name)
    assert [len(w) // 2 for w, _ in PUBLISHED.values()] == [2, 1, 0, 1, 1, 2]


def test_every_table_is_even():
    for name, (w, _) in PUBLISHED.items():
        assert np.array_equal(w, w[::-1]), name


def test_restriction_tables_sum_to_one():
    for name, w in stencils.RESTRICTIONS.items():
        assert abs(np.outer(w, w).sum() - 1.0) < 1e-14, name


def test_prolongation_table_sums_to_nine():
    # coarsening by three spreads one coarse value over a 3x3 block of
    # influence: the 25-point table carries total weight 9
    assert abs(np.outer(stencils.P25, stencils.P25).sum() - 9.0) < 1e-13


def test_p25t_is_scaled_transpose_of_p25():
    p = np.outer(stencils.P25, stencils.P25)
    r = np.outer(stencils.RESTRICTIONS["p25t"], stencils.RESTRICTIONS["p25t"])
    np.testing.assert_allclose(r, p.T / 9.0, rtol=1e-15, atol=0)


def test_restriction_registry_names():
    assert set(stencils.RESTRICTIONS) == {"r1", "r9", "r9b", "p25t"}


def test_symbol_at_zero_equals_row_sum():
    for name, (w, table) in PUBLISHED.items():
        assert abs(stencils.symbol(w, (0.0, 0.0)) - table.sum()) < 1e-13, name


def test_real_symbols_for_symmetric_stencils():
    # the product of cosine sums equals the complex 2D exponential sum, whose
    # imaginary part vanishes because every table is even
    thetas = np.random.default_rng(7).uniform(-np.pi, np.pi, (50, 2))
    for name, (w, table) in PUBLISHED.items():
        want = _brute_force_symbol(table, thetas)
        assert np.abs(want.imag).max() < 1e-13, name
        assert np.abs(stencils.symbol(w, thetas) - want.real).max() < 1e-13, name


def test_mass_symbol_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = rng.uniform(-np.pi, np.pi, 2)
        c1, c2 = np.cos(t)
        expected = (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2) / 9.0
        assert abs(stencils.symbol(stencils.MASS, t) - expected) < 1e-14


def test_symbol_broadcasting_matches_scalar():
    thetas = np.random.default_rng(6).uniform(-np.pi, np.pi, (4, 7, 2))
    for w in (stencils.MASS, stencils.P25, stencils.RESTRICTIONS["r1"]):
        batch = stencils.symbol(w, thetas)
        assert batch.shape == (4, 7)
        assert np.shape(stencils.symbol(w, thetas[0, 0])) == ()
        for i in range(4):
            for k in range(7):
                assert abs(batch[i, k] - stencils.symbol(w, thetas[i, k])) < 1e-15


def test_tables_are_read_only():
    for w, _ in PUBLISHED.values():
        assert not w.flags.writeable
