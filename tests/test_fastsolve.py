"""The fast exact solves against assembled sparse oracles.

``SchurOperator`` and ``DirectSolver`` build their solves from 1D factors by
fast diagonalisation.  Here they meet the matrices of ``assemble`` and an
augmented sparse LU, built only in this file, that pins the constant modes
with multipliers.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mac3mg import assemble, grid, multigrid
from mac3mg.smoothers import SchurOperator, SeparableInverse, eig1


def constrained_solve(mat, cols, rhs):
    """Oracle: sparse LU of ``[[mat, cols], [cols^T, 0]]``, multipliers
    stripped.  For symmetric ``mat`` with kernel ``cols`` this is the solution
    orthogonal to ``cols`` of ``mat x = rhs`` with the ``cols`` part of
    ``rhs`` removed."""
    k = cols.shape[1]
    lu = spla.splu(sp.bmat([[mat, cols], [cols.T, None]], format="csc"))
    aug = np.concatenate([rhs, np.zeros(k, rhs.dtype)])
    out = lu.solve(aug.real) + 1j * lu.solve(aug.imag) if np.iscomplexobj(aug) else lu.solve(aug)
    return out[:-k]


def random_field(rng, shape, dtype):
    f = rng.standard_normal(shape)
    return f + 1j * rng.standard_normal(shape) if dtype is complex else f


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (9, 27, 81))
def test_schur_diagonal_matches_assembled(n, bc):
    want = assemble.assemble_schur(n, bc).diagonal()
    got = SchurOperator(n, bc).diag
    assert got.shape == want.shape
    assert rel_err(got, want) < 1e-14


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (9, 27, 81))
def test_schur_solve_matches_augmented_lu(n, bc, dtype):
    rng = np.random.default_rng(n)
    # a nonzero mean on purpose: both solves drop it with the constant mode
    g = random_field(rng, (n, n), dtype) + 0.5
    m = n * n
    want = constrained_solve(assemble.assemble_schur(n, bc),
                             np.full((m, 1), 1.0 / np.sqrt(m)), g.ravel()).reshape(n, n)
    op = SchurOperator(n, bc)
    assert rel_err(op.solve(g), want) < 1e-11
    # into a given array, twice, so the reused work arrays are exercised
    out = np.full((n, n), np.nan, dtype)
    op.solve(2.0 * g, out=out)
    assert op.solve(g, out=out) is out
    assert rel_err(out, want) < 1e-11
    assert rel_err(op.solve(g.ravel()), want.ravel()) < 1e-11


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (3, 9, 27, 81))
def test_direct_solver_matches_augmented_lu(n, bc, dtype):
    rng = np.random.default_rng(10 + n)
    shapes = grid.field_shapes(n, bc)
    rhs = grid.StaggeredState(n, bc, *(random_field(rng, shapes[f], dtype) for f in "uvp"))
    rhs.p += 3.0  # a constant-pressure component, outside the range
    ops = assemble.assemble_ops(n, bc)
    want = constrained_solve(ops.saddle, assemble.nullspace(n, bc), rhs.flat())
    solver = multigrid.DirectSolver(n, bc)
    assert rel_err(solver.solve_state(rhs).flat(), want) < 1e-11
    out = grid.StaggeredState.zeros(n, bc, dtype)
    assert solver.solve_state(rhs, out=out) is out
    assert rel_err(out.flat(), want) < 1e-11


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (3, 27))
def test_direct_solver_on_nearly_nullspace_data(n, bc):
    # the residual of a solve is its data's nullspace part (here a constant
    # pressure) plus roundoff; solving it again must give about nothing, not
    # a conjugate-gradient breakdown
    rng = np.random.default_rng(n)
    shapes = grid.field_shapes(n, bc)
    rhs = grid.StaggeredState(n, bc, *(rng.standard_normal(shapes[f]) for f in "uvp"))
    rhs.p += 3.0
    solver = multigrid.DirectSolver(n, bc)
    x = solver.solve_state(rhs)
    again = solver.solve_state(solver.system.residual(x, rhs))
    assert again.norm() <= 1e-10 * x.norm()


@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (3, 27, 81))
def test_direct_solver_at_extreme_scales(n, bc):
    # conjugate gradients square their norms: unscaled, data of size 1e-160
    # underflowed and 1e160 overflowed, and the solve raised or returned a
    # wrong answer.  A power-of-two scale is exact, and so is the solution.
    rng = np.random.default_rng(30 + n)
    shapes = grid.field_shapes(n, bc)
    rhs = grid.StaggeredState(n, bc, *(rng.standard_normal(shapes[f]) for f in "uvp"))
    solver = multigrid.DirectSolver(n, bc)
    want = solver.solve_state(rhs).flat()

    def solved(scale):
        return solver.solve_state(grid.StaggeredState(n, bc, *(scale * f for f in
                                                                (rhs.u, rhs.v, rhs.p)))).flat()

    for k in (-600, 600):
        assert np.array_equal(solved(2.0**k), want * 2.0**k)
    for scale in (1e-300, 1e-160, 1e160, 1e300):
        assert rel_err(solved(scale) / scale, want) < 1e-12


@pytest.mark.parametrize("n", (9, 27))
def test_capacitance_matches_probing(n):
    # column j of K is h^2/2 e_j plus the wall rows of the commuting solve
    # of unit wall datum j: the structured build must equal it
    solver = multigrid.DirectSolver(n, "dirichlet")
    m = 4 * (n - 1)
    probed = np.empty((m, m))
    out = grid.StaggeredState.zeros(n, "dirichlet")
    for j in range(m):
        f = grid.StaggeredState.zeros(n, "dirichlet")
        name, wall = solver._walls[j // (n - 1)]
        getattr(f, name)[wall][j % (n - 1)] = 1.0
        solver._commuting(f, out)
        probed[:, j] = np.concatenate([getattr(out, name)[wall] for name, wall in solver._walls])
    probed[np.diag_indices(m)] += 0.5 / n**2
    assert rel_err(solver._capacitance(), probed) < 1e-13


@pytest.mark.parametrize("n", (3, 9, 27, 81, 243))
def test_capacitance_is_symmetric_positive_definite(n):
    k = multigrid.DirectSolver(n, "dirichlet")._capacitance()
    assert k.shape == (4 * (n - 1),) * 2
    assert rel_err(k, k.T) < 1e-14
    assert np.linalg.eigvalsh(k).min() > 0.0


def test_direct_solver_leaves_a_small_residual_at_243():
    # n = 243 is the direct solve of a two-grid cycle at n = 729
    n, bc = 243, "dirichlet"
    rhs = grid.random_state(n, bc, seed=2)
    x = multigrid.DirectSolver(n, bc).solve_state(rhs)
    null = assemble.nullspace(n, bc)
    b = rhs.flat() - null @ (null.T @ rhs.flat())
    r = assemble.assemble_ops(n, bc).saddle @ x.flat() - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


def test_one_eigh_per_distinct_factor(monkeypatch):
    # the Schur solve and the periodic direct solve put one factor pair on
    # both axes, and the Dirichlet direct solve builds its three inverses
    # from the edge and Neumann factors: each distinct factor is decomposed
    # once, and the shared solves keep the bits of solves built from their
    # own decompositions
    calls, eigh = [], scipy.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted)
    n, rng = 27, np.random.default_rng(5)
    for bc in grid.BCS:
        calls.clear()
        SchurOperator(n, bc).solve(rng.standard_normal((n, n)))
        assert len(calls) == 1, bc
    calls.clear()
    multigrid.DirectSolver(n, "periodic")
    assert len(calls) == 1
    calls.clear()
    solver = multigrid.DirectSolver(n, "dirichlet")
    assert sorted(calls) == [(n - 1, n - 1), (n, n)]
    h = 1.0 / n
    edge = assemble._lap1(n - 1, h, "dirichlet", 0.0).toarray()
    neu = assemble._lap1(n, h, "dirichlet", 1.0).toarray()
    g = rng.standard_normal((n, n - 1))
    assert np.array_equal(solver._inv_v(g), SeparableInverse(eig1(neu), eig1(edge), 1.0, False)(g))
    lap = assemble._lap1(n, h, "periodic", 0.0).toarray()
    g = rng.standard_normal((n, n))
    e = eig1(lap)
    assert np.array_equal(SeparableInverse(e, e, 1.0, True)(g),
                          SeparableInverse(e, eig1(lap.copy()), 1.0, True)(g))
