"""The fast exact solves against assembled sparse oracles.

``SchurOperator`` and ``DirectSolver`` solve by fast transforms in the
closed-form eigenbases of their 1D factors, corrected on the walls by a
capacitance matrix.  Here they meet the matrices of ``assemble``, the dense
generalised ``eigh`` solve the Schur operator used before, and an augmented
sparse LU, built only in this file, that pins the constant modes with
multipliers.
"""

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mac3mg import assemble, grid, multigrid
from mac3mg.smoothers import SchurOperator, lap1_eig, transform
from mac3mg.symbols import reference_params
from mac3mg.twogrid import TransferPair


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


def solved(solver, rhs):
    """``solver.solve_state(rhs)`` into a new real state."""
    return solver.solve_state(rhs, grid.StaggeredState.zeros(rhs.n, rhs.bc))


def test_closed_form_pairs_diagonalise_the_assembled_factors():
    # DST-I (ghost 0), DCT-II (ghost +1) and the DFT (periodic): the inverse
    # transform of the identity is the basis, column k the eigenvector k
    for m in range(3, 244):
        h = 1.0 / m
        for bc, ghost in (("dirichlet", 0.0), ("dirichlet", 1.0), ("periodic", 0.0)):
            lam, kind = lap1_eig(m, h, bc, ghost)
            v = transform(np.eye(m), (kind,), True).T
            a = assemble._lap1(m, h, bc, ghost)
            assert np.abs(a @ v - v * lam).max() <= 1e-14 * 4.0 / h**2, (m, bc, ghost)
            assert np.abs(v.conj().T @ v - np.eye(m)).max() <= 1e-14, (m, bc, ghost)
            # the forward transform is the inverse one's adjoint
            assert np.abs(transform(np.eye(m), (kind,), False).T - v.conj().T).max() <= 1e-15
            # the zero pair, if any, comes first, and is exactly zero
            assert lam[0] == lam.min() and (lam[0] == 0.0) == (bc == "periodic" or ghost == 1.0)
    with pytest.raises(ValueError):
        lap1_eig(9, 1.0, "dirichlet", -1.0)


@pytest.mark.parametrize("n", (3, 9, 81, 243))
def test_edge_and_neumann_pairs_share_their_eigenvalues_bit_for_bit(n):
    # the commutation A_N B^T = B^T L_p holds only as well as these agree
    h = 1.0 / n
    edge, neu = lap1_eig(n - 1, h, "dirichlet", 0.0)[0], lap1_eig(n, h, "dirichlet", 1.0)[0]
    assert np.array_equal(edge, neu[1:])
    assert neu[0] == 0.0 and np.all(np.diff(neu) > 0.0)


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
    # twice, so the reused work arrays are exercised
    out = np.full((n, n), np.nan, dtype)
    op.solve(2.0 * g, out=out)
    assert op.solve(g, out=out) is out
    assert rel_err(out, want) < 1e-11


def eigh_schur_solve(n, bc, g):
    """Oracle: the former Schur solve, one dense generalised ``eigh`` of the
    1D factors ``K = G^T M_edge G`` and ``M`` (fast diagonalisation)."""
    h = 1.0 / n
    g1 = assemble._grad1(n, h, bc)
    k = (g1.T @ assemble._mass1(g1.shape[0], bc, 0.0) @ g1).toarray()
    lam, v = scipy.linalg.eigh(k, assemble._mass1(n, bc, grid.VELOCITY_GHOST).toarray())
    denom = h * h * (lam[:, None] + lam)
    denom[0, 0] = np.inf  # the constant's
    x = v @ ((v.T @ (g - g.mean()) @ v) / denom) @ v.T
    return x - x.mean()


@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("bc", grid.BCS)
@pytest.mark.parametrize("n", (9, 27, 81, 243))
def test_schur_solve_matches_the_assembled_matrix_and_the_eigh_solve(n, bc, dtype):
    rng = np.random.default_rng(20 + n)
    g = random_field(rng, (n, n), dtype)
    g -= g.mean()
    x = SchurOperator(n, bc).solve(g, np.empty((n, n), dtype))
    # S x - g read at most 1.6e-14 of g at n = 243
    r = assemble.assemble_schur(n, bc) @ x.ravel() - g.ravel()
    assert np.abs(r).max() <= 1e-13 * np.abs(g).max()
    assert rel_err(x, eigh_schur_solve(n, bc, g)) < 1e-12
    assert abs(x.mean()) <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("n", (9, 27, 81))
def test_schur_capacitance_blocks_match_probing(n):
    # C = I - W^(1/2) U^T S_N^+ U W^(1/2) on the wall items, probed by a
    # sparse LU of the assembled S_N: item a is the field U W^(1/2) q_a, DCT-II
    # mode k on two opposite wall lines, in their even or odd combination
    h, bc = 1.0 / n, "dirichlet"
    g1 = assemble._grad1(n, h, bc)
    k = g1.T @ assemble._mass1(n - 1, bc, 0.0) @ g1
    m_n = assemble._mass1(n, bc, grid.CELL_LAPLACIAN_GHOST)  # corners 5/6
    s_n = h * h * (sp.kron(k, m_n) + sp.kron(m_n, k))
    walls = sp.diags([[1.0] + [0.0] * (n - 2) + [1.0]], [0])
    s = s_n - h * h / 3.0 * (sp.kron(k, walls) + sp.kron(walls, k))
    assert abs(s - assemble.assemble_schur(n, bc)).max() <= 1e-15 * abs(s).max()
    v = scipy.fft.dct(np.eye(n), 2, norm="ortho")  # column k: mode k
    root = np.sqrt(h * h / 3.0 * np.maximum(np.einsum("ik,ik->k", v, k @ v), 0.0))
    op = SchurOperator(n, bc)
    op.solve(np.zeros((n, n)), np.empty((n, n)))  # builds the blocks
    blocks = op._capacitance_blocks()
    items = []  # (axis of the lines' points, mode, sign of the second line)
    for px, py in ((0, 0), (0, 1), (1, 0), (1, 1)):
        items += [(0, m, (-1) ** py) for m in range(px, n, 2)]
        items += [(1, m, (-1) ** px) for m in range(py, n, 2)]
    fields = np.zeros((len(items), n, n))
    for a, (axis, mode, sign) in enumerate(items):
        line, f = v[:, mode] * root[mode] / np.sqrt(2.0), fields[a] if axis == 0 else fields[a].T
        f[:, 0] += line
        f[:, -1] += sign * line
    flat = fields.reshape(len(items), -1).T
    lu = spla.splu(sp.bmat([[s_n, np.ones((n * n, 1))], [np.ones((1, n * n)), None]],
                           format="csc"))
    probed = np.eye(len(items)) - flat.T @ lu.solve(np.vstack([flat, np.zeros(len(items))]))[:-1]
    assert rel_err(scipy.linalg.block_diag(*blocks), probed) < 1e-13
    for cap in blocks:
        assert rel_err(cap, cap.T) < 1e-15
        assert np.linalg.eigvalsh(cap).min() > 0.5  # 1/sqrt(3) from n = 27


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
    x = solved(solver, rhs)
    again = solved(solver, solver.system.residual(x, rhs))
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
    want = solved(solver, rhs).flat()

    def scaled(scale):
        return solved(solver, grid.StaggeredState(n, bc, *(scale * f for f in
                                                           (rhs.u, rhs.v, rhs.p)))).flat()

    for k in (-600, 600):
        assert np.array_equal(scaled(2.0**k), want * 2.0**k)
    for scale in (1e-300, 1e-160, 1e160, 1e300):
        assert rel_err(scaled(scale) / scale, want) < 1e-12


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
    # n = 243 is the direct solve of a two-grid cycle at n = 729.  Separate
    # eigh calls on the edge and Neumann factors left 2.1-6.2e-12 at n = 81
    # and 1.4-8.1e-11 at 243 for these seeds, as the Woodbury step scales
    # the mismatch of their shared eigenpairs by 2/h^2
    bc = "dirichlet"
    for n, bound in ((81, 1.5e-12), (243, 1.2e-11)):
        solver, saddle = multigrid.DirectSolver(n, bc), assemble.assemble_ops(n, bc).saddle
        null = assemble.nullspace(n, bc)
        for seed in range(5):
            rhs = grid.random_state(n, bc, seed=seed)
            x = solved(solver, rhs)
            b = rhs.flat() - null @ (null.T @ rhs.flat())
            r = saddle @ x.flat() - b
            assert np.linalg.norm(r) <= bound * np.linalg.norm(b), (n, seed)


def test_no_eigh_in_a_direct_solver_or_a_qbsr_v_cycle(monkeypatch):
    # every exact solve takes closed-form pairs, the Schur solve too
    calls = []
    for module in (scipy.linalg, np.linalg):
        def counted(*args, eigh=module.eigh, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(module, "eigh", counted)
    n, rng = 27, np.random.default_rng(5)
    for bc in grid.BCS:
        solved(multigrid.DirectSolver(n, bc), grid.random_state(n, bc, seed=1))
        op = SchurOperator(n, bc)
        for _ in range(2):
            op.solve(rng.standard_normal((n, n)), np.empty((n, n)))
        # qbsr V-cycles: a Schur solve on levels 27 and 9, a direct solve on 3
        hier = multigrid.GridHierarchy(n, bc, reference_params("qbsr"), TransferPair("r9"))
        multigrid.solve(hier, 1, 1, max_iters=2)
        assert calls == [], bc
