"""Row reduction, null spaces and solving mod p, checked by two routes.

The oracles are sympy's DomainMatrix over GF(p) and rref_dense in
oracles.py, which rewrites the whole dense matrix at every pivot.  The
cases are built as dense numpy arrays and handed to linalg through
`sparse`; results come back through `dense`.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorq.linalg import Matrix, kernel_basis, rref, solve
from oracles import kernel_basis_dense, rref_dense

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = [3, 7, 97]


def sparse(a):
    """The Matrix of a dense 2-dimensional array: its nonzero entries."""
    a = np.asarray(a)
    return Matrix([{c: int(v) for c, v in enumerate(row) if v} for row in a], a.shape[1])


def dense(rows, ncols):
    """The dense int64 array of {column: value} rows."""
    out = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[r, c] = v
    return out


def random_matrix(rng, shape, rank, p):
    """A random matrix mod p of the given shape and rank at most `rank`."""
    rows, cols = shape
    if rank == 0:
        return np.zeros(shape, dtype=np.int64)
    left = rng.integers(0, p, size=(rows, rank))
    right = rng.integers(0, p, size=(rank, cols))
    return left @ right % p


def matrices(p):
    """Tall, wide, square, rank-deficient and zero matrices mod p."""
    rng = np.random.default_rng(p)
    cases = []
    for shape in [(9, 4), (4, 9), (7, 7), (1, 5), (5, 1), (30, 12), (12, 30)]:
        full = min(shape)
        for rank in sorted({0, 1, full // 2, full - 1, full}):
            cases.append(random_matrix(rng, shape, rank, p))
    # entries outside 0..p-1 must be read mod p
    cases.append(rng.integers(-3 * p, 3 * p, size=(6, 8)))
    return cases


def sympy_matrix(a, p):
    return DomainMatrix.from_list([[int(v) for v in row] for row in a], GF(p))


def to_ints(dm, p):
    return np.array([[int(v) % p for v in row] for row in dm.to_list()], dtype=np.int64)


def sympy_kernel(a, p):
    """Reduced-echelon rows spanning the null space, via sympy."""
    ns = sympy_matrix(a, p).nullspace()
    if ns.shape[0] == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64)
    return to_ints(ns.rref()[0], p)


def apply(m, x, p):
    """m @ x mod p for a Matrix m and a {column: value} vector x."""
    return [sum(v * x.get(c, 0) for c, v in row.items()) % p for row in m.rows]


@pytest.mark.parametrize("p", PRIMES)
class TestRref:
    def test_matches_sympy_and_the_dense_update(self, p):
        for a in matrices(p):
            m = sparse(a)
            before = copy.deepcopy(m.rows)
            red, pivots = rref(m, p)
            assert red.shape == a.shape
            want, want_pivots = sympy_matrix(a, p).rref()
            assert pivots == list(want_pivots)
            assert np.array_equal(dense(red.rows, red.ncols), to_ints(want, p))
            dense_red, dense_pivots = rref_dense(a, p)
            assert pivots == dense_pivots
            assert np.array_equal(dense(red.rows, red.ncols), dense_red)
            assert m.rows == before

    def test_rank_and_reduced_form(self, p):
        rng = np.random.default_rng(p + 1)
        red, pivots = rref(sparse(random_matrix(rng, (20, 15), 6, p)), p)
        assert len(pivots) == 6
        assert red.rows[6:] == [{}] * 14
        for r, c in enumerate(pivots):
            assert red.rows[r][c] == 1
            assert all(c not in row for row in red.rows[:r] + red.rows[r + 1:])

    def test_diagonal_and_held_lead_columns(self, p):
        # a diagonal matrix never clears an earlier pivot row; in the
        # second, the lead column 2 of the last row is held by the first
        # pivot row, which must be cleared there
        diagonal = np.diag([2, 1, p - 1, 5, 4])[[3, 0, 4, 1, 2]]
        held = np.array([[1, 0, 2, 0], [0, 1, 0, 1], [0, 0, 2, 0], [0, 0, 0, 0]])
        for a in (diagonal, held):
            red, pivots = rref(sparse(a), p)
            dense_red, dense_pivots = rref_dense(a, p)
            assert pivots == dense_pivots
            assert np.array_equal(dense(red.rows, red.ncols), dense_red)

    def test_empty_matrices(self, p):
        for shape in [(0, 4), (4, 0), (0, 0)]:
            red, pivots = rref(sparse(np.zeros(shape, dtype=np.int64)), p)
            assert red.shape == shape and pivots == []


@pytest.mark.parametrize("p", PRIMES)
class TestKernelBasis:
    def test_matches_sympy_and_the_dense_route(self, p):
        for a in matrices(p):
            m = sparse(a)
            before = copy.deepcopy(m.rows)
            kern = kernel_basis(m, p)
            ncols = a.shape[1]
            assert np.array_equal(dense(kern, ncols), sympy_kernel(a, p))
            want = kernel_basis_dense(a, p)
            assert np.array_equal(dense(kern, ncols), np.array(want).reshape(len(want), ncols))
            for v in kern:
                assert not any(apply(m, v, p))
            assert m.rows == before

    def test_zero_rows_give_the_whole_space(self, p):
        kern = kernel_basis(Matrix([], 5), p)
        assert kern == [{c: 1} for c in range(5)]

    def test_full_column_rank_gives_nothing(self, p):
        assert kernel_basis(sparse(np.identity(6, dtype=np.int64) * 2), p) == []

    def test_rejects_non_matrices(self, p):
        # a row that reaches outside the columns of its Matrix
        with pytest.raises(ValueError):
            kernel_basis(Matrix([{0: 1, 4: 1}], 4), p)
        with pytest.raises(ValueError):
            rref(Matrix([{-1: 1}], 4), p)


@pytest.mark.parametrize("p", PRIMES)
class TestSolve:
    def test_consistent_systems(self, p):
        rng = np.random.default_rng(p + 2)
        for a in matrices(p):
            x0 = rng.integers(0, p, size=a.shape[1])
            b = a @ x0 % p
            m = sparse(a)
            before = copy.deepcopy(m.rows)
            x = solve(m, {r: int(v) for r, v in enumerate(b) if v}, p)
            assert x is not None
            assert apply(m, x, p) == b.tolist()
            assert m.rows == before

    def test_free_variables_are_zero(self, p):
        # x0 + x1 = 1: x1 is free, so the solution is (1, 0)
        assert solve(Matrix([{0: 1, 1: 1}], 2), {0: 1}, p) == {0: 1}

    def test_inconsistent_systems_give_none(self, p):
        rng = np.random.default_rng(p + 3)
        a = random_matrix(rng, (8, 5), 3, p)
        m = sparse(a)
        before = copy.deepcopy(m.rows)
        # y @ a == 0 and y[j] == 1, so y @ (a @ x) != y @ e_j for every x
        y = kernel_basis(sparse(a.T), p)[0]
        assert solve(m, {min(y): 1}, p) is None
        # one equation twice with two right-hand sides
        x0 = rng.integers(0, p, size=5)
        rhs = np.append(a @ x0, a[0] @ x0 + 1) % p
        twice = sparse(np.vstack([a, a[0]]))
        assert solve(twice, {r: int(v) for r, v in enumerate(rhs) if v}, p) is None
        assert solve(Matrix([{}], 3), {0: 1}, p) is None
        assert m.rows == before


@st.composite
def sparse_systems(draw):
    """A prime and a random sparse Matrix, empty and zero-row shapes included."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-2 * p, 2 * p), max_size=4)
    rows = [draw(row) if ncols else {} for _ in range(nrows)]
    return p, Matrix(rows, ncols)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_systems())
def test_random_sparse_systems_match_the_dense_oracles(system):
    p, m = system
    a = dense(m.rows, m.ncols)
    red, pivots = rref(m, p)
    want, want_pivots = rref_dense(a, p)
    assert red.shape == m.shape and pivots == want_pivots
    assert np.array_equal(dense(red.rows, red.ncols), want)
    kern = kernel_basis(m, p)
    want = kernel_basis_dense(a, p)
    assert np.array_equal(dense(kern, m.ncols), np.array(want).reshape(len(want), m.ncols))
