"""Row reduction, null spaces and solving mod p, checked by two routes.

The oracles are sympy's DomainMatrix over GF(p) and rref_dense in
oracles.py, which rewrites the whole matrix at every pivot.
"""

import numpy as np
import pytest

from milnorq.linalg import kernel_basis, rref, solve
from oracles import kernel_basis_dense, rref_dense

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = [3, 7, 97]


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


def as_rows(vectors, ncols):
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), ncols)


@pytest.mark.parametrize("p", PRIMES)
class TestRref:
    def test_matches_sympy_and_the_dense_update(self, p):
        for a in matrices(p):
            before = a.copy()
            red, pivots = rref(a, p)
            want, want_pivots = sympy_matrix(a, p).rref()
            assert pivots == list(want_pivots)
            assert np.array_equal(red, to_ints(want, p))
            dense, dense_pivots = rref_dense(a, p)
            assert pivots == dense_pivots and np.array_equal(red, dense)
            assert np.array_equal(a, before)

    def test_rank_and_reduced_form(self, p):
        rng = np.random.default_rng(p + 1)
        a = random_matrix(rng, (20, 15), 6, p)
        red, pivots = rref(a, p)
        assert len(pivots) == 6
        assert not red[6:].any()
        for r, c in enumerate(pivots):
            column = np.zeros(20, dtype=np.int64)
            column[r] = 1
            assert np.array_equal(red[:, c], column)

    def test_empty_matrices(self, p):
        for shape in [(0, 4), (4, 0), (0, 0)]:
            red, pivots = rref(np.zeros(shape, dtype=np.int64), p)
            assert red.shape == shape and pivots == []


@pytest.mark.parametrize("p", PRIMES)
class TestKernelBasis:
    def test_matches_sympy_and_the_dense_route(self, p):
        for a in matrices(p):
            before = a.copy()
            kern = kernel_basis(a, p)
            ncols = a.shape[1]
            assert np.array_equal(as_rows(kern, ncols), sympy_kernel(a, p))
            dense = kernel_basis_dense(a, p)
            assert np.array_equal(as_rows(kern, ncols), as_rows(dense, ncols))
            for v in kern:
                assert not (a @ v % p).any()
            assert np.array_equal(a, before)

    def test_zero_rows_give_the_whole_space(self, p):
        kern = kernel_basis(np.zeros((0, 5), dtype=np.int64), p)
        assert np.array_equal(as_rows(kern, 5), np.identity(5, dtype=np.int64))

    def test_full_column_rank_gives_nothing(self, p):
        assert kernel_basis(np.identity(6, dtype=np.int64) * 2, p) == []

    def test_rejects_non_matrices(self, p):
        with pytest.raises(ValueError):
            kernel_basis(np.zeros(4, dtype=np.int64), p)
        with pytest.raises(ValueError):
            rref(np.zeros(4, dtype=np.int64), p)


@pytest.mark.parametrize("p", PRIMES)
class TestSolve:
    def test_consistent_systems(self, p):
        rng = np.random.default_rng(p + 2)
        for a in matrices(p):
            x0 = rng.integers(0, p, size=a.shape[1])
            b = a @ x0 % p
            before = a.copy()
            x = solve(a, b, p)
            assert x is not None
            assert np.array_equal(a @ x % p, b % p)
            assert np.array_equal(a, before)

    def test_free_variables_are_zero(self, p):
        # x0 + x1 = 1: x1 is free, so the solution is (1, 0)
        x = solve(np.array([[1, 1]]), np.array([1]), p)
        assert x.tolist() == [1, 0]

    def test_inconsistent_systems_give_none(self, p):
        rng = np.random.default_rng(p + 3)
        a = random_matrix(rng, (8, 5), 3, p)
        before = a.copy()
        # y @ a == 0 and y[j] == 1, so y @ (a @ x) != y @ e_j for every x
        y = kernel_basis(a.T, p)[0]
        b = np.zeros(8, dtype=np.int64)
        b[np.flatnonzero(y)[0]] = 1
        assert solve(a, b, p) is None
        # one equation twice with two right-hand sides
        x0 = rng.integers(0, p, size=5)
        rhs = np.append(a @ x0, a[0] @ x0 + 1) % p
        assert solve(np.vstack([a, a[0]]), rhs, p) is None
        assert solve(np.zeros((1, 3), dtype=np.int64), np.array([1]), p) is None
        assert np.array_equal(a, before)
