"""Dense linear algebra over F_p (desk scale, numpy int64 matrices).

rref eliminates in place and only where it must: for each pivot it updates
the rows with a nonzero entry in the pivot column, and only from the pivot
column rightwards, since the pivot row is zero to its left.  Entries stay in
0..p-1 between pivots, so no product exceeds p^2.

Each solver imports numpy when it is first called, not when this module is
loaded, so a CLI call that never solves a system never pays for numpy.
"""

from __future__ import annotations


def rref(matrix, p):
    """Reduced row echelon form mod p; returns (array, pivot column list)."""
    import numpy as np

    a = np.array(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others, c:] = (a[others, c:] - np.outer(a[others, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def solve(matrix, rhs, p):
    """One solution of matrix @ x == rhs mod p (free variables 0), or None."""
    import numpy as np

    a = np.array(matrix, dtype=np.int64) % p
    b = np.array(rhs, dtype=np.int64) % p
    aug = np.hstack([a, b.reshape(-1, 1)])
    red, pivots = rref(aug, p)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, ncols]
    return x


def kernel_basis(matrix, p):
    """Canonical (reduced-echelon) basis of the null space mod p.

    Returns a list of int64 arrays whose leading entries are 1, ordered by
    leading position.
    """
    import numpy as np

    red, pivots = rref(matrix, p)
    ncols = red.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:
        return []
    # one vector per free column f: 1 at f, minus column f of red at the pivots
    vectors = np.zeros((len(free), ncols), dtype=np.int64)
    vectors[np.arange(len(free)), free] = 1
    vectors[:, pivots] = -red[: len(pivots), free].T % p
    echelon, _ = rref(vectors, p)
    return [row for row in echelon if row.any()]
