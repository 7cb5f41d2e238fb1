"""Sparse linear algebra over F_p (desk scale, pure Python).

A Matrix holds its rows as {column: value} dicts, zero entries unstored, and
its column count.  The systems of invariant_dimension are almost all zeros
(unit rows, and columns g.v - v of a few Lucas-binomial terms), so rref
eliminates row by row and touches only stored entries (LaMacchia & Odlyzko,
"Solving large sparse linear systems over finite fields", CRYPTO '90).  It
keeps the pivot rows fully reduced as it goes: a new row is cleared at
every pivot column it holds with one pass each, since no pivot row has an
entry at another pivot column; its lowest remaining column becomes a pivot,
and that column is cleared from the earlier pivot rows if any has held it.
Values stay in 0..p-1.
"""

from __future__ import annotations

from .backend import add_into


class Matrix:
    """Rows as {column: value} dicts over columns 0..ncols-1."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols):
        self.rows = rows
        self.ncols = ncols

    @property
    def shape(self):
        return (len(self.rows), self.ncols)


def rref(matrix, p):
    """Reduced row echelon form mod p; returns (Matrix, pivot column list).

    The result has the shape of matrix: its rows are the pivot rows in
    pivot order, then empty rows.  Entries are read mod p; a column outside
    0..ncols-1 raises ValueError.  matrix is not changed.  Unit rows cost
    one step each: no earlier pivot row has held their column.
    """
    ncols = matrix.ncols
    pivot_rows = {}  # pivot column -> its row, 1 at the pivot
    held = set()  # every column that some pivot row has held
    for row in matrix.rows:
        row = {c: r for c, v in row.items() if (r := v % p)}
        if not row:
            continue
        if min(row) < 0 or max(row) >= ncols:
            raise ValueError(f"a row has a column outside 0..{ncols - 1}")
        for c in [c for c in row if c in pivot_rows]:
            add_into(row, pivot_rows[c], -row[c], p)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], -1, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
        if lead in held:
            for other in pivot_rows.values():
                v = other.get(lead)
                if v:
                    add_into(other, row, -v, p)
        held.update(row)
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    rows = [pivot_rows[c] for c in pivots]
    rows += [{} for _ in range(len(matrix.rows) - len(rows))]
    return Matrix(rows, ncols), pivots


def solve(matrix, rhs, p):
    """One solution x of matrix @ x == rhs mod p, or None.

    rhs is a {row index: value} dict; x is a {column: value} dict with
    every free variable 0.
    """
    ncols = matrix.ncols
    augmented = Matrix(
        [{**row, ncols: rhs[i]} if rhs.get(i) else row for i, row in enumerate(matrix.rows)],
        ncols + 1,
    )
    red, pivots = rref(augmented, p)
    if pivots and pivots[-1] == ncols:
        return None
    return {c: v for c, row in zip(pivots, red.rows) if (v := row.get(ncols))}


def kernel_basis(matrix, p):
    """Canonical (reduced-echelon) basis of the null space mod p.

    Returns {column: value} dicts whose leading entries are 1, ordered by
    leading position.  One rref, with the columns in reverse order: each
    free column f then gives the vector with 1 at f and, at the pivot of
    each reduced row, minus that row's entry in column f.  Those pivots lie
    right of f in the original order and no other vector touches f, so the
    vectors, sorted by f, are already in reduced echelon form.
    """
    last = matrix.ncols - 1
    flipped = Matrix([{last - c: v for c, v in row.items()} for row in matrix.rows], matrix.ncols)
    red, pivots = rref(flipped, p)
    pivot_set = set(pivots)
    vectors = {last - f: {last - f: 1} for f in range(matrix.ncols) if f not in pivot_set}
    for pivot, row in zip(pivots, red.rows):
        for c, v in row.items():
            if c != pivot:
                vectors[last - c][last - pivot] = p - v
    return [vectors[f] for f in sorted(vectors)]
