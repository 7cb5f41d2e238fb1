"""Exact arithmetic in the polynomial tensor exterior algebra over F_p.

The ambient ring is Z/p[t_1..t_n] (x) Lambda(dt_1..dt_n) with deg t_k = 2,
deg dt_k = 1.  An ExtClass stores, for each exterior subset (a bitmask with
bit k-1 set when dt_k is present), a sparse polynomial mapping exponent
tuples to coefficients in 1..p-1.  All values are immutable by convention:
every operation returns a fresh ExtClass and never mutates its arguments.

A LinearSubst g is kept as its elementary factors from one row reduction:
shears (i, j, c) and a monomial matrix Q, which sends t_k to d_k t_perm[k].
substitute_linear applies the shears in order: t_i -> t_i + c*t_j expands
t_i^a t_j^b as sum_k C(a, k) c^k t_i^(a-k) t_j^(b+k), with C(a, k) mod p
from Lucas's theorem, and dt_i -> dt_i + c*dt_j gives dt_A, i in A, the
extra term c * _SIGN[rest][1<<i] * _SIGN[rest][1<<j] dt_(rest + j),
rest = A - {i}, since dt_A = _SIGN[rest][1<<i] dt_rest dt_i (the term is 0
when j is in A).  Q then moves each term without expanding anything: the
exponent of t_k becomes that of t_perm[k], the coefficient is scaled by
prod_k d_k^(a_k), and dt_A goes to dt_perm(A) times its Koszul sign and
prod_(k in A) d_k.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .backend import add_into, poly_mul
from .errors import ConfigMismatchError, guard_bytes

# the tracemalloc peak of _shear per priced term was 43-359 B over p = 3..97
# and n = 2..4, and 185-222 B at 10^5 to 2.7 * 10^6 terms
SHEAR_TERM_BYTES = 400


def is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class Config(namedtuple("Config", "p n")):
    """Ambient parameters: an odd prime p and the rank n of the group.

    A named tuple, so immutable and compared and hashed as the tuple
    (p, n), as it keys the Dickson cache: Config(3, 2) == (3, 2).
    Construction checks both ranges.
    """

    __slots__ = ()

    def __new__(cls, p, n):
        if not (3 <= p <= 97 and is_prime(p)):
            raise ValueError(f"p must be an odd prime in [3, 97], got {p}")
        if not 1 <= n <= 4:
            raise ValueError(f"n must be in [1, 4], got {n}")
        return super().__new__(cls, p, n)

    @classmethod
    def _make(cls, fields):
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*fields)

    @property
    def zero_mono(self):
        return (0,) * self.n


def _check_cfg(a, b):
    if a != b:
        raise ConfigMismatchError(f"config mismatch: {a} vs {b}")


def _perm_sign(perm):
    """(-1)^(number of inversions) of a sequence of distinct values."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


# Koszul sign of dt_A * dt_B for subset bitmasks A, B < 16 (n <= 4): 0 on
# overlap, else the sign of the merge that sorts A's indices followed by B's.
_SIGN = [
    [0 if a & b else _perm_sign(_bits(a) + _bits(b)) for b in range(16)]
    for a in range(16)
]


def term_degree(mask, mono):
    return mask.bit_count() + 2 * sum(mono)


def _term_sort_key(mask, mono):
    # canonical order: degree, then graded-lex descending on the monomial
    # (t_1 > t_2 > ... > t_n), then exterior subset
    return (term_degree(mask, mono), -sum(mono), tuple(-e for e in mono), mask)


class ExtClass:
    """An element of Z/p[t_1..t_n] (x) Lambda(dt_1..dt_n)."""

    __slots__ = ("cfg", "parts")

    def __init__(self, cfg, parts=None):
        self.cfg = cfg
        self.parts = {} if parts is None else parts

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, cfg, c):
        c %= cfg.p
        if c == 0:
            return cls(cfg)
        return cls(cfg, {0: {cfg.zero_mono: c}})

    @classmethod
    def one(cls, cfg):
        return cls.scalar(cfg, 1)

    @classmethod
    def t(cls, cfg, k):
        """The polynomial generator t_k, 1-based."""
        if not 1 <= k <= cfg.n:
            raise ValueError(f"index {k} out of range 1..{cfg.n}")
        mono = tuple(1 if j == k - 1 else 0 for j in range(cfg.n))
        return cls(cfg, {0: {mono: 1}})

    @classmethod
    def dt(cls, cfg, k):
        """The exterior generator dt_k, 1-based."""
        if not 1 <= k <= cfg.n:
            raise ValueError(f"index {k} out of range 1..{cfg.n}")
        return cls(cfg, {1 << (k - 1): {cfg.zero_mono: 1}})

    @classmethod
    def dt_top(cls, cfg):
        """The product dt_1 dt_2 ... dt_n."""
        return cls(cfg, {(1 << cfg.n) - 1: {cfg.zero_mono: 1}})

    @classmethod
    def from_terms(cls, cfg, terms):
        """Build from (mask, mono, coeff) triples, normalizing on the way."""
        parts = {}
        for mask, mono, coeff in terms:
            add_into(parts.setdefault(mask, {}), {mono: coeff}, 1, cfg.p)
        return cls(cfg, {m: q for m, q in parts.items() if q})

    # -- inspection --------------------------------------------------------

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if not isinstance(other, ExtClass):
            return NotImplemented
        return self.cfg == other.cfg and self.parts == other.parts

    def iter_terms(self):
        """Yield (mask, mono, coeff) in canonical order."""
        items = [
            (mask, mono, c)
            for mask, poly in self.parts.items()
            for mono, c in poly.items()
        ]
        items.sort(key=lambda t: _term_sort_key(t[0], t[1]))
        return iter(items)

    def _degrees(self):
        return {term_degree(mask, mono) for mask, poly in self.parts.items() for mono in poly}

    def degree(self):
        """Top cohomological degree, or None for the zero class."""
        return max(self._degrees(), default=None)

    def is_homogeneous(self):
        return len(self._degrees()) <= 1

    def is_polynomial(self):
        return all(mask == 0 for mask in self.parts)

    def constant_term(self):
        return self.parts.get(0, {}).get(self.cfg.zero_mono, 0)

    def homogeneous_part(self, d):
        """Sum of the terms of cohomological degree exactly d (d >= 0)."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        parts = {}
        for mask, poly in self.parts.items():
            sel = {m: c for m, c in poly.items() if term_degree(mask, m) == d}
            if sel:
                parts[mask] = sel
        return ExtClass(self.cfg, parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = ExtClass.scalar(self.cfg, other)
        if not isinstance(other, ExtClass):
            return NotImplemented
        _check_cfg(self.cfg, other.cfg)
        p = self.cfg.p
        parts = {mask: dict(poly) for mask, poly in self.parts.items()}
        for mask, poly in other.parts.items():
            add_into(parts.setdefault(mask, {}), poly, 1, p)
        return ExtClass(self.cfg, {m: q for m, q in parts.items() if q})

    __radd__ = __add__

    def scale(self, c):
        c %= self.cfg.p
        if c == 0:
            return ExtClass(self.cfg)
        p = self.cfg.p
        return ExtClass(
            self.cfg,
            {
                mask: {mono: (c * v) % p for mono, v in poly.items()}
                for mask, poly in self.parts.items()
            },
        )

    def copy(self):
        """An equal class that shares no dict with self."""
        return ExtClass(self.cfg, {mask: dict(poly) for mask, poly in self.parts.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, ExtClass):
            return NotImplemented
        _check_cfg(self.cfg, other.cfg)
        p = self.cfg.p
        parts = {}
        for ma, pa in self.parts.items():
            for mb, pb in other.parts.items():
                sign = _SIGN[ma][mb]
                if not sign:
                    continue
                prod = poly_mul(pa, pb, p)
                part = parts.get(ma | mb)
                if part is not None:
                    add_into(part, prod, sign, p)
                elif sign == 1:
                    # poly_mul returns a fresh, reduced dict: keep it as it is
                    parts[ma | mb] = prod
                else:
                    parts[ma | mb] = {k: p - c for k, c in prod.items()}
        return ExtClass(self.cfg, {m: q for m, q in parts.items() if q})

    __rmul__ = __mul__  # reached only with a non-ExtClass on the left

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ExtClass.one(self.cfg)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        from .exprio import render_class

        return f"<ExtClass p={self.cfg.p} n={self.cfg.n}: {render_class(self)}>"


class LinearSubst:
    """An invertible n x n matrix over F_p acting by substitution.

    The matrix acts on the column vector of generators: the image of t_k is
    sum_j rows[k][j] * t_j, and dt_k maps the same way.  Substituting by h
    and then by g is substituting by the matrix whose row k is
    g.apply_weight(h.rows[k]).

    rows == S_1 ... S_m Q for the shears (i, j, c) in `shears`,
    S = I + c*E_ij (0-based, i != j: t_i -> t_i + c*t_j, dt_i likewise),
    and the monomial matrix Q with Q[k][perm[k]] = diag[k] and zeros
    elsewhere; they come from a row reduction by row additions only, so
    det is sign(perm) * prod(diag) and inverse() starts from Q^-1 and
    replays the shears in reverse.  A monomial matrix has no shears.
    """

    __slots__ = ("cfg", "rows", "det", "shears", "perm", "diag")

    def __init__(self, cfg, rows):
        p, n = cfg.p, cfg.n
        rows = tuple(tuple(int(v) % p for v in row) for row in rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be {n}x{n}")
        self.cfg = cfg
        self.rows = rows
        self.shears, self.perm, self.diag = _shear_factors(rows, p)
        self.det = _perm_sign(self.perm) * math.prod(self.diag) % p

    @classmethod
    def transvection(cls, cfg, i, j, c=1):
        """Elementary matrix E_ij(c): sends t_i to t_i + c*t_j (i != j, 1-based)."""
        if i == j:
            raise ValueError("transvection requires i != j")
        rows = [[1 if a == b else 0 for b in range(cfg.n)] for a in range(cfg.n)]
        rows[i - 1][j - 1] = c % cfg.p
        return cls(cfg, rows)

    @classmethod
    def diagonal(cls, cfg, diag):
        if len(diag) != cfg.n:
            raise ValueError("diagonal has wrong length")
        return cls(cfg, [[d * (i == j) for j in range(cfg.n)] for i, d in enumerate(diag)])

    def __eq__(self, other):
        if not isinstance(other, LinearSubst):
            return NotImplemented
        return self.cfg == other.cfg and self.rows == other.rows

    def __hash__(self):
        return hash((self.cfg, self.rows))

    def __repr__(self):
        return f"<LinearSubst p={self.cfg.p} rows={self.rows}>"

    def inverse(self):
        """Q^-1 times the inverse shears I - c*E_ij, last shear first."""
        p, n = self.cfg.p, self.cfg.n
        rows = [[0] * n for _ in range(n)]
        for k, (j, d) in enumerate(zip(self.perm, self.diag)):
            rows[j][k] = pow(d, -1, p)
        for i, j, c in reversed(self.shears):
            for row in rows:  # times I - c*E_ij: column j -= c * column i
                row[j] = (row[j] - c * row[i]) % p
        return LinearSubst(self.cfg, rows)

    def apply_weight(self, v):
        """Image of a weight vector: the coordinates of the substituted linear form.

        substitute_linear(g, x) sends the linear form sum_k v_k t_k to the
        form whose coordinates are g.apply_weight(v).
        """
        p, n = self.cfg.p, self.cfg.n
        return tuple(
            sum(v[k] * self.rows[k][j] for k in range(n)) % p for j in range(n)
        )


def _shear_factors(rows, p):
    """Shears (i, j, c), perm and diag with rows == S_1 ... S_m Q, where
    Q[k][perm[k]] = diag[k].

    Gauss-Jordan elimination by row additions only: adding c times row j to
    row i is left multiplication by I + c*E_ij, recorded as its inverse, the
    shear (i, j, -c).  Each column takes as pivot a row not used yet with a
    nonzero entry there, the diagonal row first, and clears the column in
    every other row, so each row ends with one nonzero entry, in the column
    it was the pivot of; a column with no such row means the matrix is
    singular.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    shears = []
    pivot_of = [None] * n  # row -> the column it is the pivot of
    for col in range(n):
        free = [r for r in range(n) if pivot_of[r] is None and a[r][col]]
        if not free:
            raise ValueError("matrix is singular mod p")
        r = col if col in free else free[0]
        pivot_of[r] = col
        inv = pow(a[r][col], -1, p)
        for i in range(n):
            if i != r and a[i][col]:
                c = -a[i][col] * inv
                a[i] = [(x + c * y) % p for x, y in zip(a[i], a[r])]
                shears.append((i, r, -c % p))
    return tuple(shears), tuple(pivot_of), tuple(a[k][pivot_of[k]] for k in range(n))


def _binomials_mod_p(a, kmax, p):
    """The pairs (k, C(a, k) mod p), ascending, for k <= kmax and C(a, k) != 0 mod p.

    By Lucas's theorem C(a, k) = prod_d C(a_d, k_d) over base-p digits, so k
    runs over the numbers with every digit at most a's, built from the
    lowest digit up and dropped as soon as they pass kmax.
    """
    row = [(0, 1)]
    place = 1
    while a and place <= kmax:
        a, digit = divmod(a, p)
        row = [
            (place * kd + k, math.comb(digit, kd) * b % p)
            for kd in range(digit + 1)
            for k, b in row
            if place * kd + k <= kmax
        ]
        place *= p
    return tuple(row)


@lru_cache(maxsize=4096)
def _lucas_count(a, p):
    """How many C(a, k), 0 <= k <= a, are nonzero mod p: prod_d (a_d + 1)
    over the base-p digits a_d of a, by Lucas's theorem."""
    count = 1
    while a:
        a, digit = divmod(a, p)
        count *= digit + 1
    return count


def _shear(parts, i, j, c, p):
    """parts under the shear (i, j, c), by the rules in the module docstring."""
    powers = [pow(c, k, p) for k in range(p - 1)]
    rows = {}  # a -> its Lucas row, kept for this call only: a row can be long
    out = {}
    for mask, poly in parts.items():
        image = {}
        get = image.get
        for mono, coeff in poly.items():
            a, b = mono[i], mono[j]
            m = list(mono)
            row = rows.get(a)
            if row is None:
                row = rows[a] = _binomials_mod_p(a, a, p)
            for k, binom in row:
                m[i], m[j] = a - k, b + k
                key = tuple(m)
                image[key] = get(key, 0) + coeff * binom * powers[k % (p - 1)]
        targets = [(mask, 1)]
        if mask >> i & 1:
            rest = mask ^ 1 << i
            sign = _SIGN[rest][1 << i] * _SIGN[rest][1 << j]
            if sign:
                targets.append((rest | 1 << j, sign * c))
        for tmask, scale in targets:
            target = out.get(tmask)
            if target is None:
                # only mask itself may keep image, so no two parts share a dict
                out[tmask] = image if tmask == mask else {k: scale * v for k, v in image.items()}
            else:
                tget = target.get
                for key, v in image.items():
                    target[key] = tget(key, 0) + scale * v
    reduced = ((m, {k: r for k, v in q.items() if (r := v % p)}) for m, q in out.items())
    return {mask: poly for mask, poly in reduced if poly}


def _monomial(parts, perm, diag, p):
    """parts under t_k -> d_k t_perm[k] and dt_k -> d_k dt_perm[k], d = diag."""
    identity = tuple(range(len(perm)))
    # the image's exponent of t_j is the source's exponent of t_(perm^-1[j]);
    # perm is not the identity only when n >= 2, where itemgetter gives tuples
    reindex = None if perm == identity else itemgetter(*sorted(identity, key=perm.__getitem__))
    # d_k^a by a mod p - 1, for the exponent a of t_k read at its new place perm[k]
    powers = [
        (perm[k], [pow(d, a, p) for a in range(p - 1)]) for k, d in enumerate(diag) if d != 1
    ]
    out = {}
    for mask, poly in parts.items():
        bits = _bits(mask)
        image = [perm[k] for k in bits]
        s = _perm_sign(image) * math.prod(diag[k] for k in bits) % p
        if reindex:
            poly = {reindex(mono): c for mono, c in poly.items()}
        if powers:
            poly = {
                mono: c * s * math.prod(pw[mono[j] % (p - 1)] for j, pw in powers) % p
                for mono, c in poly.items()
            }
        elif s != 1 or not reindex:  # else the reindexed dict is already fresh
            poly = {mono: c * s % p for mono, c in poly.items()}
        out[sum(1 << j for j in image)] = poly
    return out


def substitute_linear(g, x):
    """Apply the algebra homomorphism induced by g to x.

    The shears of g act one at a time, in order, by _shear; the monomial
    factor then moves and scales each term by _monomial.  Each shear is
    priced from base-p digits before it expands: t_i^a gives
    _lucas_count(a, p) terms, and a term with dt_i twice that.
    """
    _check_cfg(g.cfg, x.cfg)
    p = x.cfg.p
    parts = x.parts
    for i, j, c in g.shears:
        terms = sum(
            sum(_lucas_count(mono[i], p) for mono in poly) << (mask >> i & 1)
            for mask, poly in parts.items()
        )
        guard_bytes(f"a substitution expands into up to {terms} terms", SHEAR_TERM_BYTES * terms)
        parts = _shear(parts, i, j, c, p)
    return ExtClass(x.cfg, _monomial(parts, g.perm, g.diag, p))
