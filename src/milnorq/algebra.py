"""Exact arithmetic in the polynomial tensor exterior algebra over F_p.

The ambient ring is Z/p[t_1..t_n] (x) Lambda(dt_1..dt_n) with deg t_k = 2,
deg dt_k = 1.  An ExtClass stores, for each exterior subset (a bitmask with
bit k-1 set when dt_k is present), a sparse polynomial mapping exponent
tuples to coefficients in 1..p-1.  All values are immutable by convention:
every operation returns a fresh ExtClass and never mutates its arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .backend import add_into, poly_mul
from .errors import ConfigMismatchError


def is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Config:
    """Ambient parameters: an odd prime p and the rank n of the group."""

    p: int
    n: int

    def __post_init__(self):
        if not (3 <= self.p <= 97 and is_prime(self.p)):
            raise ValueError(f"p must be an odd prime in [3, 97], got {self.p}")
        if not 1 <= self.n <= 4:
            raise ValueError(f"n must be in [1, 4], got {self.n}")

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
    def zero(cls, cfg):
        return cls(cfg)

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
    def linear_form(cls, cfg, coords):
        """The linear form sum_k coords[k] * t_{k+1}."""
        if len(coords) != cfg.n:
            raise ValueError("coordinate vector has wrong length")
        poly = {}
        for j, c in enumerate(coords):
            c %= cfg.p
            if c:
                mono = tuple(1 if i == j else 0 for i in range(cfg.n))
                poly[mono] = c
        return cls(cfg, {0: poly} if poly else {})

    @classmethod
    def from_terms(cls, cfg, terms):
        """Build from (mask, mono, coeff) triples, normalizing on the way."""
        parts = {}
        for mask, mono, coeff in terms:
            _accumulate(parts, mask, mono, coeff, cfg.p)
        return cls(cfg, parts)

    # -- inspection --------------------------------------------------------

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if not isinstance(other, ExtClass):
            return NotImplemented
        return self.cfg == other.cfg and self.parts == other.parts

    def __hash__(self):
        return hash(
            (
                self.cfg,
                frozenset(
                    (mask, frozenset(poly.items())) for mask, poly in self.parts.items()
                ),
            )
        )

    def iter_terms(self):
        """Yield (mask, mono, coeff) in canonical order."""
        items = [
            (mask, mono, c)
            for mask, poly in self.parts.items()
            for mono, c in poly.items()
        ]
        items.sort(key=lambda t: _term_sort_key(t[0], t[1]))
        return iter(items)

    def degree(self):
        """Top cohomological degree, or None for the zero class."""
        degs = [
            term_degree(mask, mono)
            for mask, poly in self.parts.items()
            for mono in poly
        ]
        return max(degs) if degs else None

    def min_degree(self):
        degs = [
            term_degree(mask, mono)
            for mask, poly in self.parts.items()
            for mono in poly
        ]
        return min(degs) if degs else 0

    def is_homogeneous(self):
        degs = {
            term_degree(mask, mono)
            for mask, poly in self.parts.items()
            for mono in poly
        }
        return len(degs) <= 1

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

    def __neg__(self):
        p = self.cfg.p
        return ExtClass(
            self.cfg,
            {
                mask: {mono: p - c for mono, c in poly.items()}
                for mask, poly in self.parts.items()
            },
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = ExtClass.scalar(self.cfg, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

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

    def __str__(self):
        from .exprio import render_class

        return render_class(self)

    def __repr__(self):
        return f"<ExtClass p={self.cfg.p} n={self.cfg.n}: {self}>"


def _accumulate(parts, mask, mono, coeff, p):
    """Add one term to parts in place; backend.add_into adds whole dicts."""
    poly = parts.setdefault(mask, {})
    v = (poly.get(mono, 0) + coeff) % p
    if v:
        poly[mono] = v
    else:
        poly.pop(mono, None)
        if not poly:
            del parts[mask]


def ext_mul(a, b):
    """Graded-commutative product; Koszul signs on exterior merges."""
    return a * b


def homogeneous_part(x, d):
    return x.homogeneous_part(d)


class LinearSubst:
    """An invertible n x n matrix over F_p acting by substitution.

    The matrix acts on the column vector of generators: the image of t_k is
    sum_j rows[k][j] * t_j, and dt_k maps the same way.  Composition follows
    substitute_linear(g @ h, x) == substitute_linear(g, substitute_linear(h, x)).
    """

    __slots__ = ("cfg", "rows", "det")

    def __init__(self, cfg, rows):
        p, n = cfg.p, cfg.n
        rows = tuple(tuple(int(v) % p for v in row) for row in rows)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"matrix must be {n}x{n}")
        det = _det_mod_p(rows, p)
        if det == 0:
            raise ValueError("matrix is singular mod p")
        self.cfg = cfg
        self.rows = rows
        self.det = det

    @classmethod
    def identity(cls, cfg):
        return cls(cfg, [[1 if i == j else 0 for j in range(cfg.n)] for i in range(cfg.n)])

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
        rows = [
            [diag[i] % cfg.p if i == j else 0 for j in range(cfg.n)]
            for i in range(cfg.n)
        ]
        return cls(cfg, rows)

    def __eq__(self, other):
        if not isinstance(other, LinearSubst):
            return NotImplemented
        return self.cfg == other.cfg and self.rows == other.rows

    def __hash__(self):
        return hash((self.cfg, self.rows))

    def __repr__(self):
        return f"<LinearSubst p={self.cfg.p} rows={self.rows}>"

    def __matmul__(self, other):
        """Composite substitution: other applied first, then self."""
        _check_cfg(self.cfg, other.cfg)
        return LinearSubst(self.cfg, _mat_mul(other.rows, self.rows, self.cfg.p))

    def transpose(self):
        n = self.cfg.n
        return LinearSubst(self.cfg, [[self.rows[j][i] for j in range(n)] for i in range(n)])

    def inverse(self):
        return LinearSubst(self.cfg, _mat_inv(self.rows, self.cfg.p))

    def apply_weight(self, v):
        """Image of a weight vector: the coordinates of the substituted linear form.

        Defined so that substitute_linear(g, linear_form(v)) == linear_form(g.apply_weight(v)).
        """
        p, n = self.cfg.p, self.cfg.n
        return tuple(
            sum(v[k] * self.rows[k][j] for k in range(n)) % p for j in range(n)
        )


def _mat_mul(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _det_mod_p(rows, p):
    n = len(rows)
    det = 0
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = 1
        for i in range(n):
            prod = (prod * rows[i][perm[i]]) % p
        det = (det + sign * prod) % p
    return det


def _mat_inv(rows, p):
    n = len(rows)
    aug = [list(rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def substitute_linear(g, x):
    """Apply the algebra homomorphism induced by g to x."""
    _check_cfg(g.cfg, x.cfg)
    cfg = x.cfg
    p, n = cfg.p, cfg.n
    # linear image of each t_k as a sparse polynomial
    images = []
    for k in range(n):
        poly = {}
        for j, c in enumerate(g.rows[k]):
            if c:
                mono = tuple(1 if i == j else 0 for i in range(n))
                poly[mono] = c
        images.append(poly)
    power_cache = {}

    def power(k, e):
        key = (k, e)
        cached = power_cache.get(key)
        if cached is not None:
            return cached
        img = images[k]
        if len(img) == 1:
            (mono, c), = img.items()
            result = {tuple(v * e for v in mono): pow(c, e, p)}
        elif e == 1:
            result = img
        else:
            half = power(k, e // 2)
            result = poly_mul(half, half, p)
            if e & 1:
                result = poly_mul(result, img, p)
        power_cache[key] = result
        return result

    parts = {}
    for mask, poly in x.parts.items():
        ext_targets = _ext_image(g, mask)
        if not ext_targets:
            continue
        for mono, c in poly.items():
            img = None
            for k, e in enumerate(mono):
                if e:
                    img = power(k, e) if img is None else poly_mul(img, power(k, e), p)
            if img is None:
                img = {cfg.zero_mono: 1}
            for tmask, tc in ext_targets.items():
                add_into(parts.setdefault(tmask, {}), img, c * tc, p)
    return ExtClass(cfg, {m: q for m, q in parts.items() if q})


def _ext_image(g, mask):
    """Expand the exterior product of generator images for a subset bitmask."""
    p = g.cfg.p
    out = {0: 1}
    i = 0
    m = mask
    while m:
        if m & 1:
            new = {}
            for m0, c0 in out.items():
                step = {
                    m0 | 1 << j: _SIGN[m0][1 << j] * c
                    for j, c in enumerate(g.rows[i])
                    if c and not m0 >> j & 1
                }
                add_into(new, step, c0, p)
            out = new
            if not out:
                return out
        m >>= 1
        i += 1
    return out
