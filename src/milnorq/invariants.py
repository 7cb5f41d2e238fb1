"""Dickson/Mui invariant theory for GL_n(F_p) and SL_n(F_p).

Centerpieces: the product f_n(X) = prod_{v in V_n} (X + v), whose only
nonzero coefficients sit at X-exponents p^0..p^n and define the Dickson
classes c_{n,i}; the class e_n = Q_0...Q_{n-1}(dt_1...dt_n), equal to a
Moore determinant, which transforms by the determinant character; and the
per-degree linear algebra that makes invariance, membership and dimension
questions executable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    Config,
    ExtClass,
    LinearSubst,
    _term_sort_key,
    substitute_linear,
)
from .backend import add_into, poly_mul, poly_pow
from .errors import ConsistencyError, ResourceGuardError
from .linalg import kernel_basis, solve
from .steenrod import apply_word

DESK_SCALE_POINTS = 400  # refuse group-size work beyond p^n of this size
INVARIANT_MATRIX_BYTES = 1 << 30  # bound on the dense-stack estimate, see below


# -- sparse polynomials in the format of milnorq.backend -------------------


def _poly_one(cfg):
    return {cfg.zero_mono: 1}


def _poly_frobenius(poly, p):
    # (sum c * t^m)^p = sum c * t^(p*m) over F_p
    return {tuple(v * p for v in mono): c for mono, c in poly.items()}


class XPoly:
    """An element of Z/p[t_1..t_n][X]: X-exponent -> sparse polynomial."""

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg, coeffs=None):
        self.cfg = cfg
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def x(cls, cfg):
        return cls(cfg, {1: _poly_one(cfg)})

    @classmethod
    def one(cls, cfg):
        return cls(cfg, {0: _poly_one(cfg)})

    def coefficient(self, e):
        """The coefficient of X^e as an ExtClass (polynomial part only)."""
        poly = self.coeffs.get(e)
        return ExtClass(self.cfg, {0: dict(poly)} if poly else {})

    def support(self):
        return sorted(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.cfg == other.cfg and self.coeffs == other.coeffs

    def __mul__(self, other):
        p = self.cfg.p
        out = {}
        for ea, pa in self.coeffs.items():
            for eb, pb in other.coeffs.items():
                add_into(out.setdefault(ea + eb, {}), poly_mul(pa, pb, p), 1, p)
        return XPoly(self.cfg, {e: poly for e, poly in out.items() if poly})

    def __sub__(self, other):
        p = self.cfg.p
        out = {e: dict(poly) for e, poly in self.coeffs.items()}
        for e, poly in other.coeffs.items():
            add_into(out.setdefault(e, {}), poly, -1, p)
        return XPoly(self.cfg, {e: poly for e, poly in out.items() if poly})

    def frobenius(self):
        """Raise to the p-th power (additive polynomials stay additive)."""
        p = self.cfg.p
        return XPoly(
            self.cfg, {e * p: _poly_frobenius(poly, p) for e, poly in self.coeffs.items()}
        )

    def scale_poly(self, factor):
        p = self.cfg.p
        out = {}
        for e, poly in self.coeffs.items():
            prod = poly_mul(poly, factor, p)
            if prod:
                out[e] = prod
        return XPoly(self.cfg, out)

    def evaluate_at_var(self, k):
        """Substitute X = t_k (1-based); returns a sparse polynomial dict."""
        out = {}
        for e, poly in self.coeffs.items():
            shifted = {
                mono[: k - 1] + (mono[k - 1] + e,) + mono[k:]: c
                for mono, c in poly.items()
            }
            add_into(out, shifted, 1, self.cfg.p)
        return out

    def __repr__(self):
        body = " + ".join(f"({self.coefficient(e)})*X^{e}" for e in self.support())
        return f"<XPoly {body or '0'}>"


def _guard_points(cfg):
    if cfg.p**cfg.n > DESK_SCALE_POINTS:
        raise ResourceGuardError(
            f"p^n = {cfg.p ** cfg.n} exceeds the desk-scale bound {DESK_SCALE_POINTS}"
        )


@lru_cache(maxsize=None)
def dickson_polynomial(cfg):
    """The expanded product f_n(X) over all p^n vectors of V_n.

    Computed one variable at a time: f_n is additive in X, so
    f_k(X) = f_{k-1}(X)^p - f_{k-1}(t_k)^(p-1) * f_{k-1}(X).
    """
    _guard_points(cfg)
    p = cfg.p
    f = XPoly.x(cfg)
    for k in range(1, cfg.n + 1):
        c = f.evaluate_at_var(k)
        cpow = poly_pow(c, p - 1, p, cfg.n)
        f = f.frobenius() - f.scale_poly(cpow)
    return f


@dataclass(frozen=True)
class DicksonSet:
    """e_n together with (c_{n,n-1}, ..., c_{n,0})."""

    cfg: Config
    e: ExtClass
    c: tuple

    def to_json(self):
        from .exprio import class_to_json

        return {
            "p": self.cfg.p,
            "n": self.cfg.n,
            "e": class_to_json(self.e),
            "c": [class_to_json(ci) for ci in self.c],
        }


def moore_class(cfg):
    """e_n as the determinant with rows t_j^(p^(n-1)), ..., t_j^p, t_j.

    The row order is fixed so that the result equals
    apply_word([Q_0..Q_{n-1}], dt_1...dt_n) exactly.
    """
    p, n = cfg.p, cfg.n
    terms = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        mono = [0] * n
        for i in range(n):
            mono[perm[i]] += p ** (n - 1 - i)
        terms.append((0, tuple(mono), sign))
    return ExtClass.from_terms(cfg, terms)


@lru_cache(maxsize=None)
def dickson_classes(cfg):
    """Extract the Dickson set from f_n and validate all its invariants."""
    p, n = cfg.p, cfg.n
    f = dickson_polynomial(cfg)
    allowed = {p**i for i in range(n + 1)}
    if set(f.support()) - allowed:
        raise ConsistencyError(
            f"f_n support {f.support()} is not contained in p-powers {sorted(allowed)}"
        )
    if f.coefficient(p**n) != ExtClass.one(cfg):
        raise ConsistencyError("top coefficient of f_n is not 1")
    cs = []
    for i in range(n - 1, -1, -1):
        ci = f.coefficient(p**i).scale((-1) ** (n - i))
        cs.append(ci)
    e = apply_word([("Q", i) for i in range(n)], ExtClass.dt_top(cfg))
    _validate_dickson(cfg, e, cs)
    return DicksonSet(cfg, e, tuple(cs))


def _validate_dickson(cfg, e, cs):
    p, n = cfg.p, cfg.n
    if not e.is_polynomial():
        raise ConsistencyError("e_n is not a polynomial class")
    if e.degree() != 2 * (p**n - 1) // (p - 1):
        raise ConsistencyError(f"deg e_n = {e.degree()} is wrong")
    for idx, ci in enumerate(cs):
        i = n - 1 - idx
        want = 2 * (p**n - p**i)
        if not ci.is_homogeneous() or ci.degree() != want:
            raise ConsistencyError(f"deg c_{{{n},{i}}} = {ci.degree()}, want {want}")
    if e ** (p - 1) != cs[-1]:
        raise ConsistencyError("e_n^(p-1) != c_{n,0}")
    for g in group_generators(cfg, "GL").generators:
        for idx, ci in enumerate(cs):
            if substitute_linear(g, ci) != ci:
                raise ConsistencyError(f"c index {idx} not invariant under {g!r}")
        if substitute_linear(g, e) != e.scale(g.det):
            raise ConsistencyError(f"e_n does not transform by det under {g!r}")


def primitive_root(p):
    """Smallest generator of the cyclic group F_p^x."""
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found mod {p}")


@dataclass(frozen=True)
class GroupSpec:
    """A named matrix group given by generators."""

    kind: str
    cfg: Config
    generators: tuple


@lru_cache(maxsize=None)
def group_generators(cfg, kind):
    """Generators: all transvections E_ij(1) for SL; plus one diagonal for GL."""
    kind = kind.upper()
    if kind not in ("SL", "GL"):
        raise ValueError(f"unknown group kind {kind!r}")
    n = cfg.n
    gens = [
        LinearSubst.transvection(cfg, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    if kind == "GL":
        gens.append(
            LinearSubst.diagonal(cfg, [primitive_root(cfg.p)] + [1] * (n - 1))
        )
    return GroupSpec(kind, cfg, tuple(gens))


def is_invariant(x, group):
    """True iff every generator substitution fixes x."""
    return all(substitute_linear(g, x) == x for g in group.generators)


def monomials(n, total):
    """All exponent tuples of length n summing to total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in monomials(n - 1, total - first):
            yield (first,) + rest


def degree_basis(cfg, d):
    """Canonically ordered monomial basis of the degree-d piece."""
    basis = []
    for mask in range(1 << cfg.n):
        r = mask.bit_count()
        if r > d or (d - r) % 2:
            continue
        m = (d - r) // 2
        for mono in monomials(cfg.n, m):
            basis.append((mask, mono))
    basis.sort(key=lambda b: _term_sort_key(b[0], b[1]))
    return basis


def degree_basis_size(cfg, d):
    """len(degree_basis(cfg, d)), counted without building the basis."""
    n = cfg.n
    return sum(
        math.comb(n, r) * math.comb((d - r) // 2 + n - 1, n - 1)
        for r in range(min(n, d) + 1)
        if (d - r) % 2 == 0
    )


def ring_generators(cfg, ring):
    """(names, classes) of the polynomial generators of D_n or SD_n."""
    ring = ring.upper()
    ds = dickson_classes(cfg)
    n = cfg.n
    if ring == "D":
        names = [f"c{i}" for i in range(n - 1, -1, -1)]
        gens = list(ds.c)
    elif ring == "SD":
        names = ["e"] + [f"c{i}" for i in range(n - 1, 0, -1)]
        gens = [ds.e] + list(ds.c[:-1])
    else:
        raise ValueError(f"unknown ring {ring!r}; expected 'D' or 'SD'")
    return names, gens


def _compositions(total, degrees):
    """Exponent tuples E >= 0 with sum(E[i] * degrees[i]) == total."""
    if not degrees:
        if total == 0:
            yield ()
        return
    head = degrees[0]
    for k in range(total // head + 1):
        for rest in _compositions(total - k * head, degrees[1:]):
            yield (k,) + rest


def membership_dickson(x, ring):
    """Express a homogeneous polynomial class in the D_n or SD_n generators.

    Returns {exponent tuple: coefficient} over the ring's generator list
    (ring_generators order), or None when x is not a member.  The zero class
    yields the empty decomposition.
    """
    cfg = x.cfg
    if not x.is_polynomial():
        raise ValueError("membership is defined for polynomial classes only")
    if not x.is_homogeneous():
        raise ValueError("non-homogeneous input rejected")
    if not x:
        return {}
    _, gens = ring_generators(cfg, ring)
    d = x.degree()
    degrees = [g.degree() for g in gens]
    candidates = list(_compositions(d, degrees))
    if not candidates:
        return None
    power_cache = [{} for _ in gens]

    def gen_power(i, e):
        cached = power_cache[i].get(e)
        if cached is None:
            cached = gens[i] ** e
            power_cache[i][e] = cached
        return cached

    products = []
    for exps in candidates:
        prod = ExtClass.one(cfg)
        for i, e in enumerate(exps):
            if e:
                prod = prod * gen_power(i, e)
        products.append(prod)
    monos = list(monomials(cfg.n, d // 2))
    index = {mono: r for r, mono in enumerate(monos)}
    a = np.zeros((len(monos), len(products)), dtype=np.int64)
    for col, prod in enumerate(products):
        for mono, c in prod.parts.get(0, {}).items():
            a[index[mono], col] = c
    b = np.zeros(len(monos), dtype=np.int64)
    for mono, c in x.parts.get(0, {}).items():
        b[index[mono]] = c
    sol = solve(a, b, cfg.p)
    if sol is None:
        return None
    return {candidates[i]: int(v) for i, v in enumerate(sol) if v}


def decomposition_text(cfg, ring, decomposition):
    """Human-readable form of a membership decomposition."""
    names, _ = ring_generators(cfg, ring)
    if decomposition is None:
        return "not a member"
    if not decomposition:
        return "0"
    pieces = []
    for exps in sorted(decomposition):
        coeff = decomposition[exps]
        factors = [
            f"{names[i]}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps)
            if e
        ]
        body = "*".join(factors) if factors else "1"
        pieces.append(body if coeff == 1 else f"{coeff}*{body}")
    return " + ".join(pieces)


def orbit_size(cfg, group, start):
    """Cardinality of the orbit of a nonzero weight vector under the group."""
    p = cfg.p
    start = tuple(v % p for v in start)
    if len(start) != cfg.n:
        raise ValueError("start vector has wrong length")
    if not any(start):
        raise ValueError("zero start vector rejected")
    maps = [g for g in group.generators]
    maps += [g.inverse() for g in group.generators]
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for g in maps:
                image = g.apply_weight(v)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def check_invariant_matrix_bytes(cfg, d, group):
    """Raise ResourceGuardError unless invariant_dimension(cfg, d, group)
    fits under INVARIANT_MATRIX_BYTES by a conservative estimate.

    The estimate is the cost of the dense route that stacks one
    columns x columns int64 (g - id) block per generator: the blocks and
    their stack, 2 x generators x columns^2 x 8 bytes.  invariant_dimension
    works one exterior grade and one generator at a time, so it allocates
    far less than this; the estimate only fixes which inputs are refused.
    Nothing is allocated here: the column count comes from
    degree_basis_size, not from the basis.
    """
    columns = degree_basis_size(cfg, d)
    needed = 2 * len(group.generators) * columns * columns * 8
    if needed > INVARIANT_MATRIX_BYTES:
        raise ResourceGuardError(
            f"degree-{d} invariants need {len(group.generators)} dense "
            f"{columns}x{columns} matrices and their stack, {needed} bytes; "
            f"bound is {INVARIANT_MATRIX_BYTES}"
        )


def _grade_class(cfg, grade, vec):
    """The class with coordinates vec on the basis elements of grade."""
    parts = {}
    for i in np.flatnonzero(vec).tolist():
        mask, mono = grade[i]
        parts.setdefault(mask, {})[mono] = int(vec[i])
    return ExtClass(cfg, parts)


def _moved(cfg, g, grade, kern):
    """The matrix whose column j is g.v - v mod p, for v the j-th row of kern.

    kern None stands for the identity: v runs over the basis of the grade.
    """
    index = {b: i for i, b in enumerate(grade)}
    if kern is None:
        vectors = [ExtClass(cfg, {mask: {mono: 1}}) for mask, mono in grade]
        out = -np.identity(len(grade), dtype=np.int64)
    else:
        vectors = [_grade_class(cfg, grade, vec) for vec in kern]
        out = -kern.T
    for j, v in enumerate(vectors):
        for mask, poly in substitute_linear(g, v).parts.items():
            for mono, c in poly.items():
                out[index[(mask, mono)], j] += c
    return out % cfg.p


def invariant_dimension(cfg, d, group):
    """Dimension and echelonized basis of the degree-d invariants.

    The basis spans the simultaneous kernel of (g - id) over all generators
    acting on the degree-d piece of the full algebra.  Substitution keeps
    the number of dt factors, so each exterior grade is solved on its own.
    Within a grade the kernels are intersected one generator at a time:
    the rows of K span the invariants of the generators so far (the whole
    grade to start with); for the next generator g, the kernel of
    v -> g.v - v on the row space of K gives the combinations of rows of K
    to keep.  A grade stops as soon as K is empty, without building the
    matrices of the remaining generators.  K stays in reduced echelon form,
    and the grades sit on disjoint, ordered coordinates, so together they
    give the reduced echelon basis of the whole kernel.
    """
    check_invariant_matrix_bytes(cfg, d, group)
    p = cfg.p
    basis = degree_basis(cfg, d)
    classes = []
    # degree_basis sorts by -sum(mono) before the mask, so at a fixed degree
    # each grade is one contiguous run of the basis
    for _, run in itertools.groupby(basis, key=lambda b: sum(b[1])):
        grade = list(run)
        kern = None  # the whole grade
        for g in group.generators:
            combos = kernel_basis(_moved(cfg, g, grade, kern), p)
            if not combos:
                break
            # kernel_basis returns reduced echelon rows, and a product of
            # two reduced echelon matrices of full row rank is one too, so
            # kern stays the canonical basis of its row space
            combos = np.array(combos)
            kern = combos if kern is None else combos @ kern % p
        else:
            if kern is None:
                kern = np.identity(len(grade), dtype=np.int64)
            classes += [_grade_class(cfg, grade, vec) for vec in kern]
    return len(classes), classes


def _qword_degrees(cfg):
    """Degrees of Q_{i_1}..Q_{i_r}(dt_1..dt_n) over nonempty proper index sets."""
    p, n = cfg.p, cfg.n
    degs = []
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            degs.append(n + sum(2 * p**i - 1 for i in subset))
    return degs


def predicted_dimension(cfg, d, ring):
    """Coefficient of q^d in the Hilbert series of SD, D, SM or M.

    SD and D are polynomial algebras on the Dickson generators; SM and M are
    the free modules over them on 1, (e^(p-2) times, for M) dt_1..dt_n and
    the proper Q-words applied to dt_1..dt_n.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    ring = ring.upper()
    p, n = cfg.p, cfg.n
    deg_e = 2 * (p**n - 1) // (p - 1)
    if ring in ("SD", "SM"):
        base = [deg_e] + [2 * (p**n - p**i) for i in range(n - 1, 0, -1)]
    elif ring in ("D", "M"):
        base = [2 * (p**n - p**i) for i in range(n - 1, -1, -1)]
    else:
        raise ValueError(f"unknown ring {ring!r}")
    ways = [0] * (d + 1)
    ways[0] = 1
    for g in base:
        for v in range(g, d + 1):
            ways[v] += ways[v - g]
    if ring in ("SD", "D"):
        module = [0]
    elif ring == "SM":
        module = [0, n] + _qword_degrees(cfg)
    else:
        shift = (p - 2) * deg_e
        module = [0, shift + n] + [shift + q for q in _qword_degrees(cfg)]
    return sum(ways[d - g] for g in module if 0 <= d - g)
