"""Chern classes of complex representations of elementary abelian p-groups.

A representation enters as a multiset of weights v in V_n; its total Chern
class is the expanded product of (1 + v) over the weights, a polynomial
class.  The regular representation contains every weight once, and its
total Chern class is the alternating sum of the Dickson classes; powers of
it are detected through divisibility-by-(1+v) profiles.

total_chern splits a multiset as rho = a*reg + rest, a the least
multiplicity of a nonzero weight when every nonzero weight occurs, else 0.
c(reg) comes from a product tree over affine cosets (von zur Gathen &
Gerhard, Modern Computer Algebra, 10.1): the node for a fixed prefix
(c_1..c_k) of coordinates is the product of (1 + v) over the coset
u + W, u = c_1 t_1 + ... + c_k t_k and W spanned by t_{k+1}..t_n, and it
merges the p nodes that fix one coordinate more.  That product is
f_W(1 + u) for the additive polynomial f_W(X) = prod_{w in W} (X + w)
= sum_j d_j X^(p^j) (Wilkerson, "A primer on the Dickson invariants",
1983), so f_W(1 + u) = sum_j d_j (1 + sum_i c_i t_i^(p^j)).  Every node
is thus sparse, where multiplying the p^n factors into one running product
in weight order passes through dense partial products.  The tree uses only
associativity of the product, not the Dickson recursion, so comparing
c(reg) with the Dickson sum still checks one route against another.
"""

from __future__ import annotations

import itertools
import math
import operator

# modules, not their functions: a module runs on its first use (see
# milnorq/__init__.py), so a call that needs neither runs neither
from . import invariants, steenrod
from .algebra import ExtClass, LinearSubst, substitute_linear
from .backend import add_into, poly_mul, poly_pow, power_terms
from .errors import (
    DESK_SCALE_BYTES,
    ConsistencyError,
    ascii_int,
    guard,
    guard_bytes,
    guard_points,
)

TABLE_WORK_BOUND = 20_000  # obstruction_table refuses a_max * p^n above this
# the tracemalloc peak of a whole chern-rep call on one weight to a power was
# 786-803 B per priced term from 5 * 10^4 to 2.8 * 10^5 terms, and of
# total_chern alone 250-490 B from 4.7 * 10^4 to 10^6 terms
CHERN_TERM_BYTES = 1024
# poly_mul's tracemalloc peak per monomial of its accumulator was 133-323 B
# from 2.4 * 10^4 to 7.1 * 10^5 of them at n = 2..4, factor and result included
PRODUCT_LIMIT = DESK_SCALE_BYTES // 400


class WeightMultiset:
    """Weights of a representation of A_n with multiplicities >= 1."""

    __slots__ = ("cfg", "weights")

    def __init__(self, cfg, weights):
        p = cfg.p
        merged = {}
        for v, m in weights.items() if isinstance(weights, dict) else weights:
            if len(v) != cfg.n:
                raise ValueError(f"weight {v} has wrong length")
            try:  # ints only: int() would truncate 1.7 to 1
                m = operator.index(m)
                key = tuple(operator.index(c) % p for c in v)
            except TypeError:
                raise ValueError(f"weight {v!r} x {m!r} is not integral") from None
            if m < 1:
                raise ValueError(f"multiplicity {m} must be >= 1")
            merged[key] = merged.get(key, 0) + m
        self.cfg = cfg
        self.weights = merged

    @property
    def dimension(self):
        return sum(self.weights.values())

    def items(self):
        return sorted(self.weights.items())

    def __repr__(self):
        body = ", ".join(f"{v}x{m}" for v, m in self.items())
        return f"<WeightMultiset dim={self.dimension}: {body}>"

    @classmethod
    def parse(cls, text, cfg):
        """Weights-file format: per line "c1,...,cn [xM]", "#" comments."""
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) > 2 or (len(fields) == 2 and not fields[1].startswith("x")):
                raise ValueError(f"line {lineno}: expected 'c1,..,cn [xM]'")
            mult = 1
            if len(fields) == 2:
                try:
                    mult = ascii_int(fields[1][1:])
                except ValueError:
                    raise ValueError(f"line {lineno}: bad multiplicity {fields[1]!r}")
            try:
                coords = tuple(ascii_int(c) for c in fields[0].split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: bad weight {fields[0]!r}")
            if len(coords) != cfg.n:
                raise ValueError(f"line {lineno}: expected {cfg.n} coordinates")
            pairs.append((coords, mult))
        return cls(cfg, pairs)


def regular_representation(cfg):
    """Every weight of V_n with multiplicity one (the zero weight included)."""
    guard_points(cfg)
    return WeightMultiset(
        cfg, {v: 1 for v in itertools.product(range(cfg.p), repeat=cfg.n)}
    )


def _one_plus(v):
    """The polynomial 1 + v_1 t_1 + ... + v_n t_n as a kernel dict."""
    n = len(v)
    poly = {(0,) * n: 1}
    for k, c in enumerate(v):
        if c:
            poly[tuple(int(i == k) for i in range(n))] = c
    return poly


def _regular_chern_poly(cfg):
    """c(reg) as a kernel dict, by the product tree over affine cosets.

    The leaves are the factors 1 + v in itertools.product order, so p
    consecutive nodes of a level share every fixed coordinate but their
    last; merging them gives the level above, down to one node.
    """
    p = cfg.p
    level = [_one_plus(v) for v in itertools.product(range(p), repeat=cfg.n)]
    while len(level) > 1:
        merged = []
        for start in range(0, len(level), p):
            node = level[start]
            for child in level[start + 1:start + p]:
                node = poly_mul(node, child, p, PRODUCT_LIMIT)
            merged.append(node)
        level = merged
    return level[0]


def _regular_part(rho):
    """(a, rest) with rho = a*reg + rest over the nonzero weights.

    a is the least multiplicity of a nonzero weight when every nonzero
    weight occurs (decided by counting them), else 0; rest maps each
    nonzero weight to its multiplicity beyond a, where that is positive.
    """
    cfg = rho.cfg
    nonzero = {v: m for v, m in rho.weights.items() if any(v)}
    a = min(nonzero.values()) if len(nonzero) == cfg.p**cfg.n - 1 else 0
    return a, {v: m - a for v, m in nonzero.items() if m > a}


def _rest_terms(cfg, rest):
    """An upper bound on the terms of the product of the (1 + v)^m of rest.

    (1 + v)^m, v with s nonzero coordinates, has power_terms(m, s, p)
    terms, and none of poly_pow's partial products more.  A product has at
    most the product of its factors' terms, and at degree D at most
    C(D + n, n).
    """
    count = 1
    for v, m in rest.items():
        count *= power_terms(m, sum(1 for c in v if c), cfg.p)
    return min(count, math.comb(sum(rest.values()) + cfg.n, cfg.n))


def total_chern(rho):
    """Expanded product of (1 + v)^multiplicity; zero weights contribute 1.

    With rho = a*reg + rest (_regular_part), the result is c(reg)^a, c(reg)
    from the coset tree, times the factors of rest multiplied in weight
    order.  Only the a >= 1 case enumerates V_n, and then rho itself lists
    p^n - 1 weights.  The factors of rest are priced before any product
    (_rest_terms), which also prices the result when a = 0.  c(reg)^a and
    its product with them have no count that comes near their size (the
    torus bound is 16 to 103 times the size of c(reg) and 290 times that of
    c(reg)^2 at (3,4)), so each of their products stops at PRODUCT_LIMIT
    monomials as it grows, and the result is priced from its length.
    """
    cfg = rho.cfg
    p, n = cfg.p, cfg.n
    a, rest = _regular_part(rho)
    terms = _rest_terms(cfg, rest)
    guard_bytes(f"a Chern class product of up to {terms} terms", CHERN_TERM_BYTES * terms)
    poly = {cfg.zero_mono: 1}
    for v, m in sorted(rest.items()):
        poly = poly_mul(poly, poly_pow(_one_plus(v), m, p, n), p)
    if a:
        power = poly_pow(_regular_chern_poly(cfg), a, p, n, PRODUCT_LIMIT)
        poly = poly_mul(power, poly, p, PRODUCT_LIMIT)
        terms = len(poly)
        guard_bytes(f"a Chern class of {terms} terms", CHERN_TERM_BYTES * terms)
    return ExtClass(cfg, {0: poly})


def _require_unital_poly(x):
    if not x.is_polynomial():
        raise ValueError("expected a polynomial class")
    if x.constant_term() != 1:
        raise ValueError("constant term must be 1")


def _coordinate_change(cfg, v):
    """A substitution carrying the linear form of v to t_1.

    For the first k with v_k != 0, t_k -> (t_1 - sum_(j != k) v_j t_(c_j)) / v_k
    and t_j -> t_(c_j) otherwise, where c_j runs over 2..n in the order of j.
    LinearSubst factors it into one shear for each nonzero v_j with j > k
    and a monomial matrix.
    """
    p, n = cfg.p, cfg.n
    k = next(i for i, c in enumerate(v) if c)
    inv = pow(v[k], -1, p)
    rows = [[0] * n for _ in range(n)]
    rows[k][0] = inv
    for col, j in enumerate((j for j in range(n) if j != k), 1):
        rows[j][col] = 1
        rows[k][col] = -v[j] * inv % p
    return LinearSubst(cfg, rows)


def _order_at_minus_one(layers, lam_inv, p):
    """The least j with b_j != 0, for the layers a_i scaled by lam_inv^i."""
    scales = {i: pow(lam_inv, i, p) for i in layers}
    mu = 0
    while True:
        taylor = {}
        for i, a in layers.items():
            c = math.comb(i, mu) % p  # 0 for i < mu
            if c:
                add_into(taylor, a, (-1) ** (i - mu) * c * scales[i], p)
        if taylor:
            return mu
        mu += 1


def divisibility_profile(x):
    """For each nonzero v, the exact power of (1 + v) dividing x.

    x must be a polynomial class with constant term 1.  A coordinate change
    takes v to t_1 and splits the image as sum_i a_i t_1^i, each layer a_i
    free of t_1.  Written in powers of 1 + t_1 it is sum_j b_j (1 + t_1)^j
    with b_j = sum_i C(i, j) (-1)^(i-j) a_i, so the exponent is the least j
    with b_j != 0: one pass over the layers per order j, with no quotient
    built.  The change for lam*v is the one for v followed by
    t_1 -> t_1 / lam, so x is substituted once per line, for the v whose
    first nonzero entry is 1, and lam*v reads layer i scaled by lam^(-i).
    The loop visits all p^n vectors, so it takes the desk-scale check first.
    """
    cfg = x.cfg
    guard_points(cfg)
    _require_unital_poly(x)
    p, n = cfg.p, cfg.n
    profile = {}
    for v in itertools.product(range(p), repeat=n):
        if next((c for c in v if c), 0) != 1:  # v = 0, or first nonzero entry not 1
            continue
        layers = {}
        for mono, c in substitute_linear(_coordinate_change(cfg, v), x).parts[0].items():
            layers.setdefault(mono[0], {})[mono[1:]] = c
        for lam in range(1, p):
            mu = _order_at_minus_one(layers, pow(lam, -1, p), p)
            profile[tuple(lam * c % p for c in v)] = mu
    return dict(sorted(profile.items()))  # the order of itertools.product


def power_of_regular(x):
    """The exponent a with x == total_chern(reg)^a exactly, or None."""
    _require_unital_poly(x)
    cfg = x.cfg
    if x == ExtClass.one(cfg):
        return 0
    reg_degree = 2 * (cfg.p**cfg.n - 1)
    d = x.degree()
    if d % reg_degree:
        return None
    a = d // reg_degree
    # a*reg goes through total_chern, so the power is built by digits under its limit
    rho = WeightMultiset(cfg, {v: a for v in regular_representation(cfg).weights})
    return a if total_chern(rho) == x else None


# n -> (the case of the obstruction argument, the Q-word applied to
# dt_1...dt_n): PU_p for n = 2 and rank 3 for n = 3, both giving e_n
CASES = {
    2: ("pu", (("Q", 0), ("Q", 1))),
    3: ("rank3", (("Q", 1), ("Q", 2), ("Q", 0))),
}


def _case(cfg):
    if cfg.n not in CASES:
        raise ValueError("theorem-main needs n = 2 or n = 3")
    return CASES[cfg.n]


def image_generator(cfg):
    """The polynomial class the obstruction argument runs on: the Q-word
    of CASES applied to dt_1...dt_n, checked to equal e_n."""
    _, word = _case(cfg)
    x = steenrod.apply_word(word, ExtClass.dt_top(cfg))
    if not x.is_polynomial():
        raise ConsistencyError("image generator is not a polynomial class")
    if x != invariants.moore_class(cfg):
        raise ConsistencyError("image generator disagrees with the Moore determinant")
    return x


def obstruction_table(cfg, a_max):
    """Rows (a, e_n^a is GL-invariant) for a = 1..a_max.

    GL-invariance of the polynomial power decides membership in D_n; the
    expected pattern is invariance exactly when (p-1) | a.  A rank with no
    case is refused first, then a_max by its range and its work.
    """
    _case(cfg)
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    points = cfg.p**cfg.n
    guard(
        a_max * points,
        TABLE_WORK_BOUND,
        f"a_max = {a_max} at p^n = {points} exceeds the desk scale",
    )
    e = image_generator(cfg)
    gl = invariants.group_generators(cfg, "GL")
    rows = []
    power = ExtClass.one(cfg)
    for a in range(1, a_max + 1):
        power = power * e
        rows.append((a, invariants.is_invariant(power, gl)))
    return rows
