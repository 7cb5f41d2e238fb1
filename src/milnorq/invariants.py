"""Dickson/Mui invariant theory for GL_n(F_p) and SL_n(F_p).

Centerpieces: the product f_n(X) = prod_{v in V_n} (X + v), kept as one
sparse polynomial of milnorq.backend in the variables (X, t_1, ..., t_n),
whose only nonzero coefficients sit at X-exponents p^0..p^n and define the
Dickson classes c_{n,i}; the class e_n = Q_0...Q_{n-1}(dt_1...dt_n), equal
to a Moore determinant, which transforms by the determinant character;
membership in D_n and SD_n by subduction over the generators' lead
monomials, whose products stop at backend.PRODUCT_LIMIT like every kernel
product; and the invariants of each degree.

Only invariant_dimension builds matrices, one sparse kernel per exterior
grade with a unit row for each term that the diagonal torus moves, solved
mod p by milnorq.linalg in pure Python, so no call loads numpy.
check_invariant_matrix_bytes prices it from counts of the terms and row
entries it stores, with no term listed.  Its constants were fitted to
tracemalloc peaks, each degree in a fresh process once the modules ran:

    group                  degrees               peak        peak / price
    (3,4) SL, GL           0..80                 <= 95 MB    <= 0.44
    (5,3), (7,3) SL, GL    to 100, to 120        <= 5.6 MB   <= 0.50
    (97,4) SL, GL          0..40                 <= 8.7 MB   <= 0.48
    (3,2) SL               100..6000             <= 77 MB    <= 0.53
    (3,2) SL               7000, 8000            144, 207 MB 0.55, 0.61
    (3,2) SL               5001, all moved       5.5 MB      0.71
    (3,3), (3,2) E_12      0..40, 200..800       <= 2.5 MB   <= 0.21

At (3,2) the ratio climbs with d, as rref's fill-in outgrows the rows.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

# modules, not their functions: a module runs on its first use (see
# milnorq/__init__.py), so a call that needs neither runs neither
from . import linalg, steenrod
from .algebra import Config, ExtClass, LinearSubst, _perm_sign, substitute_linear
from .backend import PRODUCT_LIMIT, add_into, frobenius, poly_mul, poly_pow, power_terms
from .errors import ConsistencyError, guard, guard_bytes, guard_points

# check_invariant_matrix_bytes: bytes per term of a grade, per row entry, per call
_TERM_BYTES, _ENTRY_BYTES, _CALL_BYTES = 1024, 512, 1 << 16
_ORBIT_VECTOR_BYTES = 256  # orbit_size peaked (tracemalloc) at 102-147 B a vector
CACHE_ENTRIES = 16  # least recently used entries kept by the Dickson cache


def dickson_polynomial(cfg):
    """The expanded product f_n(X) over all p^n vectors of V_n.

    The result is a sparse polynomial in the format of milnorq.backend in
    n + 1 variables, X first: each key is (e_X, e_1, ..., e_n).  Computed
    one variable at a time: f_n is additive in X, so
    f_k(X) = f_{k-1}(X)^p - f_{k-1}(t_k)^(p-1) * f_{k-1}(X).
    """
    guard_points(cfg)
    p, n = cfg.p, cfg.n
    f = {(1,) + cfg.zero_mono: 1}
    for k in range(1, n + 1):
        # f_{k-1}(t_k): the X exponent moves onto t_k, which f_{k-1} lacks
        at_tk = {(0,) + m[1:k] + (m[0],) + m[k + 1:]: c for m, c in f.items()}
        scale = poly_pow(at_tk, p - 1, p, n + 1)
        f = add_into(frobenius(f, p), poly_mul(scale, f, p), -1, p)
    return f


# e_n together with (c_{n,n-1}, ..., c_{n,0})
DicksonSet = namedtuple("DicksonSet", "e c")


def moore_class(cfg):
    """e_n as the determinant with rows t_j^(p^(n-1)), ..., t_j^p, t_j.

    The row order is fixed so that the result equals
    apply_word([Q_0..Q_{n-1}], dt_1...dt_n) exactly.
    """
    p, n = cfg.p, cfg.n
    terms = []
    for perm in itertools.permutations(range(n)):
        mono = [0] * n
        for i in range(n):
            mono[perm[i]] += p ** (n - 1 - i)
        terms.append((0, tuple(mono), _perm_sign(perm)))
    return ExtClass.from_terms(cfg, terms)


def dickson_classes(cfg):
    """The validated Dickson set of cfg, as classes the caller owns.

    The set is extracted and validated once per cfg; each call returns
    fresh copies of its classes, so changing one cannot alter what a later
    call returns.
    """
    ds = _dickson_set(cfg)
    return DicksonSet(ds.e.copy(), tuple(ci.copy() for ci in ds.c))


@lru_cache(maxsize=CACHE_ENTRIES)
def _dickson_set(cfg):
    """Extract the Dickson set from f_n and validate all its invariants."""
    p, n = cfg.p, cfg.n
    coeffs = {}  # X-exponent -> its coefficient, a polynomial in t_1..t_n
    for mono, c in dickson_polynomial(cfg).items():
        coeffs.setdefault(mono[0], {})[mono[1:]] = c
    allowed = {p**i for i in range(n + 1)}
    if set(coeffs) - allowed:
        raise ConsistencyError(
            f"f_n support {sorted(coeffs)} is not contained in p-powers {sorted(allowed)}"
        )
    if coeffs.get(p**n) != {cfg.zero_mono: 1}:
        raise ConsistencyError("top coefficient of f_n is not 1")
    cs = []
    for i in range(n - 1, -1, -1):
        poly = coeffs.get(p**i)
        cs.append(ExtClass(cfg, {0: poly} if poly else {}).scale((-1) ** (n - i)))
    e = steenrod.apply_word([("Q", i) for i in range(n)], ExtClass.dt_top(cfg))
    _validate_dickson(cfg, e, cs)
    return DicksonSet(e, tuple(cs))


# as on a function wrapped by lru_cache: cache_info() counts the cache and
# __wrapped__ is the uncached extraction
dickson_classes.cache_info = _dickson_set.cache_info
dickson_classes.__wrapped__ = _dickson_set.__wrapped__


def _validate_dickson(cfg, e, cs):
    p = cfg.p
    if not e.is_polynomial():
        raise ConsistencyError("e_n is not a polynomial class")
    want = _generator_degrees(cfg, "SD")["e"]
    if e.degree() != want:
        raise ConsistencyError(f"deg e_n = {e.degree()}, want {want}")
    for (name, want), ci in zip(_generator_degrees(cfg, "D").items(), cs):
        if not ci.is_homogeneous() or ci.degree() != want:
            raise ConsistencyError(f"deg {name} = {ci.degree()}, want {want}")
    if e ** (p - 1) != cs[-1]:
        raise ConsistencyError("e_n^(p-1) != c_{n,0}")
    for g in group_generators(cfg, "GL").generators:
        for idx, ci in enumerate(cs):
            if substitute_linear(g, ci) != ci:
                raise ConsistencyError(f"c index {idx} not invariant under {g!r}")
        if substitute_linear(g, e) != e.scale(g.det):
            raise ConsistencyError(f"e_n does not transform by det under {g!r}")


def primitive_root(p):
    """Smallest generator of the cyclic group F_p^x: the first g whose
    powers reach all p - 1 units, at most p^2 steps as Config caps p."""
    for g in range(2, p):
        if len({pow(g, k, p) for k in range(1, p)}) == p - 1:
            return g
    raise ValueError(f"no primitive root found mod {p}")


class GroupSpec(namedtuple("GroupSpec", "kind cfg generators")):
    """A named matrix group given by generators."""

    __slots__ = ()


def group_generators(cfg, kind):
    """Generators of SL_n(F_p) or GL_n(F_p), the cheapest to apply first.

    For n >= 2, SL is generated by the signed n-cycle C (t_k -> t_(k+1),
    t_n -> (-1)^(n-1) t_1, det 1) and the transvection E_12(1), and GL by
    these and diag(r, 1, ..., 1) for the primitive root r; n = 1 has no SL
    generator.  The conjugates of E_12(1) by powers of C are the adjacent
    transvections E_(k,k+1)(+-1) and E_(n,1)(+-1), and the commutator of
    E_ij(a) and E_jk(b) is E_ik(ab), so C and E_12(1) give every E_ij(+-1).
    These generate SL_n(Z), which maps onto SL_n(F_p) (Steinberg, Lectures
    on Chevalley Groups), so invariants and orbits are those of the whole
    group.  C and the diagonal are monomial matrices and act by reindexing
    terms; E_12(1) is the one shear.  kind is read without regard to case.
    """
    kind = kind.upper()
    if kind not in ("SL", "GL"):
        raise ValueError(f"unknown group kind {kind!r}")
    p, n = cfg.p, cfg.n
    gens = []
    if n >= 2:
        cycle = [[int(j == k + 1) for j in range(n)] for k in range(n)]
        cycle[-1][0] = (-1) ** (n - 1)
        gens.append(LinearSubst(cfg, cycle))
    if kind == "GL":
        gens.append(LinearSubst.diagonal(cfg, [primitive_root(p)] + [1] * (n - 1)))
    if n >= 2:
        gens.append(LinearSubst.transvection(cfg, 1, 2))
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


def _grades(cfg, d):
    """The exterior grades of the degree-d piece, fewest dt factors first.

    The grade with r dt factors is (masks, m): masks lists the r-element
    subsets of dt_1..dt_n in ascending order, and each pairs with every
    monomial of degree m = (d - r) / 2.
    """
    n = cfg.n
    return [
        ([mask for mask in range(1 << n) if mask.bit_count() == r], (d - r) // 2)
        for r in range(min(n, d) + 1)
        if (d - r) % 2 == 0
    ]


def _grade_basis(n, masks, m):
    """Yield the (mask, mono) basis of one grade of _grades in canonical
    order: by monomial, in descending lex order with t_1 first as
    monomials() yields them, and then by mask."""
    for mono in monomials(n, m):
        for mask in masks:
            yield mask, mono


def grade_sizes(cfg, d):
    """Sizes of the exterior grades of _grades(cfg, d), in their order,
    counted by binomials without listing any monomial."""
    n = cfg.n
    return [len(masks) * math.comb(m + n - 1, n - 1) for masks, m in _grades(cfg, d)]


def _generator_degrees(cfg, ring):
    """{name: degree} of the ring_generators classes, in their order, from
    the closed forms deg c_{n,i} = 2(p^n - p^i) and deg e_n =
    2(p^n - 1)/(p - 1) (checked against the classes by _validate_dickson),
    with no class built.
    """
    p, n = cfg.p, cfg.n
    degrees = {f"c{i}": 2 * (p**n - p**i) for i in range(n - 1, -1, -1)}
    ring = ring.upper()
    if ring == "D":
        return degrees
    if ring == "SD":
        del degrees["c0"]
        return {"e": 2 * (p**n - 1) // (p - 1), **degrees}
    raise ValueError(f"unknown ring {ring!r}; expected 'D' or 'SD'")


def ring_generators(cfg, ring):
    """(names, classes) of the polynomial generators of D_n or SD_n."""
    names = list(_generator_degrees(cfg, ring))
    ds = dickson_classes(cfg)
    gens = list(ds.c) if ring.upper() == "D" else [ds.e] + list(ds.c[:-1])
    return names, gens


def _compositions(total, degrees):
    """Exponent tuples E >= 0 with sum(E[i] * degrees[i]) == total, for
    one or more degrees; the last exponent is a quotient, not a search."""
    head, others = degrees[0], degrees[1:]
    if not others:
        if total % head == 0:
            yield (total // head,)
        return
    for k in range(total // head + 1):
        for rest in _compositions(total - k * head, others):
            yield (k,) + rest


def membership_dickson(x, ring):
    """Express a homogeneous polynomial class in the D_n or SD_n generators.

    Returns {exponent tuple: coefficient} over the ring's generator list
    (ring_generators order), or None when x is not a member.  The zero class
    yields the empty decomposition.  A degree d that no sum of generator
    degrees reaches is no member, found by _compositions with no generator
    built; it visits at most the product of d // deg + 1 over every degree
    but the last, and that count is held to PRODUCT_LIMIT before it starts.

    Otherwise subduction decides (Robbiano & Sweedler, "Subalgebra bases", 1990).
    In lex order with t_1 first, the generators' lead monomials have
    linearly independent exponent vectors, so the products g^E have
    distinct leads sum(E[i] * lead(g_i)), and the lead of a member is the
    lead of one g^E in its expansion.  While the remainder is nonzero, its
    lead m either is no such sum with E >= 0, and x is not a member, or
    subtracting a multiple of g^E removes m and leaves smaller monomials
    only; there are finitely many of degree d, so the loop ends.  Each g^E
    is built by poly_pow, one base-p digit at a time as total_chern builds
    a power, so each of its products stops at PRODUCT_LIMIT, and the
    remainder is held to the same limit after each step.
    """
    cfg = x.cfg
    if not x.is_polynomial():
        raise ValueError("membership is defined for polynomial classes only")
    if not x.is_homogeneous():
        raise ValueError("non-homogeneous input rejected")
    if not x:
        return {}
    d = x.degree()
    degrees = list(_generator_degrees(cfg, ring).values())
    visits = math.prod(d // g + 1 for g in degrees[:-1])
    what = f"degree-{d} membership searches up to {visits} exponent tuples"
    guard(visits, PRODUCT_LIMIT, f"{what}; bound is {PRODUCT_LIMIT}")
    if next(_compositions(d, degrees), None) is None:
        return None
    p, n = cfg.p, cfg.n
    gens = [g.parts[0] for g in ring_generators(cfg, ring)[1]]
    leads = [max(g) for g in gens]
    # order[k]: the generator whose lead has its last nonzero exponent at t_(k+1)
    last = [max((k for k, e in enumerate(lead) if e), default=-1) for lead in leads]
    if sorted(last) != list(range(n)):
        raise ConsistencyError(f"lead monomials {leads} are not one per variable")
    order = [last.index(k) for k in range(n)]
    rest = dict(x.parts[0])
    decomposition = {}
    while rest:
        m = max(rest)
        # E one variable at a time, last first: of the leads not yet used,
        # only leads[order[k]] reaches variable k
        exps, left = [0] * n, list(m)
        for k in reversed(range(n)):
            i = order[k]
            exps[i], r = divmod(left[k], leads[i][k])
            left = [a - exps[i] * b for a, b in zip(left, leads[i])]
            if r or min(left) < 0:
                return None
        exps = tuple(exps)
        product = {cfg.zero_mono: 1}
        for g, e in zip(gens, exps):
            if e:
                product = poly_mul(product, poly_pow(g, e, p, n), p)
        if max(product) != m:
            raise ConsistencyError(f"lead of the product with exponents {exps} is not {m}")
        c = rest[m] * pow(product[m], -1, p) % p
        add_into(rest, product, -c, p)
        guard(len(rest), PRODUCT_LIMIT, f"a degree-{d} remainder passes {PRODUCT_LIMIT} terms")
        decomposition[exps] = c
    return decomposition


def decomposition_text(cfg, ring, decomposition):
    """Human-readable form of a membership decomposition."""
    names = list(_generator_degrees(cfg, ring))
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


def orbit_size(group, start):
    """Cardinality of the orbit of a nonzero weight vector under the group.

    The search applies the generators alone: in a finite group the inverse
    of g is a positive power of g, so it reaches no vector that they miss.
    """
    cfg = group.cfg
    p = cfg.p
    start = tuple(v % p for v in start)
    if len(start) != cfg.n:
        raise ValueError("start vector has wrong length")
    if not any(start):
        raise ValueError("zero start vector rejected")
    vectors = p**cfg.n - 1  # the orbit holds at most every nonzero vector
    guard_bytes(f"an orbit of up to {vectors} vectors", _ORBIT_VECTOR_BYTES * vectors)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for g in group.generators:
                image = g.apply_weight(v)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def check_invariant_matrix_bytes(group, d):
    """Refuse invariant_dimension(group, d) if what it stores passes the bound.

    Counted, not listed: per grade of G terms, a unit row per moved term
    and, per T-fixed term v (a class e = r mod q by _torus_fixed's rule; no
    torus is one class mod 1) and generator g, the entries of g.v - v: 2
    for a monomial matrix, 1 + power_terms(a, 1, p) for the sheared
    exponent a (twice that if v holds the sheared dt) for one shear, G for
    more, capped by G.
    _ENTRY_BYTES also pays for row copies, kernel and rref fill-in.
    """
    cfg = group.cfg
    p, n = cfg.p, cfg.n
    q = p - 1 if group.kind in ("GL", "SL") else 1

    def count(r, m):  # the monomials of degree m with every e_k = r[k] mod q
        y, rem = divmod(m - sum(r), q)
        return math.comb(y + len(r) - 1, len(r) - 1) if y >= 0 and not rem else 0

    sizes = grade_sizes(cfg, d)
    entries = sum(sizes)  # a unit row per term, less the fixed terms below
    for (masks, m), size in zip(_grades(cfg, d), sizes):
        for mask, c in itertools.product(masks, range(q if group.kind == "SL" else 1)):
            r = [(c - (mask >> k & 1)) % q for k in range(n)]
            fixed = count(r, m)
            entries -= fixed
            for g in group.generators if fixed else ():
                if len(g.shears) != 1:
                    entries += fixed * (size if g.shears else 2)
                    continue
                i = g.shears[0][0]
                for a in range(r[i], m + 1, q):
                    image = power_terms(a, 1, p) << (mask >> i & 1)
                    entries += count(r[:i] + r[i + 1:], m - a) * min(size, image + 1)
    what = f"degree-{d} invariants store up to {sum(sizes)} terms and {entries} row entries"
    guard_bytes(what, _CALL_BYTES + _TERM_BYTES * sum(sizes) + _ENTRY_BYTES * entries)


def _torus_fixed(kind, p, mask, mono):
    """Whether the diagonal torus of a group of this kind fixes t^mono dt_mask.

    It scales the term by prod_k d_k^(f_k), f_k = mono[k] + [k in mask], so
    it fixes it when, mod p - 1, every f_k is 0 (GL) or all agree (SL).
    Another kind has no torus here and moves no term.
    """
    f = {(e + (mask >> k & 1)) % (p - 1) for k, e in enumerate(mono)}
    return {"GL": f == {0}, "SL": len(f) == 1}.get(kind, True)


def invariant_dimension(group, d):
    """Dimension and echelonized basis of the degree-d invariants.

    Substitution keeps the number of dt factors, so each exterior grade is
    one sparse kernel, whose unknowns are the grade's terms in the canonical
    order of _grade_basis.  SL and GL contain their diagonal torus T, so
    their invariants lie in the span of the T-fixed terms (Derksen & Kemper,
    Computational Invariant Theory, ch. 3).  The kernel's rows are a unit
    row for each term that T moves (T's own t - 1 rows, scaled to 1) and,
    for each generator g, the rows of g - id on the T-fixed terms, so g is
    applied to no moved term.  kernel_basis gives each grade's reduced
    echelon basis; the grades sit on disjoint coordinates that
    ExtClass.iter_terms orders fewest dt factors first, so together they
    give the reduced echelon basis of the whole kernel.
    """
    cfg = group.cfg
    check_invariant_matrix_bytes(group, d)
    p = cfg.p
    classes = []
    for masks, m in _grades(cfg, d):
        basis = list(_grade_basis(cfg.n, masks, m))
        fixed = [_torus_fixed(group.kind, p, *key) for key in basis]
        rows = [{j: 1} for j, f in enumerate(fixed) if not f]
        for g in group.generators:
            moved = {}  # term -> its row of g - id, over the fixed terms
            for j in itertools.compress(range(len(basis)), fixed):
                mask, mono = basis[j]
                image = substitute_linear(g, ExtClass(cfg, {mask: {mono: 1}})).parts
                add_into(image.setdefault(mask, {}), {mono: 1}, -1, p)
                for k, poly in image.items():
                    for t, c in poly.items():
                        moved.setdefault((k, t), {})[j] = c
            rows += moved.values()
        for vec in linalg.kernel_basis(linalg.Matrix(rows, len(basis)), p):
            classes.append(ExtClass.from_terms(cfg, [(*basis[j], c) for j, c in vec.items()]))
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
    return _hilbert_series(cfg, d, ring)[d]


def _hilbert_series(cfg, top, ring):
    """[predicted_dimension(cfg, d, ring) for d in 0..top], from one pass."""
    ring = ring.upper()
    algebra = {"SD": "SD", "SM": "SD", "D": "D", "M": "D"}.get(ring)
    if algebra is None:
        raise ValueError(f"unknown ring {ring!r}")
    p, n = cfg.p, cfg.n
    ways = [0] * (top + 1)
    ways[0] = 1
    for g in _generator_degrees(cfg, algebra).values():
        for v in range(g, top + 1):
            ways[v] += ways[v - g]
    if ring in ("SD", "D"):
        module = [0]
    elif ring == "SM":
        module = [0, n] + _qword_degrees(cfg)
    else:
        shift = (p - 2) * _generator_degrees(cfg, "SD")["e"]  # e^(p-2)
        module = [0, shift + n] + [shift + q for q in _qword_degrees(cfg)]
    return [sum(ways[d - g] for g in module if g <= d) for d in range(top + 1)]
