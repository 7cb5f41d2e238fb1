"""Independent routes to library results, used only by tests.

- Sparse products: poly_mul_dict adds the exponent tuples of every term
  pair, where backend.poly_mul adds packed integer keys.
- The Dickson polynomial f_n: the library uses the additive recursion in
  invariants.dickson_polynomial; these oracles expand the defining product
  directly, so agreement checks the recursion.  Like the library, they
  return a sparse polynomial of milnorq.backend keyed (e_X, e_1, ..., e_n).
- Row reduction mod p: rref_dense rewrites the whole dense numpy matrix
  at every pivot, where linalg.rref eliminates sparse rows one at a time.
- Degree bases: degree_basis_sorted sorts every (mask, monomial) pair of
  the degree by the canonical term order, where invariants._grade_basis
  lists each exterior grade of invariants._grades already in order.
- Invariants: invariant_dimension_stacked solves one dense stacked system
  of all (g - id) blocks over the sorted basis of the whole degree, with no
  torus, where invariant_dimension solves one sparse kernel per exterior
  grade, with a unit row for each term that the diagonal torus moves.
- Total Chern classes: total_chern_sequential multiplies the factors
  (1 + v)^m into one running product in weight order, where
  chern.total_chern splits off a*reg and builds c(reg) by a coset tree.
- Linear substitution: substitute_linear_expanded multiplies out the images
  of the generators of each term, with powers of linear forms taken through
  the kernel, where algebra.substitute_linear applies the shear factors of g
  one binomial expansion at a time and then moves each term by its monomial
  factor.  det_by_permutations is the Leibniz formula, where LinearSubst.det
  is the sign of the monomial factor's permutation times its entries.
- Generating sets: transvection_group gives SL_n(F_p) by all n(n-1)
  transvections E_ij(1), and GL_n(F_p) by these and one diagonal, where
  invariants.group_generators uses a signed n-cycle and E_12(1).
- Membership in D_n and SD_n: membership_dickson_dense solves one full
  system of every degree-d monomial against every candidate product with
  linalg.solve, where invariants.membership_dickson works by subduction
  over the lead monomials of the generators.
- Divisibility by (1 + t_1): strip_first_var and divide_once divide the
  layers by 1 + t_1 one quotient at a time, where
  chern.divisibility_profile reads the exponent from the Taylor
  coefficients of the layers at t_1 = -1.
- Divisibility profiles: divisibility_profile_per_vector substitutes x once
  for every nonzero v, where chern.divisibility_profile substitutes once per
  line through 0 and reads lam*v from v's layers rescaled.
"""

import itertools
import math

import numpy as np

from milnorq.algebra import (
    _SIGN,
    ExtClass,
    LinearSubst,
    _bits,
    _perm_sign,
    _term_sort_key,
    substitute_linear,
)
from milnorq.backend import add_into, poly_mul, poly_pow
from milnorq.chern import _coordinate_change
from milnorq.errors import guard_points
from milnorq.invariants import (
    GroupSpec,
    _compositions,
    _generator_degrees,
    monomials,
    primitive_root,
    ring_generators,
)
from milnorq.linalg import Matrix, solve


def poly_mul_dict(a, b, p):
    """Product of two sparse polynomials mod p, one exponent tuple per pair."""
    acc = {}
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            acc[k] = acc.get(k, 0) + ca * cb
    return {k: c % p for k, c in acc.items() if c % p}


def dickson_polynomial_naive(cfg):
    """The literal p^n-factor product of (X + v)."""
    guard_points(cfg)
    p, n = cfg.p, cfg.n
    f = {(0,) * (n + 1): 1}
    for v in itertools.product(range(p), repeat=n):
        factor = {(1,) + (0,) * n: 1}
        for j, cj in enumerate(v):
            if cj:
                factor[tuple(1 if i == j + 1 else 0 for i in range(n + 1))] = cj
        f = poly_mul(f, factor, p)
    return f


def substitute_x_shift(f, lam, k, p):
    """Substitute X = X + lam * t_k (1-based) in f; binomial expansion."""
    out = {}
    for mono, c in f.items():
        e = mono[0]
        for r in range(e + 1):
            key = (r,) + mono[1:k] + (mono[k] + e - r,) + mono[k + 1:]
            b = math.comb(e, r) * pow(lam, e - r, p)
            out[key] = (out.get(key, 0) + b * c) % p
    return {key: c for key, c in out.items() if c}


def dickson_polynomial_shift(cfg):
    """The recursion f_n(X) = prod_lam f_{n-1}(X + lam*t_n)."""
    guard_points(cfg)
    p, n = cfg.p, cfg.n
    f = {(1,) + (0,) * n: 1}
    for k in range(1, n + 1):
        prod = {(0,) * (n + 1): 1}
        for lam in range(p):
            prod = poly_mul(prod, substitute_x_shift(f, lam, k, p), p)
        f = prod
    return f


def total_chern_sequential(rho):
    """Expanded product of (1 + v)^multiplicity, one weight at a time."""
    cfg = rho.cfg
    result = ExtClass.one(cfg)
    for v, m in rho.items():
        factor = ExtClass.one(cfg)
        for k, c in enumerate(v):
            factor = factor + ExtClass.t(cfg, k + 1).scale(c)
        result = result * factor**m
    return result


def substitute_linear_expanded(g, x):
    """substitute_linear by expanding the product of the generator images.

    Each t_k goes to the linear form of row k of g, each dt_k to the same
    form in the dt_j; a term dt_A t^a maps to the ordered exterior product of
    the images of dt_k over k in A times the product of powers of the images
    of t_k.
    """
    cfg = x.cfg
    p, n = cfg.p, cfg.n
    images = [
        {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row) if c}
        for row in g.rows
    ]
    parts = {}
    for mask, poly in x.parts.items():
        ext = {0: 1}
        for k in _bits(mask):
            step = {}
            for m0, c0 in ext.items():
                for j, c in enumerate(g.rows[k]):
                    if c and not m0 >> j & 1:
                        add_into(step, {m0 | 1 << j: _SIGN[m0][1 << j] * c}, c0, p)
            ext = step
        for mono, c in poly.items():
            image = {cfg.zero_mono: 1}
            for k, e in enumerate(mono):
                image = poly_mul(image, poly_pow(images[k], e, p, n), p)
            for tmask, tc in ext.items():
                add_into(parts.setdefault(tmask, {}), image, c * tc, p)
    return ExtClass(cfg, {m: q for m, q in parts.items() if q})


def det_by_permutations(rows, p):
    """The determinant mod p as the signed sum over all permutations."""
    det = 0
    for perm in itertools.permutations(range(len(rows))):
        term = _perm_sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        det += term
    return det % p


def rref_dense(matrix, p):
    """Reduced row echelon form mod p with a full-matrix update per pivot."""
    a = np.array(matrix, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_basis_dense(matrix, p):
    """Reduced-echelon null space basis mod p, one vector per free column."""
    a = np.array(matrix, dtype=np.int64)
    ncols = a.shape[1]
    red, pivots = rref_dense(a, p) if a.shape[0] else (a % p, [])
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-int(red[r, f])) % p
        vectors.append(v)
    if not vectors:
        return []
    echelon, _ = rref_dense(np.array(vectors), p)
    return [row for row in echelon if row.any()]


def degree_basis_sorted(cfg, d):
    """Every (mask, monomial) pair of degree d, sorted by the canonical term
    order."""
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


def invariant_dimension_stacked(group, d):
    """invariant_dimension as the kernel of all dense (g - id) blocks stacked."""
    cfg = group.cfg
    basis = degree_basis_sorted(cfg, d)
    if not basis:
        return 0, []
    if not group.generators:
        return len(basis), [ExtClass(cfg, {mask: {mono: 1}}) for mask, mono in basis]
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    blocks = []
    for g in group.generators:
        m = np.zeros((size, size), dtype=np.int64)
        for col, (mask, mono) in enumerate(basis):
            y = substitute_linear(g, ExtClass(cfg, {mask: {mono: 1}}))
            for ymask, ypoly in y.parts.items():
                for ymono, c in ypoly.items():
                    m[index[(ymask, ymono)], col] = c
        m -= np.identity(size, dtype=np.int64)
        blocks.append(m % cfg.p)
    classes = []
    for vec in kernel_basis_dense(np.vstack(blocks), cfg.p):
        parts = {}
        for i, c in enumerate(vec):
            if c:
                mask, mono = basis[i]
                parts.setdefault(mask, {})[mono] = int(c)
        classes.append(ExtClass(cfg, parts))
    return len(classes), classes


def transvection_group(cfg, kind):
    """SL by every transvection E_ij(1), i != j; GL adds diag(r, 1, ..., 1)."""
    n = cfg.n
    gens = [
        LinearSubst.transvection(cfg, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    if kind == "GL":
        gens.append(LinearSubst.diagonal(cfg, [primitive_root(cfg.p)] + [1] * (n - 1)))
    return GroupSpec(kind, cfg, tuple(gens))


def membership_dickson_dense(x, ring):
    """membership_dickson as one linear system: every degree-d monomial is
    a row, every candidate product of the generators a column."""
    cfg = x.cfg
    if not x:
        return {}
    d = x.degree()
    candidates = list(_compositions(d, list(_generator_degrees(cfg, ring).values())))
    if not candidates:
        return None
    _, gens = ring_generators(cfg, ring)
    products = [
        math.prod((gens[i] ** e for i, e in enumerate(exps) if e), start=ExtClass.one(cfg))
        for exps in candidates
    ]
    monos = list(monomials(cfg.n, d // 2))
    index = {mono: r for r, mono in enumerate(monos)}
    rows = [{} for _ in monos]
    for col, prod in enumerate(products):
        for mono, c in prod.parts.get(0, {}).items():
            rows[index[mono]][col] = c
    rhs = {index[mono]: c for mono, c in x.parts.get(0, {}).items()}
    sol = solve(Matrix(rows, len(products)), rhs, cfg.p)
    if sol is None:
        return None
    return {candidates[i]: v for i, v in sol.items()}


def strip_first_var(poly):
    """Split a polynomial dict into layers by the exponent of t_1."""
    layers = {}
    for mono, c in poly.items():
        layers.setdefault(mono[0], {})[(0,) + mono[1:]] = c
    return layers


def divide_once(layers, p):
    """Divide sum_i a_i t_1^i by (1 + t_1); returns (quotient_layers, remainder)."""
    if not layers:
        return {}, {}
    top = max(layers)
    quotient = {}
    carry = {}
    for i in range(top, 0, -1):
        coeff = add_into(dict(layers.get(i, {})), carry, -1, p)
        if coeff:
            quotient[i - 1] = coeff
        carry = coeff
    remainder = add_into(dict(layers.get(0, {})), carry, -1, p)
    return quotient, remainder


def divisibility_profile_per_vector(x):
    """For each nonzero v, the power of (1 + v) dividing the unital x.

    One coordinate change carrying v to t_1 per vector, then the least j
    with a nonzero Taylor coefficient b_j of the layers at t_1 = -1.
    """
    cfg = x.cfg
    p = cfg.p
    profile = {}
    for v in itertools.product(range(p), repeat=cfg.n):
        if not any(v):
            continue
        layers = {}
        for mono, c in substitute_linear(_coordinate_change(cfg, v), x).parts[0].items():
            layers.setdefault(mono[0], {})[mono[1:]] = c
        mu = 0
        while True:
            taylor = {}
            for i, a in layers.items():
                c = math.comb(i, mu) % p
                if c:
                    add_into(taylor, a, (-1) ** (i - mu) * c, p)
            if taylor:
                break
            mu += 1
        profile[v] = mu
    return profile
