"""Torus characters and exact-integer Chern series.

Characters of T^k live in the Laurent polynomial ring Z[z_1^(+-1)..z_k^(+-1)]
with non-negative multiplicities.  Restriction to the first circle factor
collapses exponent vectors to one coordinate; the total Chern class of a
rank-1 weight multiset {m: mu} is prod (1 + m*u)^mu in Z[u], computed with
exact integers.

The headline computation assembles the 112-dimensional second elementary
symmetric character of the eight z_i^2 + z_i^(-2) and the 128-dimensional
positive half-spin character, restricts both to the first circle, and reads
the second Chern coefficient -120 = -(2^3 * 3 * 5) off the product series.
"""

from __future__ import annotations

import itertools

from .errors import ConsistencyError, guard

SPIN_RANK_BOUND = 12  # spin_plus_char expands 2^m sign vectors; larger m is refused


class LaurentChar:
    """A torus character: exponent vectors in Z^rank with multiplicities."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        merged = {}
        if terms:
            for v, m in terms.items() if isinstance(terms, dict) else terms:
                if len(v) != rank:
                    raise ValueError(f"exponent vector {v} has wrong rank")
                m = int(m)
                if m < 1:
                    raise ValueError("multiplicities must be positive")
                key = tuple(int(e) for e in v)
                merged[key] = merged.get(key, 0) + m
        self.terms = merged

    @classmethod
    def one(cls, rank):
        """The trivial 1-dimensional character."""
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def z(cls, rank, i, power=1):
        """The character z_i^power (i is 0-based)."""
        v = tuple(power if j == i else 0 for j in range(rank))
        return cls(rank, {v: 1})

    @property
    def dimension(self):
        return sum(self.terms.values())

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentChar):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        merged = dict(self.terms)
        for v, m in other.terms.items():
            merged[v] = merged.get(v, 0) + m
        return LaurentChar(self.rank, merged)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = {}
        for va, ma in self.terms.items():
            for vb, mb in other.terms.items():
                v = tuple(a + b for a, b in zip(va, vb))
                out[v] = out.get(v, 0) + ma * mb
        return LaurentChar(self.rank, out)

    def __repr__(self):
        return f"<LaurentChar rank={self.rank} dim={self.dimension} terms={len(self.terms)}>"


def elementary_symmetric_char(k, items):
    """The k-th elementary symmetric function of the given characters."""
    items = list(items)
    if not 0 <= k <= len(items):
        raise ValueError(f"k = {k} out of range for {len(items)} items")
    ranks = {chi.rank for chi in items}
    if len(ranks) > 1:
        raise ValueError("rank mismatch among items")
    rank = ranks.pop() if ranks else 0
    total = LaurentChar(rank)
    for combo in itertools.combinations(items, k):
        prod = LaurentChar.one(rank)
        for chi in combo:
            prod = prod * chi
        total = total + prod
    return total


def spin_plus_char(m):
    """Sum of z_1^(e_1)...z_m^(e_m) over sign vectors with product +1."""
    guard(m, SPIN_RANK_BOUND, f"rank bound for the sign-vector expansion is {SPIN_RANK_BOUND}")
    terms = {}
    for eps in itertools.product((1, -1), repeat=m):
        prod = 1
        for e in eps:
            prod *= e
        if prod == 1:
            terms[eps] = terms.get(eps, 0) + 1
    return LaurentChar(m, terms)


def restrict_to_circle(chi, keep):
    """Set every coordinate except `keep` (0-based) to 1."""
    if not 0 <= keep < chi.rank:
        raise ValueError(f"coordinate {keep} out of range for rank {chi.rank}")
    out = {}
    for v, m in chi.terms.items():
        key = (v[keep],)
        out[key] = out.get(key, 0) + m
    return LaurentChar(1, out)


class IntSeries:
    """Truncated power series in u with exact integer coefficients."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        coeffs = [int(c) for c in coeffs[: trunc + 1]]
        coeffs += [0] * (trunc + 1 - len(coeffs))
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def one(cls, trunc):
        return cls([1], trunc)

    def __eq__(self, other):
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __mul__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = [0] * (trunc + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0 or i > trunc:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > trunc:
                    break
                out[i + j] += a * b
        return IntSeries(out, trunc)

    def __pow__(self, e):
        result = IntSeries.one(self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        return f"<IntSeries {self.coeffs}>"


def chern_series(chi, trunc):
    """Total Chern class of a rank-1 character: prod (1 + m*u)^mult."""
    if chi.rank != 1:
        raise ValueError("chern_series needs a rank-1 character")
    if trunc < 2:
        raise ValueError("trunc must be >= 2")
    series = IntSeries.one(trunc)
    for (m,), mult in chi.items():
        if m == 0:
            continue
        series = series * IntSeries([1, m], trunc) ** mult
    return series


def _valuation(p, m):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def e8_adjoint_check(p, trunc=4):
    """Second Chern class of the rank-248 character restricted to a circle.

    Builds e_2 of the eight z_i^2 + z_i^(-2) plus the positive half-spin
    character, restricts to the first circle factor, and verifies the series
    (1 - 4u^2)^14 (1 - u^2)^64 = 1 - 120u^2 + 7056u^4 - ..., the p-adic
    valuation v_p(120) = 1 and the resulting unit gamma = -120/p.

    The elementary-symmetric character has dimension 112; the orthogonal
    summand it models is 120-dimensional, but the 8 missing weights are zero
    and contribute only factors of 1 to the Chern class.
    """
    if p not in (3, 5):
        raise ValueError("p must be 3 or 5")
    if trunc < 4:
        raise ValueError("trunc must be >= 4")
    rank = 8
    doubled = [
        LaurentChar.z(rank, i, 2) + LaurentChar.z(rank, i, -2) for i in range(rank)
    ]
    lam = elementary_symmetric_char(2, doubled)
    spin = spin_plus_char(rank)
    lam_r = restrict_to_circle(lam, 0)
    spin_r = restrict_to_circle(spin, 0)
    if lam.dimension != 112 or lam_r.dimension != 112:
        raise ConsistencyError(f"lambda^2 character dimension {lam.dimension} != 112")
    if spin.dimension != 128 or spin_r.dimension != 128:
        raise ConsistencyError(f"half-spin character dimension {spin.dimension} != 128")
    if lam_r != LaurentChar(1, {(0,): 84, (2,): 14, (-2,): 14}):
        raise ConsistencyError(f"restricted lambda^2 character is {lam_r.items()}")
    if spin_r != LaurentChar(1, {(1,): 64, (-1,): 64}):
        raise ConsistencyError(f"restricted half-spin character is {spin_r.items()}")
    series = chern_series(lam_r + spin_r, trunc)
    c2 = series.coeffs[2]
    if c2 != -120:
        raise ConsistencyError(f"c_2 = {c2}, expected -120")
    if series.coeffs[:5] != [1, 0, -120, 0, 7056]:
        raise ConsistencyError(f"series prefix {series.coeffs[:5]} is wrong")
    valuation = _valuation(p, abs(c2))
    if valuation != 1:
        raise ConsistencyError(f"v_{p}(120) = {valuation}, expected 1")
    gamma = c2 // p**valuation
    return {
        "p": p,
        "c2": c2,
        "valuation": valuation,
        "gamma_mod_p": gamma % p,
        "series": list(series.coeffs),
        "lambda2_dim": lam_r.dimension,
        "spin_dim": spin_r.dimension,
        "gamma": gamma,
    }
