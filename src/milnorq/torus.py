"""E8's roots and the exact-integer Chern series of their restriction to a circle.

E8's 240 roots (Bourbaki, *Lie Groups*, ch. VI, plate VII) are the 112 D8
roots +-e_i +- e_j (i < j) and the 128 vectors (+-1/2)^8 with an even number
of minus signs.  Doubled, every coordinate is an integer.  A weight w
restricts to the circle h as the integer <w, h>, and the total Chern class
of a rank-1 weight multiset {m: mu} is prod (1 + m*u)^mu in Z[u], computed
with exact integers.

The headline computation restricts the roots to the circle h = e_1 of the
doubled coordinates and reads the second Chern coefficient
-120 = -(2^3 * 3 * 5) off the product series.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import ConsistencyError


def e8_roots():
    """E8's roots in doubled coordinates: (the D8 roots, the half-spin ones)."""
    d8 = []
    for i, j in itertools.combinations(range(8), 2):
        for a, b in itertools.product((2, -2), repeat=2):
            root = [0] * 8
            root[i], root[j] = a, b
            d8.append(tuple(root))
    spin = [s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0]
    return tuple(d8), tuple(spin)


def restrict_to_circle(weights, h):
    """The weights restricted to the circle h: {<w, h>: multiplicity}."""
    restricted = Counter()
    for w in weights:
        if len(w) != len(h):
            raise ValueError(f"weight {w} and circle {h} have different ranks")
        restricted[sum(a * b for a, b in zip(w, h))] += 1
    return restricted


def chern_series(weights, trunc):
    """Coefficients of u^0..u^trunc of prod (1 + m*u)^mult over {m: mult}."""
    if trunc < 2:
        raise ValueError("trunc must be >= 2")
    series = [1] + [0] * trunc
    for m, mult in weights.items():
        if type(mult) is not int or mult < 0:
            raise ValueError(f"multiplicity {mult!r} of {m} is not a non-negative int")
        # (1 + m*u)^mult by the binomial theorem, multiplied in up to u^trunc
        factor = [math.comb(mult, k) * m**k for k in range(min(mult, trunc) + 1)]
        series = [
            sum(f * series[d - k] for k, f in enumerate(factor[: d + 1]))
            for d in range(trunc + 1)
        ]
    return series


def e8_adjoint_check(p):
    """Second Chern class of E8's roots restricted to a circle.

    Restricts the 112 D8 roots and the 128 half-spin roots to the circle
    h = e_1, and verifies the series
    (1 - 4u^2)^14 (1 - u^2)^64 = 1 - 120u^2 + 7056u^4 - ..., the p-adic
    valuation v_p(120) = 1 and the resulting unit gamma = -120/p.

    The roots span 240 of the 248 dimensions of the adjoint representation,
    and the D8 part 112 of the 120 of its orthogonal summand; the 8 missing
    weights are zero and contribute only factors of 1 to the Chern class.
    """
    if p not in (3, 5):
        raise ValueError("p must be 3 or 5")
    d8, spin = e8_roots()
    if len(d8) != 112:
        raise ConsistencyError(f"lambda^2 character dimension {len(d8)} != 112")
    if len(spin) != 128:
        raise ConsistencyError(f"half-spin character dimension {len(spin)} != 128")
    h = (1, 0, 0, 0, 0, 0, 0, 0)
    lam_r = restrict_to_circle(d8, h)
    spin_r = restrict_to_circle(spin, h)
    if lam_r != {0: 84, 2: 14, -2: 14}:
        raise ConsistencyError(f"restricted lambda^2 character is {sorted(lam_r.items())}")
    if spin_r != {1: 64, -1: 64}:
        raise ConsistencyError(f"restricted half-spin character is {sorted(spin_r.items())}")
    series = chern_series(lam_r + spin_r, 4)  # the checks read up to u^4
    c2 = series[2]
    if c2 != -120:
        raise ConsistencyError(f"c_2 = {c2}, expected -120")
    if series != [1, 0, -120, 0, 7056]:
        raise ConsistencyError(f"series prefix {series} is wrong")
    # c2 is -120 here, so some power of p fails to divide it
    valuation = next(v for v in itertools.count() if c2 % p ** (v + 1))
    if valuation != 1:
        raise ConsistencyError(f"v_{p}(120) = {valuation}, expected 1")
    gamma = c2 // p**valuation
    return {
        "p": p,
        "c2": c2,
        "valuation": valuation,
        "gamma_mod_p": gamma % p,
        "series": series,
        "lambda2_dim": len(d8),
        "spin_dim": len(spin),
        "gamma": gamma,
    }
