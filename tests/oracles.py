"""Independent routes to the Dickson polynomial f_n, used only by tests.

The library computes f_n by the additive recursion in
invariants.dickson_polynomial; these oracles expand the defining product
directly, so agreement checks the recursion.
"""

import itertools
import math

from milnorq.invariants import XPoly, _guard_points, _poly_one


def dickson_polynomial_naive(cfg):
    """The literal p^n-factor product of (X + v)."""
    _guard_points(cfg)
    p, n = cfg.p, cfg.n
    f = XPoly.one(cfg)
    for v in itertools.product(range(p), repeat=n):
        poly = {}
        for j, cj in enumerate(v):
            if cj:
                mono = tuple(1 if i == j else 0 for i in range(n))
                poly[mono] = cj
        factor = {1: _poly_one(cfg)}
        if poly:
            factor[0] = poly
        f = f * XPoly(cfg, factor)
    return f


def substitute_x_shift(f, lam, k):
    """Substitute X = X + lam * t_k (1-based) in f; binomial expansion."""
    p = f.cfg.p
    out = {}
    for e, poly in f.coeffs.items():
        for r in range(e + 1):
            b = (math.comb(e, r) * pow(lam, e - r, p)) % p
            if not b:
                continue
            target = out.setdefault(r, {})
            for mono, c in poly.items():
                m1 = list(mono)
                m1[k - 1] += e - r
                m1 = tuple(m1)
                v = (target.get(m1, 0) + b * c) % p
                if v:
                    target[m1] = v
                else:
                    target.pop(m1, None)
    return XPoly(f.cfg, {e: poly for e, poly in out.items() if poly})


def dickson_polynomial_shift(cfg):
    """The recursion f_n(X) = prod_lam f_{n-1}(X + lam*t_n)."""
    _guard_points(cfg)
    p = cfg.p
    f = XPoly.x(cfg)
    for k in range(1, cfg.n + 1):
        prod = XPoly.one(cfg)
        for lam in range(p):
            prod = prod * substitute_x_shift(f, lam, k)
        f = prod
    return f
