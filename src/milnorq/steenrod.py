"""Milnor operations Q_i and reduced power operations P^j.

Generator rules: Q_i(dt_k) = t_k^(p^i), Q_i(t_k) = 0, extended as an odd
derivation; P^j is multiplicative in total form with P(t_k) = t_k + t_k^p
and P(dt_k) = dt_k, so on a monomial t^a the total operation expands as
the product over k of sum_i C(a_k, i) t_k^(a_k + i(p-1)).

Q_i raises cohomological degree by 2p^i - 1, P^j by 2j(p-1).
"""

from __future__ import annotations

from .algebra import ExtClass, _binomials_mod_p
from .backend import add_into


def milnor_q(i, x):
    """Apply the Milnor operation Q_i (an odd derivation) to x."""
    if i < 0:
        raise ValueError("operation index must be non-negative")
    cfg = x.cfg
    p = cfg.p
    q = p**i
    parts = {}
    for mask, poly in x.parts.items():
        sign = 1  # (-1)^(dt factors before dt_(bit+1)) in the ascending product
        for bit in range(cfg.n):
            if not mask >> bit & 1:
                continue
            shifted = {m[:bit] + (m[bit] + q,) + m[bit + 1:]: c for m, c in poly.items()}
            add_into(parts.setdefault(mask ^ (1 << bit), {}), shifted, sign, p)
            sign = -sign
    return ExtClass(cfg, {m: part for m, part in parts.items() if part})


def _term_totals(mono, jmax, p, n):
    """Total reduced power of the monomial t^mono, split by operation index.

    Returns {j: polynomial dict} for 0 <= j <= jmax.
    """
    states = {0: {mono: 1}}
    for k in range(n):
        e = mono[k]
        if e == 0:
            continue
        options = _binomials_mod_p(e, jmax, p)[1:]
        if not options:
            continue
        # no collisions inside one term: the var-k exponent of an output
        # monomial determines i, so targets of distinct (j0, i) are disjoint
        new = {}
        for j0, poly0 in states.items():
            new.setdefault(j0, {}).update(poly0)
            for i, b in options:
                j1 = j0 + i
                if j1 > jmax:
                    continue
                target = new.setdefault(j1, {})
                step = i * (p - 1)
                for m0, c0 in poly0.items():
                    m1 = list(m0)
                    m1[k] += step
                    target[tuple(m1)] = (b * c0) % p
        states = new
    return states


def reduced_power(j, x):
    """Apply the reduced power operation P^j to x."""
    if j < 0:
        raise ValueError("operation index must be non-negative")
    cfg = x.cfg
    p = cfg.p
    parts = {}
    for mask, poly in x.parts.items():
        target = parts.setdefault(mask, {})
        for mono, c in poly.items():
            add_into(target, _term_totals(mono, j, p, cfg.n).get(j, {}), c, p)
    return ExtClass(cfg, {m: q for m, q in parts.items() if q})


def total_reduced_power(x, max_degree):
    """All P^j x with output degree bounded by max_degree.

    Entry j equals reduced_power(j, x) restricted to degree <= max_degree;
    entries run while the cheapest term of x could still contribute.
    """
    cfg = x.cfg
    p = cfg.p
    top = x.degree()
    if top is not None and max_degree < top:
        raise ValueError("max_degree must be at least the degree of x")
    step = 2 * (p - 1)
    jmax = (max_degree - x.min_degree()) // step
    out = [{} for _ in range(jmax + 1)]
    for mask, mono, c in x.iter_terms():
        deg = mask.bit_count() + 2 * sum(mono)
        jterm = min(jmax, (max_degree - deg) // step)
        if jterm < 0:
            continue
        totals = _term_totals(mono, jterm, p, cfg.n)
        for j, poly in totals.items():
            add_into(out[j].setdefault(mask, {}), poly, c, p)
    return [ExtClass(cfg, {m: q for m, q in parts.items() if q}) for parts in out]


def parse_op_word(text):
    """Parse comma-separated atoms like "Q0,Q1,P2" into an operation word."""
    word = []
    for raw in text.split(","):
        atom = raw.strip()
        if not atom:
            raise ValueError("empty operation atom")
        kind = atom[0].upper()
        if kind not in ("Q", "P") or not atom[1:].isdigit():
            raise ValueError(f"bad operation atom {atom!r}; expected Q<i> or P<j>")
        word.append((kind, int(atom[1:])))
    return word


def apply_word(word, x):
    """Apply an operation word right-to-left (written composition order)."""
    for kind, idx in reversed(list(word)):
        if kind == "Q":
            x = milnor_q(idx, x)
        elif kind == "P":
            x = reduced_power(idx, x)
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return x
