"""Milnor operations Q_i and reduced power operations P^j.

Generator rules: Q_i(dt_k) = t_k^(p^i), Q_i(t_k) = 0, extended as an odd
derivation; P^j obeys the Cartan formula with P^1(t_k) = t_k^p, P^i(t_k)
= 0 for i > 1 and P^i(dt_k) = 0 for i > 0, so on a monomial t^a, P^j is
the sum over the splits j = i_1 + ... + i_n of the products of
C(a_k, i_k) t_k^(a_k + i_k(p-1)).

Q_i raises cohomological degree by 2p^i - 1, P^j by 2j(p-1).
"""

from __future__ import annotations

import itertools
import math

from .algebra import ExtClass
from .backend import add_into, binomial, binomials, power_terms
from .errors import guard, guard_bytes

# the tracemalloc peak of a whole apply call per priced entry was 810-895 B
# from 2 * 10^4 to 5 * 10^5 entries, and of reduced_power alone 108-649 B
POWER_ENTRY_BYTES = 1024


def milnor_q(i, x):
    """Apply the Milnor operation Q_i (an odd derivation) to x."""
    if i < 0:
        raise ValueError("operation index must be non-negative")
    cfg = x.cfg
    p = cfg.p
    # priced before p**i is formed: p^i has floor(i log10 p) + 1 digits, and
    # 4300 is the most that Python's str() prints by default (and int() reads
    # in --expr), so a larger exponent could not be output
    top = int(4300 / math.log10(p))
    guard(i, top, f"Q_{i}: p^i has over 4300 decimal digits for i > {top}")
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


def _lucas_split(mono, p):
    """(w, the other exponents): _term_totals reads mono[w] by Lucas's theorem,
    w the exponent with the most nonzero C(mono[w], i) mod p, the last on a tie."""
    w = max(range(len(mono)), key=lambda k: (power_terms(mono[k], 1, p), k))
    return w, mono[:w] + mono[w + 1:]


def _term_totals(mono, j, p):
    """P^j of the monomial t^mono, as a kernel dict.

    P^j t^mono sums, over the splits j = i_1 + ... + i_n, the products of
    C(mono_k, i_k) t_k^(mono_k + i_k(p-1)).  The splits of the exponents
    other than mono[w], w from _lucas_split, are grouped by their sum
    j0 <= j; the part of w is j - j0, whose one binomial is read by Lucas's
    theorem rather than from a whole row.  Each output monomial determines
    its split, so no two terms collide.
    """
    step = p - 1
    w, others = _lucas_split(mono, p)
    states = {0: {(): 1}}  # j0 -> {exponents of the others so far: coefficient}
    for a in others:
        row = binomials(a, j, p)
        new = {}
        for j0, poly in states.items():
            for i, b in row:
                if j0 + i > j:
                    break
                target = new.setdefault(j0 + i, {})
                e = (a + i * step,)
                for m, c in poly.items():
                    target[m + e] = b * c % p
        states = new
    a = mono[w]
    out = {}
    for j0, poly in states.items():
        b = binomial(a, j - j0, p)
        if b:
            e = (a + (j - j0) * step,)
            for m, c in poly.items():
                out[m[:w] + e + m[w:]] = b * c % p
    return out


def _split_count(bounds, j, p):
    """How many (i_1, ..., i_k) sum to j with each i_m digit-wise at most
    bounds[m] in base p, that is with every C(bounds[m], i_m) != 0 mod p.

    A count over the base-p digits of j, lowest first, keyed by the carry
    into the next digit; ways[s] counts the digit tuples with digit sum s.
    """
    bounds = list(bounds)
    carries = {0: 1}
    while j:
        j, target = divmod(j, p)
        ways = [1]
        for m, b in enumerate(bounds):
            bounds[m], d = divmod(b, p)
            acc = [0, *itertools.accumulate(ways)]
            ways = [acc[min(s + 1, len(ways))] - acc[max(0, s - d)] for s in range(len(ways) + d)]
        new = {}
        for carry, count in carries.items():
            for s in range((target - carry) % p, len(ways), p):
                new[(s + carry) // p] = new.get((s + carry) // p, 0) + count * ways[s]
        carries = new
    return carries.get(0, 0)


def reduced_power(j, x):
    """Apply the reduced power operation P^j to x.

    Priced before any term is expanded: each monomial's _term_totals holds
    at most one entry per split of j0 <= j over the other exponents of
    _lucas_split, and builds at most one output term for each, counted by
    _split_count with the part of w free to take any j - j0.
    """
    if j < 0:
        raise ValueError("operation index must be non-negative")
    cfg = x.cfg
    p = cfg.p
    free = p ** j.bit_length() - 1  # every base-p digit of any i <= j is allowed
    entries = sum(
        _split_count(_lucas_split(mono, p)[1] + (free,), j, p)
        for poly in x.parts.values()
        for mono in poly
    )
    guard_bytes(f"P^{j} builds up to {entries} partial terms", POWER_ENTRY_BYTES * entries)
    parts = {}
    for mask, poly in x.parts.items():
        target = parts.setdefault(mask, {})
        for mono, c in poly.items():
            add_into(target, _term_totals(mono, j, p), c, p)
    return ExtClass(cfg, {m: q for m, q in parts.items() if q})


def parse_op_word(text):
    """Parse comma-separated atoms like "Q0,Q1,P2" into an operation word."""
    word = []
    for raw in text.split(","):
        atom = raw.strip()
        if not atom:
            raise ValueError("empty operation atom")
        kind = atom[0].upper()
        # ASCII digits only: str.isdigit also accepts "²", and int() "١"
        if kind not in ("Q", "P") or not (atom[1:].isascii() and atom[1:].isdigit()):
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
