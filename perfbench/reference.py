"""Reference arithmetic that the benchmark uses to know answers in advance.

Written apart from the ``milnorq`` package and importing nothing from it, so
that a fault in the program cannot hide by also appearing in the answer key.
A polynomial over F_p is a dict {exponent tuple: coefficient in 1..p-1}; a
class of the algebra F_p[t_1..t_n] (x) Lambda(dt_1..dt_n) is a dict
{(dt bitmask, exponent tuple): coefficient}.
"""

from __future__ import annotations

import itertools
import math


def poly_add(a, b, p, scale=1):
    """a + scale*b over F_p."""
    out = dict(a)
    for mono, c in b.items():
        v = (out.get(mono, 0) + scale * c) % p
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def poly_mul(a, b, p):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c % p for m, c in out.items() if c % p}


def poly_pow(a, e, p, n):
    result = {(0,) * n: 1}
    while e:
        if e & 1:
            result = poly_mul(result, a, p)
        e >>= 1
        if e:
            a = poly_mul(a, a, p)
    return result


def homogeneous(poly, t_degree):
    """The terms of total t-degree t_degree."""
    return {m: c for m, c in poly.items() if sum(m) == t_degree}


def linear_form(v, p):
    n = len(v)
    return {
        tuple(1 if i == j else 0 for i in range(n)): c % p
        for j, c in enumerate(v)
        if c % p
    }


def chern_product(weights, p, n):
    """prod over (v, m) in weights of (1 + v)^m, as a polynomial."""
    result = {(0,) * n: 1}
    for v, m in weights.items():
        factor = poly_add({(0,) * n: 1}, linear_form(v, p), p)
        result = poly_mul(result, poly_pow(factor, m, p, n), p)
    return result


def dickson_invariants(p, n):
    """[c_{n,n-1}, ..., c_{n,0}] from f_n(X) = prod over v of (X + v).

    f_n(X) = sum_i (-1)^(n-i) c_{n,i} X^(p^i) + X^(p^n), built from the
    recursion f_k(X) = f_{k-1}(X)^p - f_{k-1}(t_k)^(p-1) f_{k-1}(X), with f
    held as {X-exponent: polynomial}.
    """
    zero = (0,) * n
    f = {1: {zero: 1}}
    for k in range(n):
        at_tk = {}
        for e, poly in f.items():
            shifted = {m[:k] + (m[k] + e,) + m[k + 1:]: c for m, c in poly.items()}
            at_tk = poly_add(at_tk, shifted, p)
        power = poly_pow(at_tk, p - 1, p, n)
        new = {e * p: {tuple(x * p for x in m): c for m, c in poly.items()}
               for e, poly in f.items()}
        for e, poly in f.items():
            diff = poly_add(new.get(e, {}), poly_mul(poly, power, p), p, scale=-1)
            if diff:
                new[e] = diff
            else:
                new.pop(e, None)
        f = new
    return [
        {m: (c * (-1) ** (n - i)) % p for m, c in f[p**i].items()}
        for i in range(n - 1, -1, -1)
    ]


def moore_determinant(p, n):
    """e_n = det(t_j^(p^(n-1-i))) with rows i = 0..n-1 and columns j."""
    out = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        mono = [0] * n
        for i in range(n):
            mono[perm[i]] += p ** (n - 1 - i)
        out = poly_add(out, {tuple(mono): 1}, p, scale=(-1) ** inversions)
    return out


def milnor_q(i, x, p, n):
    """Q_i on a class: the odd derivation with Q_i(dt_k) = t_k^(p^i)."""
    out = {}
    for (mask, mono), c in x.items():
        position = 0
        for k in range(n):
            if not mask >> k & 1:
                continue
            m = mono[:k] + (mono[k] + p**i,) + mono[k + 1:]
            key = (mask ^ (1 << k), m)
            out[key] = (out.get(key, 0) + (-1) ** position * c) % p
            position += 1
    return {key: c for key, c in out.items() if c}


def reduced_power(j, x, p, n):
    """P^j on a class: P(t_k) = t_k + t_k^p, P(dt_k) = dt_k, multiplicative."""
    out = {}
    for (mask, mono), c in x.items():
        # choose i_k <= mono[k] with sum i_k = j; coefficient prod C(a_k, i_k)
        for split in itertools.product(*(range(min(a, j) + 1) for a in mono)):
            if sum(split) != j:
                continue
            coeff = c
            for a, i in zip(mono, split):
                coeff = coeff * math.comb(a, i) % p
            if coeff:
                m = tuple(a + i * (p - 1) for a, i in zip(mono, split))
                out[(mask, m)] = (out.get((mask, m), 0) + coeff) % p
    return {key: c for key, c in out.items() if c}


def apply_word(word, x, p, n):
    """Apply [("Q", i) | ("P", j), ...] right to left."""
    for kind, idx in reversed(word):
        x = milnor_q(idx, x, p, n) if kind == "Q" else reduced_power(idx, x, p, n)
    return x


def class_text(x, n):
    """Expression text in the CLI grammar for a class (any term order)."""
    if not x:
        return "0"
    pieces = []
    for (mask, mono), c in sorted(x.items()):
        factors = [f"t{j + 1}^{e}" for j, e in enumerate(mono) if e]
        factors += [f"dt{k + 1}" for k in range(n) if mask >> k & 1]
        pieces.append("*".join([str(c)] + factors))
    return " + ".join(pieces)


def poly_class(poly):
    """A polynomial as a class with empty exterior part."""
    return {(0, m): c for m, c in poly.items()}


def class_from_json(data):
    """The class of a ``--json`` class payload, as a dict."""
    out = {}
    for term in data["terms"]:
        mask = sum(1 << (k - 1) for k in term["dts"])
        out[(mask, tuple(term["exps"]))] = term["coeff"]
    return out
