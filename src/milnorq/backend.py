"""The sparse-polynomial kernel over F_p.

A polynomial in n variables over F_p is a dict mapping exponent tuples of
length n to coefficients in 1..p-1; zero coefficients are never stored.
poly_mul and add_into are the only loops that combine two such dicts, and
add_into is the one mod-p accumulate helper: a single term is added as
a one-term dict.

poly_mul is one loop on packed monomials (Monagan & Pearce, "Parallel
sparse polynomial multiplication using heaps", ISSAC 2009), with Python
ints as the keys.  Each exponent tuple becomes one int: the field of
variable i is as wide as the bit length of max_i(a) + max_i(b), and
variable 0 takes the highest field.  The widths are chosen per call, so
the sum of two keys never carries from one field into the next, and the
product of two monomials is the sum of their keys.  Python ints never
overflow, so the loop is exact for any exponents and coefficients, with
no width limit and no fallback.

Every product has one limit, PRODUCT_LIMIT, always on: poly_mul, and so
poly_pow and every caller of either, raises ResourceGuardError before its
accumulator could pass that many monomials.

binomial, binomials and power_terms read binomials mod p by Lucas's
theorem, C(a, k) = prod_d C(a_d, k_d) over the base-p digits, the rule
by which poly_pow expands a power one digit at a time.

Precondition: every exponent is non-negative (a negative field would
borrow from its neighbour).  Every dict in the package meets it:
exprio.parse_class, the one reader of class text, rejects negative
exponents.
"""

import math
from itertools import repeat
from operator import and_, lshift, rshift

from .errors import DESK_SCALE_BYTES, ResourceGuardError

# poly_mul's tracemalloc peak per monomial of its accumulator was 133-323 B
# from 2.4 * 10^4 to 7.1 * 10^5 of them at n = 2..4, factor and result included
PRODUCT_LIMIT = DESK_SCALE_BYTES // 400


def backend_name():
    """Name of the kernel: one dict loop on exponents packed into Python ints."""
    return "packed-int"


def poly_mul(a, b, p):
    """Product of two sparse polynomials mod p; exponents must be >= 0.

    It raises ResourceGuardError before its accumulator, which holds every
    monomial formed before reduction mod p, could pass PRODUCT_LIMIT
    monomials: the check runs once per term of the shorter factor, against
    what one more pass over the longer factor could add.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {}
    widths = [(x + y).bit_length() for x, y in zip(map(max, zip(*a)), map(max, zip(*b)))]
    shifts = [sum(widths[i + 1:]) for i in range(len(widths))]
    terms_a = [(sum(map(lshift, m, shifts)), c) for m, c in a.items()]
    room = PRODUCT_LIMIT - len(terms_a)
    acc = {}
    get = acc.get
    for mb, cb in b.items():
        if len(acc) > room:
            raise ResourceGuardError(
                f"a product could pass its bound of {PRODUCT_LIMIT} monomials"
            )
        kb = sum(map(lshift, mb, shifts))
        for ka, ca in terms_a:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    masks = [(1 << w) - 1 for w in widths]
    product = {}
    for k, c in acc.items():
        c %= p
        if c:
            product[tuple(map(and_, map(rshift, repeat(k), shifts), masks))] = c
    return product


def add_into(target, src, c, p):
    """In place: target += c * src mod p, removing cancelled terms.

    Works for any dict of coefficients mod p, whatever its keys.  Returns
    target, so add_into(dict(a), b, -1, p) is a - b.
    """
    get = target.get
    for key, v in src.items():
        v = (get(key, 0) + c * v) % p
        if v:
            target[key] = v
        else:
            target.pop(key, None)
    return target


def frobenius(poly, p):
    """poly ** p mod p: every exponent times p.

    Over F_p, (sum c_m t^m)^p = sum c_m^p t^(pm), and c^p = c.
    """
    return {tuple(e * p for e in m): c for m, c in poly.items()}


def poly_pow(poly, e, p, n):
    """poly ** e mod p; n is the number of variables.

    poly^e is the product over the base-p digits e_k of e of
    frobenius^k(poly)^(e_k), each by repeated squaring, so no partial
    product has more terms than poly^(e_0) ... frobenius^k(poly)^(e_k).
    Every product stops at PRODUCT_LIMIT as in poly_mul.
    """
    result = {(0,) * n: 1}
    while e:
        e, digit = divmod(e, p)
        base = poly
        while digit:
            if digit & 1:
                result = poly_mul(result, base, p)
            digit >>= 1
            if digit:
                base = poly_mul(base, base, p)
        if e:
            poly = frobenius(poly, p)
    return result


def binomial(a, k, p):
    """C(a, k) mod p by Lucas's theorem."""
    b = 1
    while k and b:
        a, ad = divmod(a, p)
        k, kd = divmod(k, p)
        b = b * math.comb(ad, kd) % p
    return b


def binomials(a, kmax, p):
    """The pairs (k, C(a, k) mod p), ascending, for k <= kmax and C(a, k) != 0 mod p:
    the k with every digit at most a's, built from the lowest digit up."""
    row = [(0, 1)]
    place = 1
    while a and place <= kmax:
        a, digit = divmod(a, p)
        row = [
            (place * kd + k, math.comb(digit, kd) * b % p)
            for kd in range(digit + 1)
            for k, b in row
            if place * kd + k <= kmax
        ]
        place *= p
    return tuple(row)


def power_terms(m, s, p):
    """How many terms (1 + c_1 x_1 + ... + c_s x_s)^m has mod p, each c_i != 0:
    prod_d C(m_d + s, s) over the base-p digits m_d of m, and no partial
    product of poly_pow's has more.  At s = 1, how many C(m, k) are nonzero."""
    count = 1
    while m:
        m, digit = divmod(m, p)
        count *= math.comb(digit + s, s)
    return count
