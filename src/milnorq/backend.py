"""The sparse-polynomial kernel over F_p.

A polynomial in n variables over F_p is a dict mapping exponent tuples of
length n to coefficients in 1..p-1; zero coefficients are never stored.
poly_mul and add_into are the only loops that combine two such dicts;
algebra._accumulate adds a single term.
"""


def backend_name():
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def poly_mul(a, b, p):
    """Product of two sparse polynomials mod p."""
    if len(a) < len(b):
        a, b = b, a
    acc = {}
    get = acc.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            acc[k] = get(k, 0) + ca * cb
    return {k: c for k, c in ((k, c % p) for k, c in acc.items()) if c}


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


def poly_pow(poly, e, p, n):
    """poly ** e mod p by repeated squaring; n is the number of variables."""
    result = {(0,) * n: 1}
    base = poly
    while e:
        if e & 1:
            result = poly_mul(result, base, p)
        e >>= 1
        if e:
            base = poly_mul(base, base, p)
    return result
