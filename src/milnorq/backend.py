"""The sparse-polynomial kernel over F_p.

A polynomial in n variables over F_p is a dict mapping exponent tuples of
length n to coefficients in 1..p-1; zero coefficients are never stored.
poly_mul and add_into are the only loops that combine two such dicts;
algebra._accumulate adds a single term.

poly_mul has two paths, the dict loop and packed keys, and a three-way rule
that chooses between them from the operands and from whether numpy is
loaded yet:

- Dict loop.  Products of fewer than PACKED_MIN_PAIRS term pairs (|a|*|b|)
  run a plain dict loop, which costs least per call: below about 64 pairs
  the fixed cost of the numpy calls is larger than the whole loop.
- Rent budget.  Loading numpy costs about 30 ms, as much as 65,536 pairs
  (NUMPY_IMPORT_PAIRS) of the dict loop at its 400-520 ns a pair.  Until
  some other module has loaded numpy, a product of PACKED_MIN_PAIRS pairs
  or more stays on the dict loop and adds its pairs to a process-wide
  count; the product that takes the count to NUMPY_IMPORT_PAIRS loads
  numpy and takes the packed path.  This is the rent-or-buy rule (Karlin,
  Manasse, Rudolph & Sleator, "Competitive snoopy caching", 1988): the
  dict loop spends at most about one import before numpy is bought, and
  the many calls whose products are small in total never load numpy.
- Packed keys, once numpy is loaded (by the budget or by a solver).
  Products of PACKED_MIN_PAIRS pairs or more pack each exponent tuple into
  one int64 key (packed monomials, as in Monagan & Pearce, "Parallel
  sparse polynomial multiplication using heaps", ISSAC 2009), at 60-230 ns
  a pair.  The field of variable i is as wide as the bit length of
  max_i(a) + max_i(b), so the widths are chosen per call and a sum of two
  keys never carries from one field into the next.  Variable 0 takes the
  highest field, so keys sort in exponent-tuple order.  The keys of a are
  sorted once; then keys of term pairs are added and coefficients
  multiplied mod p in blocks of at most BLOCK_PAIRS pairs (or of one term
  of the larger operand times all of the smaller one, if that is more).
  Each block is stably sorted together with the running sorted result, and
  the coefficients of equal keys are summed mod p.  Temporaries thus stay
  near the size of the result, whatever the number of pairs.

Exact fallback: when the widths sum to more than PACKED_KEY_BITS, or an
exponent or coefficient does not fit in int64, the product takes the dict
loop, which is exact for any Python ints.  All paths return equal dicts;
only the insertion order differs.
"""

import sys
from itertools import chain

PACKED_MIN_PAIRS = 128  # |a|*|b| below this uses the dict loop
PACKED_KEY_BITS = 62  # widest packed key; wider products use the dict loop
BLOCK_PAIRS = 1 << 15  # most term pairs formed at once on the packed path
NUMPY_IMPORT_PAIRS = 1 << 16  # dict-loop pairs that cost about one numpy import

_rented_pairs = 0  # pairs of packed-size products run on the dict loop so far


def backend_name():
    """Name of the kernel: a dict loop, numpy packed keys for large products.

    Products of fewer than PACKED_MIN_PAIRS pairs always run the dict loop.
    Larger ones run it too until numpy is loaded, by a solver or once the
    dict loop has spent NUMPY_IMPORT_PAIRS pairs on them (about the 30 ms
    that the import costs); from then on they take the packed path.
    """
    return "dict+numpy-packed"


def poly_mul(a, b, p):
    """Product of two sparse polynomials mod p."""
    global _rented_pairs
    if len(a) < len(b):
        a, b = b, a
    pairs = len(a) * len(b)
    if pairs >= PACKED_MIN_PAIRS:
        bought = "numpy" in sys.modules
        if not bought:
            _rented_pairs += pairs
            bought = _rented_pairs >= NUMPY_IMPORT_PAIRS
        if bought:
            product = _packed_mul(a, b, p)
            if product is not None:
                return product
    return _dict_mul(a, b, p)


def _dict_mul(a, b, p):
    acc = {}
    get = acc.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            acc[k] = get(k, 0) + ca * cb
    return {k: c for k, c in ((k, c % p) for k, c in acc.items()) if c}


def _as_arrays(poly, n):
    """(exponents as an (|poly|, n) int64 array, coefficients as int64)."""
    import numpy as np

    size = len(poly)
    exps = np.fromiter(chain.from_iterable(poly), dtype=np.int64, count=size * n)
    coeffs = np.fromiter(poly.values(), dtype=np.int64, count=size)
    return exps.reshape(size, n), coeffs


def _packed_mul(a, b, p):
    """poly_mul on packed int64 keys; None when the keys would not fit."""
    import numpy as np

    n = len(next(iter(a)))
    try:
        exps_a, coeffs_a = _as_arrays(a, n)
        exps_b, coeffs_b = _as_arrays(b, n)
    except OverflowError:
        return None
    top = zip(exps_a.max(axis=0).tolist(), exps_b.max(axis=0).tolist())
    widths = [(x + y).bit_length() for x, y in top]
    if sum(widths) > PACKED_KEY_BITS:
        return None
    # variable 0 takes the highest field, so key order is exponent-tuple order
    shifts = np.cumsum([0] + widths[:0:-1], dtype=np.int64)[::-1]
    keys_a = (exps_a << shifts).sum(axis=1)
    keys_b = (exps_b << shifts).sum(axis=1)
    # sorted keys of a make each row of a block one sorted run; a built by
    # the dict loop comes in insertion order
    order = np.argsort(keys_a, kind="stable")
    keys_a = keys_a[order]
    coeffs_a = coeffs_a[order] % p
    coeffs_b %= p

    keys = np.empty(0, dtype=np.int64)
    coeffs = np.empty(0, dtype=np.int64)
    rows = max(1, BLOCK_PAIRS // len(b))
    for start in range(0, len(a), rows):
        # one row per term of b, each sorted: the stable sort merges
        # len(b) + 1 sorted runs
        block_keys = keys_b[:, None] + keys_a[None, start:start + rows]
        block_coeffs = coeffs_b[:, None] * coeffs_a[None, start:start + rows]
        keys, coeffs = _sum_equal_keys(
            np.concatenate((keys, block_keys.ravel())),
            np.concatenate((coeffs, block_coeffs.ravel())),
            p,
        )

    nonzero = coeffs != 0
    keys, coeffs = keys[nonzero], coeffs[nonzero]
    masks = (np.int64(1) << np.array(widths, dtype=np.int64)) - 1
    columns = ((keys >> shift) & mask for shift, mask in zip(shifts, masks))
    # one list per variable: no per-term list is made on the way to the tuples
    return dict(zip(zip(*(column.tolist() for column in columns)), coeffs.tolist()))


def _sum_equal_keys(keys, coeffs, p):
    """Sort by key and sum the coefficients of equal keys mod p."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    coeffs = coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(coeffs, starts) % p


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
