"""The sparse-polynomial kernel, checked against sympy's arithmetic over F_p.

The oracle is sympy's sparse polynomial ring over GF(p), which multiplies
dicts of exponent tuples in pure Python and never packs exponents, so it is
independent of poly_mul's packed keys.  A hypothesis test also checks
poly_mul against tests/oracles.py::poly_mul_dict, the plain dict loop.
"""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorq import backend
from milnorq.backend import add_into, frobenius, poly_mul, poly_pow, power_terms
from milnorq.errors import ResourceGuardError
from oracles import poly_mul_dict

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402


def random_poly(rng, n, terms, max_exp, p):
    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        out[mono] = rng.randint(1, p - 1)
    return out


def exact_poly(rng, n, terms, p, max_exp=None):
    """A random polynomial with exactly `terms` terms."""
    if max_exp is None:
        max_exp = 1
        while (max_exp + 1) ** n < 2 * terms:
            max_exp += 1
    out = {}
    while len(out) < terms:
        out[tuple(rng.randint(0, max_exp) for _ in range(n))] = rng.randint(1, p - 1)
    return out


def to_sympy(poly, n, p):
    gens = ",".join(f"x{i}" for i in range(n))
    field, *_ = ring(gens, GF(p))
    return field.from_dict(poly)


def from_sympy(f, p):
    out = {mono: int(c) % p for mono, c in f.items()}
    return {mono: c for mono, c in out.items() if c}


def checked_mul(a, b, p):
    """poly_mul(a, b, p), asserting that neither operand changed."""
    a_before, b_before = list(a.items()), list(b.items())
    product = poly_mul(a, b, p)
    assert list(a.items()) == a_before
    assert list(b.items()) == b_before
    return product


def sympy_mul(a, b, n, p):
    return from_sympy(to_sympy(a, n, p) * to_sympy(b, n, p), p)


def shape(pairs):
    """(|a|, |b|) with |a|*|b| == pairs and |b| as large as possible."""
    lb = max(d for d in range(1, int(pairs**0.5) + 1) if pairs % d == 0)
    return pairs // lb, lb


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
def test_poly_mul_matches_sympy(n, p):
    rng = random.Random(1000 * n + p)
    for _ in range(20):
        a = random_poly(rng, n, rng.randint(1, 12), 6, p)
        b = random_poly(rng, n, rng.randint(1, 12), 6, p)
        assert checked_mul(a, b, p) == sympy_mul(a, b, n, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
@pytest.mark.parametrize("pairs", [127, 128, 129])
def test_poly_mul_at_the_packed_cutoff(n, p, pairs):
    """Exact shapes 127 x 1, 16 x 8 and 43 x 3, in both operand orders."""
    rng = random.Random(f"cutoff:{n}:{p}:{pairs}")
    la, lb = shape(pairs)
    for _ in range(3):
        a = exact_poly(rng, n, la, p)
        b = exact_poly(rng, n, lb, p)
        assert len(a) * len(b) == pairs
        want = sympy_mul(a, b, n, p)
        assert checked_mul(a, b, p) == want
        assert checked_mul(b, a, p) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
def test_poly_mul_over_several_blocks(n, p):
    """A large product: 80,000 pairs."""
    rng = random.Random(f"blocks:{n}:{p}")
    a = exact_poly(rng, n, 4_000, p)
    b = exact_poly(rng, n, 20, p)
    assert checked_mul(a, b, p) == sympy_mul(a, b, n, p)


@pytest.mark.parametrize("p", [3, 7, 97])
def test_telescoping_product_cancels_to_two_terms(p):
    # (x - y) * sum_{i<k} x^i y^(k-1-i) = x^k - y^k: all other 2k - 2 terms
    # cancel, over 65,546 pairs
    k = 2**15 + 5
    a = {(i, k - 1 - i): 1 for i in range(k)}
    b = {(1, 0): 1, (0, 1): p - 1}
    assert checked_mul(a, b, p) == {(k, 0): 1, (0, k): p - 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
def test_product_that_cancels_to_zero(n, p):
    # coefficients that are multiples of p: both operands are zero mod p
    rng = random.Random(f"zero:{n}:{p}")
    a = {mono: p * c for mono, c in exact_poly(rng, n, 40, p).items()}
    b = exact_poly(rng, n, 40, p)
    assert sympy_mul(a, b, n, p) == {}
    assert checked_mul(a, b, p) == {}
    assert checked_mul(a, a, p) == {}


@pytest.mark.parametrize("p", [3, 7, 97])
def test_unreduced_coefficients_stay_exact(p):
    # coefficients of size p * 2^55: their products do not fit in int64
    rng = random.Random(f"unreduced:{p}")
    a = {mono: c + p * 2**55 for mono, c in exact_poly(rng, 3, 30, p).items()}
    b = {mono: c - p * 2**55 for mono, c in exact_poly(rng, 3, 30, p).items()}
    assert checked_mul(a, b, p) == sympy_mul(a, b, 3, p)


@pytest.mark.parametrize("p", [3, 7, 97])
def test_keys_wider_than_a_machine_word_stay_exact(p):
    """Four 17-bit fields of 80,000: a 68-bit key, past any machine word."""
    rng = random.Random(f"wide:{p}")
    a = {(40_000,) * 4: 1, **exact_poly(rng, 4, 20, p, max_exp=5)}
    want = sympy_mul(a, a, 4, p)
    assert want[(80_000,) * 4] == 1
    assert checked_mul(a, a, p) == want
    assert checked_mul({(40_000,) * 4: 1}, {(40_000,) * 4: 1}, p) == {(80_000,) * 4: 1}


def test_exponents_beyond_int64_stay_exact():
    """Exponents of 2^70 stay exact: a key is as wide as it needs to be."""
    huge = 2**70
    a = {(huge, i): 1 for i in range(20)}
    b = {(i, 0): 2 for i in range(20)}
    assert checked_mul(a, b, 3) == sympy_mul(a, b, 2, 3)


@st.composite
def kernel_operands(draw):
    """(a, b, p): empty or not, signed unreduced coefficients, and perhaps
    one term with exponents up to 2^70 in every variable."""
    p = draw(st.sampled_from([3, 5, 7, 97]))
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 99)] * n)
    coeff = st.integers(-(p**3), p**3)
    a = draw(st.dictionaries(mono, coeff, max_size=300))
    b = draw(st.dictionaries(mono, coeff, max_size=12))
    top = draw(st.sampled_from([None, 2**16, 2**31, 2**63, 2**70]))
    if top is not None:
        a[tuple(draw(st.integers(0, top)) for _ in range(n))] = draw(coeff)
    return a, b, p


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(operands=kernel_operands())
def test_poly_mul_matches_the_dict_loop(operands):
    a, b, p = operands
    want = poly_mul_dict(a, b, p)
    assert checked_mul(a, b, p) == want
    assert checked_mul(b, a, p) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
def test_add_into_matches_sympy(n, p):
    rng = random.Random(2000 * n + p)
    for _ in range(20):
        a = random_poly(rng, n, rng.randint(0, 12), 3, p)
        b = random_poly(rng, n, rng.randint(0, 12), 3, p)
        c = rng.choice([-1, 0, 1, p - 1, p + 2, rng.randint(-3 * p, 3 * p)])
        b_before = dict(b)
        target = dict(a)
        assert add_into(target, b, c, p) is target
        want = from_sympy(to_sympy(a, n, p) + c * to_sympy(b, n, p), p)
        assert target == want
        assert b == b_before


def test_add_into_cancels_to_empty():
    a = {(1, 0): 1, (0, 2): 2}
    assert add_into(dict(a), a, -1, 5) == {}
    assert add_into(dict(a), a, 4, 5) == {}


def test_poly_pow_matches_repeated_product():
    p, n = 7, 3
    x = {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 6}
    assert poly_pow(x, 0, p, n) == {(0, 0, 0): 1}
    assert poly_pow(x, 1, p, n) == x
    assert poly_pow(x, 5, p, n) == from_sympy(to_sympy(x, n, p) ** 5, p)
    assert poly_pow(x, 12, p, n) == from_sympy(to_sympy(x, n, p) ** 12, p)
    # Frobenius: the p-th power of a linear form is additive
    assert poly_pow(x, p, p, n) == {(7, 0, 0): 1, (0, 7, 0): 3, (0, 0, 7): 6}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_poly_pow_past_p_matches_sympy(n, p):
    """Exponents p, p + 1, 2p + 1 and p^2 + 2, and frobenius as the p-th power."""
    rng = random.Random(f"frobenius:{n}:{p}")
    for _ in range(3):
        x = random_poly(rng, n, rng.randint(1, 4), 2, p)
        x[(0,) * n] = rng.randint(1, p - 1)  # a constant term
        for e in (p, p + 1, 2 * p + 1, p * p + 2):
            assert poly_pow(x, e, p, n) == from_sympy(to_sympy(x, n, p) ** e, p)
        assert frobenius(x, p) == from_sympy(to_sympy(x, n, p) ** p, p)


def test_poly_pow_forms_no_product_past_its_digits(monkeypatch):
    # (1 + t1 + t2)^(3^6) = 1 + t1^729 + t2^729: the one base-3 digit is a
    # Frobenius image, where squaring would pass through (1 + t1 + t2)^512
    sizes = []

    def recording(a, b, p):
        product = poly_mul(a, b, p)
        sizes.append(len(product))
        return product

    monkeypatch.setattr(backend, "poly_mul", recording)
    x = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert poly_pow(x, 3**6, 3, 2) == {(0, 0): 1, (729, 0): 1, (0, 729): 1}
    assert max(sizes) == 3


@pytest.mark.parametrize("p", [3, 5, 97])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_power_terms_counts_the_terms_of_poly_pow(s, p):
    # m has two random nonzero base-p digits among its lowest four, each
    # small enough that (1 + c_1 x_1 + ... + c_s x_s)^m stays under 10^4 terms
    rng = random.Random(f"power-terms:{s}:{p}")
    top = min(p - 1, {1: 96, 2: 11, 3: 5, 4: 4}[s])
    for _ in range(8):
        m = sum(rng.randint(1, top) * p**k for k in rng.sample(range(4), 2))
        base = {(0,) * s: 1}
        for k in range(s):
            base[tuple(int(i == k) for i in range(s))] = rng.randrange(1, p)
        assert power_terms(m, s, p) == len(poly_pow(base, m, p, s)), (m, base)
    assert power_terms(0, s, p) == len(poly_pow(base, 0, p, s)) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poly_mul_stops_at_its_limit(monkeypatch, n):
    # the accumulator holds every monomial of the sumset before reduction
    # mod p; the last pass over the longer factor adds at most its length,
    # so a limit below the sumset refuses and one a factor above it admits
    rng = random.Random(f"limit:{n}")
    for _ in range(5):
        a = random_poly(rng, n, rng.randint(1, 30), 4, 5)
        b = random_poly(rng, n, rng.randint(1, 30), 4, 5)
        want = poly_mul_dict(a, b, 5)
        sumset = len({tuple(map(operator.add, x, y)) for x in a for y in b})
        monkeypatch.setattr(backend, "PRODUCT_LIMIT", sumset - 1)
        with pytest.raises(ResourceGuardError, match=f"could pass its bound of {sumset - 1} "):
            poly_mul(a, b, 5)
        monkeypatch.setattr(backend, "PRODUCT_LIMIT", sumset + max(len(a), len(b)))
        assert poly_mul(a, b, 5) == want


def test_empty_operands():
    assert checked_mul({}, {(1,): 1}, 3) == {}
    assert checked_mul({(1,): 1}, {}, 3) == {}


def test_cancellation_drops_terms():
    # (t1 + 2 t2)(2 t1 + 2 t2) = 2 t1^2 + 6 t1 t2 + 4 t2^2; 6 == 0 mod 3
    x = {(1, 0): 1, (0, 1): 2}
    y = {(0, 1): 2, (1, 0): 2}
    assert checked_mul(x, y, 3) == {(2, 0): 2, (0, 2): 1}
    assert checked_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1}, 3) == {(2, 0): 1, (1, 1): 1}


def test_large_exponents_stay_exact():
    big = {(70_000,): 1}
    assert checked_mul(big, big, 3) == {(140_000,): 1}
    assert checked_mul({(40_000, 0): 1}, {(40_000, 1): 2}, 3) == {(80_000, 1): 2}
