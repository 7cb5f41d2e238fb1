"""The sparse-polynomial kernel, checked against sympy's arithmetic over F_p."""

import random

import pytest

from milnorq.backend import add_into, poly_mul, poly_pow

sympy = pytest.importorskip("sympy")


def random_poly(rng, n, terms, max_exp, p):
    out = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        out[mono] = rng.randint(1, p - 1)
    return out


def to_sympy(poly, n, p):
    gens = sympy.symbols(f"x0:{n}")
    return sympy.Poly.from_dict(poly or {(0,) * n: 0}, *gens, modulus=p)


def from_sympy(f, p):
    out = {mono: int(c) % p for mono, c in f.as_dict().items()}
    return {mono: c for mono, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 7, 97])
def test_poly_mul_matches_sympy(n, p):
    rng = random.Random(1000 * n + p)
    for _ in range(20):
        a = random_poly(rng, n, rng.randint(1, 12), 6, p)
        b = random_poly(rng, n, rng.randint(1, 12), 6, p)
        want = from_sympy(to_sympy(a, n, p) * to_sympy(b, n, p), p)
        assert poly_mul(a, b, p) == want


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
    # Frobenius: the p-th power of a linear form is additive
    assert poly_pow(x, p, p, n) == {(7, 0, 0): 1, (0, 7, 0): 3, (0, 0, 7): 6}


def test_empty_operands():
    assert poly_mul({}, {(1,): 1}, 3) == {}
    assert poly_mul({(1,): 1}, {}, 3) == {}


def test_cancellation_drops_terms():
    # (t1 + 2 t2)(2 t1 + 2 t2) = 2 t1^2 + 6 t1 t2 + 4 t2^2; 6 == 0 mod 3
    x = {(1, 0): 1, (0, 1): 2}
    y = {(0, 1): 2, (1, 0): 2}
    assert poly_mul(x, y, 3) == {(2, 0): 2, (0, 2): 1}
    assert poly_mul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1}, 3) == {(2, 0): 1, (1, 1): 1}


def test_large_exponents_stay_exact():
    big = {(70_000,): 1}
    assert poly_mul(big, big, 3) == {(140_000,): 1}
    assert poly_mul({(40_000, 0): 1}, {(40_000, 1): 2}, 3) == {(80_000, 1): 2}
