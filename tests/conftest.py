"""Shared generators for randomized algebra tests (seeded, deterministic)."""

import itertools
import random

import pytest

from milnorq import Config, ExtClass, LinearSubst
from milnorq.chern import WeightMultiset
from milnorq.invariants import monomials


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_class(rng, cfg, max_terms=3, max_exp=3, allow_dt=True):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << cfg.n) if allow_dt else 0
        mono = tuple(rng.randint(0, max_exp) for _ in range(cfg.n))
        coeff = rng.randint(1, cfg.p - 1)
        terms.append((mask, mono, coeff))
    return ExtClass.from_terms(cfg, terms)


def random_homogeneous(rng, cfg, degree=None, max_degree=12, allow_dt=True):
    """A nonzero homogeneous class; polynomial classes need an even degree."""
    while True:
        d = degree if degree is not None else rng.randint(0, max_degree)
        x = random_class(rng, cfg, max_terms=4, max_exp=max(1, d // 2), allow_dt=allow_dt)
        part = x.homogeneous_part(d) if x.degree() is not None else x
        if part:
            return part


def random_homogeneous_poly(rng, cfg, degree):
    """A random polynomial class homogeneous of the given even degree."""
    assert degree % 2 == 0
    pool = list(monomials(cfg.n, degree // 2))
    terms = []
    for mono in rng.sample(pool, k=rng.randint(1, min(4, len(pool)))):
        terms.append((0, mono, rng.randint(1, cfg.p - 1)))
    return ExtClass.from_terms(cfg, terms)


def random_subst(rng, cfg):
    while True:
        rows = [[rng.randrange(cfg.p) for _ in range(cfg.n)] for _ in range(cfg.n)]
        try:
            return LinearSubst(cfg, rows)
        except ValueError:
            continue


def compose(g, h):
    """The substitution by h followed by g: row k is g's image of h's row k."""
    return LinearSubst(g.cfg, [g.apply_weight(row) for row in h.rows])


def linear_form(cfg, v):
    """The class v_1 t_1 + ... + v_n t_n."""
    units = [tuple(int(i == k) for i in range(cfg.n)) for k in range(cfg.n)]
    return ExtClass.from_terms(cfg, [(0, unit, c) for unit, c in zip(units, v)])


def regular_plus(cfg, a, extra=()):
    """a * reg plus the (weight, multiplicity) pairs of extra, one multiset."""
    pairs = [(v, a) for v in itertools.product(range(cfg.p), repeat=cfg.n)] if a else []
    return WeightMultiset(cfg, pairs + list(extra))


def act(g, rho):
    """The multiset of the weights g.v of rho, a bijection as g is invertible."""
    return WeightMultiset(rho.cfg, {g.apply_weight(v): m for v, m in rho.weights.items()})


def x_coefficient(cfg, f, e):
    """The coefficient of X^e in f, a polynomial keyed (e_X, e_1, ..., e_n)."""
    return ExtClass.from_terms(cfg, [(0, m[1:], c) for m, c in f.items() if m[0] == e])


CONFIGS = [Config(3, 2), Config(5, 2), Config(3, 3)]
