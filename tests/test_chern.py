import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorq import (
    Config,
    ConsistencyError,
    ExtClass,
    LinearSubst,
    ResourceGuardError,
    dickson_classes,
    divisibility_profile,
    group_generators,
    image_generator,
    is_invariant,
    membership_dickson,
    moore_class,
    obstruction_table,
    power_of_regular,
    regular_representation,
    substitute_linear,
    total_chern,
)
from milnorq import backend, chern
from milnorq.chern import WeightMultiset, _coordinate_change
from milnorq.errors import DESK_SCALE_BYTES
from conftest import act, compose, linear_form, random_subst, regular_plus
from oracles import (
    divide_once,
    divisibility_profile_per_vector,
    strip_first_var,
    total_chern_sequential,
)


def random_multiset(rng, cfg, max_weights=4, max_mult=3, nonzero=False):
    weights = {}
    for _ in range(rng.randint(1, max_weights)):
        v = tuple(rng.randrange(cfg.p) for _ in range(cfg.n))
        if nonzero and not any(v):
            continue
        weights[v] = rng.randint(1, max_mult)
    if not weights:
        weights[(1,) + (0,) * (cfg.n - 1)] = 1
    return WeightMultiset(cfg, weights)


class TestWeightMultiset:
    def test_dimension_counts_multiplicities(self):
        cfg = Config(3, 2)
        rho = WeightMultiset(cfg, {(1, 0): 2, (0, 0): 3})
        assert rho.dimension == 5

    def test_coordinates_are_reduced_mod_p(self):
        cfg = Config(3, 2)
        assert WeightMultiset(cfg, {(4, -1): 1}).weights == {(1, 2): 1}

    def test_multiplicity_must_be_positive(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            WeightMultiset(cfg, {(1, 0): 0})

    def test_non_integers_are_refused(self):
        # int() would read {(1.7, 0.2): 2.9} as {(1, 0): 2}
        cfg = Config(3, 2)
        for weights in ({(1.7, 0.2): 2.9}, {(1, 0): 2.0}, {(1.0, 0): 2}, {("1", 0): 1}):
            with pytest.raises(ValueError, match="is not integral"):
                WeightMultiset(cfg, weights)
        assert WeightMultiset(cfg, {(np.int64(4), 0): np.int32(2)}).weights == {(1, 0): 2}

    def test_parse_weights_text(self):
        cfg = Config(3, 3)
        rho = WeightMultiset.parse(
            "# comment\n1,0,2 x3\n\n0,1,1  # trailing comment\n1,0,2\n", cfg
        )
        assert rho.weights == {(1, 0, 2): 4, (0, 1, 1): 1}
        with pytest.raises(ValueError):
            WeightMultiset.parse("1,0\n", cfg)
        with pytest.raises(ValueError):
            WeightMultiset.parse("1,0,0 y2\n", cfg)


class TestTotalChern:
    def test_trivial_representation(self):
        cfg = Config(3, 2)
        for dim in (1, 4):
            assert total_chern(WeightMultiset(cfg, {(0, 0): dim})) == ExtClass.one(cfg)

    def test_regular_rank_one(self):
        cfg = Config(3, 1)
        t1 = ExtClass.t(cfg, 1)
        # oracle: (1 + t)(1 + 2t) expanded directly
        expected = (ExtClass.one(cfg) + t1) * (ExtClass.one(cfg) + 2 * t1)
        assert total_chern(regular_representation(cfg)) == expected
        assert expected == ExtClass.one(cfg) + (t1 * t1).scale(-1)

    def test_single_weight(self):
        cfg = Config(3, 2)
        rho = WeightMultiset(cfg, {(1, 0): 1})
        assert total_chern(rho) == ExtClass.one(cfg) + ExtClass.t(cfg, 1)

    def test_whitney_sum(self, rng):
        for cfg in (Config(3, 2), Config(5, 2)):
            for _ in range(5):
                a = random_multiset(rng, cfg)
                b = random_multiset(rng, cfg)
                a_plus_b = WeightMultiset(cfg, a.items() + b.items())
                assert total_chern(a_plus_b) == total_chern(a) * total_chern(b)

    def test_multiset_semantics_ignore_listing_order(self, rng):
        cfg = Config(3, 2)
        pairs = [((1, 0), 2), ((2, 1), 1), ((0, 1), 3)]
        rho1 = WeightMultiset(cfg, pairs)
        rho2 = WeightMultiset(cfg, list(reversed(pairs)))
        assert rho1.weights == rho2.weights
        assert total_chern(rho1) == total_chern(rho2)

    def test_top_degree(self, rng):
        for cfg in (Config(3, 2), Config(3, 3)):
            for _ in range(5):
                rho = random_multiset(rng, cfg)
                nonzero_dim = sum(m for v, m in rho.items() if any(v))
                c = total_chern(rho)
                assert c.degree() == 2 * nonzero_dim

    def test_equivariance(self, rng):
        for cfg in (Config(3, 2), Config(5, 2)):
            for _ in range(5):
                rho = random_multiset(rng, cfg)
                g = random_subst(rng, cfg)
                assert total_chern(act(g, rho)) == substitute_linear(g, total_chern(rho))


# a*reg is drawn only where the sequential oracle stays cheap; at (5,3) and
# (7,3) c(reg)^a is checked against the Dickson sum below.  a = p, and
# extra multiplicities up to p + 1, take poly_pow to exponents p and past
SPLIT_CASES = [
    (p, n, a)
    for p in (3, 5, 7)
    for n in (1, 2, 3)
    for a in (0, 1, 2, p)
    if a == 0 or (a < p and p**n < 125) or p**n <= 27
]


@st.composite
def split_multisets(draw, cfg, a):
    """a*reg, perhaps missing one nonzero weight, plus random extras."""
    p, n = cfg.p, cfg.n
    nonzero = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    weights = dict.fromkeys(nonzero, a) if a else {}
    if a and draw(st.booleans()):
        del weights[draw(st.sampled_from(nonzero))]
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    for v, m in draw(st.lists(st.tuples(vector, st.integers(1, p + 1)), max_size=5)):
        weights[v] = weights.get(v, 0) + m
    zero = draw(st.integers(0, 2))
    if zero:
        weights[(0,) * n] = zero
    return WeightMultiset(cfg, weights)


class TestTreeRoute:
    @pytest.mark.parametrize("p,n,a", SPLIT_CASES)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_the_sequential_product(self, p, n, a, data):
        rho = data.draw(split_multisets(Config(p, n), a))
        assert total_chern(rho) == total_chern_sequential(rho)

    @pytest.mark.parametrize("p,n,a", [(5, 3, 2), (7, 3, 2)])
    def test_power_of_regular_times_extras_matches_the_dickson_sum(self, rng, p, n, a):
        cfg = Config(p, n)
        ds = dickson_classes(cfg)
        creg = ExtClass.one(cfg)
        for idx, ci in enumerate(ds.c):
            creg = creg + ci.scale((-1) ** (idx + 1))
        extras = random_multiset(rng, cfg, max_weights=3, max_mult=2)
        rho = regular_plus(cfg, a, extras.items())
        assert total_chern(rho) == creg**a * total_chern_sequential(extras)

    def test_few_weights_never_enumerate_the_group(self, monkeypatch):
        # 97^4 = 88,529,281 vectors; three weights must not reach c(reg)
        def unreachable(cfg):
            raise AssertionError("total_chern enumerated V_n")

        monkeypatch.setattr(chern, "regular_representation", unreachable)
        monkeypatch.setattr(chern, "_regular_chern_poly", unreachable)
        cfg = Config(97, 4)
        rho = WeightMultiset(cfg, {(1, 2, 3, 4): 1, (5, 0, 0, 1): 2, (0, 0, 0, 96): 1})
        assert total_chern(rho) == total_chern_sequential(rho)


def without(rho, weight):
    """rho with one copy of weight taken out."""
    weights = dict(rho.weights)
    weights[weight] -= 1
    return WeightMultiset(rho.cfg, {v: m for v, m in weights.items() if m})


def priced_terms(rho):
    """The terms total_chern prices before any product: its rest's factors."""
    return chern._rest_terms(rho.cfg, chern._regular_part(rho)[1])


# each exits 0 from the CLI; the a >= 1 ones hold their products under
# backend.PRODUCT_LIMIT (test_cli.py runs the (3,4) ones and 2*reg minus a
# weight at (5,3), whose c(reg) times 123 linear factors is c(reg)^2 / (1 + v)
# with 418,737 terms, dense to C(250, 3) = 2,573,000)
ADMITTED = {
    "3reg-at-3-4": lambda: regular_plus(Config(3, 4), 3),
    "2reg-at-3-4": lambda: regular_plus(Config(3, 4), 2),
    "reg-plus-t1-x80-at-3-4": lambda: regular_plus(Config(3, 4), 1, [((1, 0, 0, 0), 80)]),
    "reg-minus-one-at-5-3": lambda: without(regular_plus(Config(5, 3), 1), (1, 2, 3)),
    "2reg-at-5-3": lambda: regular_plus(Config(5, 3), 2),
    "2reg-minus-one-at-5-3": lambda: without(regular_plus(Config(5, 3), 2), (1, 2, 3)),
    "6reg-at-7-3": lambda: regular_plus(Config(7, 3), 6),
    "x2186-at-3-2": lambda: WeightMultiset(Config(3, 2), {(1, 1): 2186}),
}

# (1 + t1 + t2)^6560 has 6^8 terms (6560 = 22222222 in base 3); 2*reg minus
# one weight at (3,4) is c(reg) times 79 linear factors, dense to degree 79
REFUSED = {
    "x6560-at-3-2": (
        lambda: WeightMultiset(Config(3, 2), {(1, 1): 6560}),
        "a Chern class product of up to 1679616 terms",
    ),
    "2reg-minus-one-at-3-4": (
        lambda: without(regular_plus(Config(3, 4), 2), (1, 2, 0, 1)),
        "a Chern class product of up to 1837620 terms",
    ),
}


class TestGuard:
    @pytest.mark.parametrize("name", REFUSED)
    def test_refused_before_any_product(self, monkeypatch, name):
        def unreachable(*args):
            raise AssertionError("the guard let a product start")

        monkeypatch.setattr(backend, "poly_mul", unreachable)
        monkeypatch.setattr(chern, "poly_mul", unreachable)
        build, message = REFUSED[name]
        rho = build()
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=message):
            total_chern(rho)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("name", ADMITTED)
    def test_admits_what_runs_today(self, name):
        assert priced_terms(ADMITTED[name]()) * chern.CHERN_TERM_BYTES <= DESK_SCALE_BYTES

    @pytest.mark.parametrize("p,n,a", SPLIT_CASES)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_prices_bound_the_factors(self, p, n, a, data):
        cfg = Config(p, n)
        a, rest = chern._regular_part(data.draw(split_multisets(cfg, a)))
        rest_class = total_chern(WeightMultiset(cfg, rest)) if rest else ExtClass.one(cfg)
        assert sum(map(len, rest_class.parts.values())) <= chern._rest_terms(cfg, rest)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2)])
    def test_a_single_weight_is_priced_exactly(self, p, n):
        # (1 + v)^m has prod_k C(m_k + s, s) terms over the base-p digits of m
        rng = random.Random(f"single:{p}:{n}")
        for _ in range(10):
            v = tuple(rng.randrange(p) for _ in range(n - 1)) + (1,)
            m = rng.randrange(1, p**3)
            rest = {v: m}
            terms = len(total_chern(WeightMultiset(Config(p, n), rest)).parts[0])
            assert terms == chern._rest_terms(Config(p, n), rest)

    def test_regular_powers_stop_at_the_product_limit(self, monkeypatch):
        # c(reg)^2 at (3,3) accumulates 935 monomials before reduction mod
        # 3 (291 remain); the limit refuses it on the way and admits it with room
        rho = regular_plus(Config(3, 3), 2)
        monkeypatch.setattr(backend, "PRODUCT_LIMIT", 900)
        with pytest.raises(ResourceGuardError, match="could pass its bound of 900 "):
            total_chern(rho)
        monkeypatch.setattr(backend, "PRODUCT_LIMIT", 2_000)
        assert total_chern(rho) == total_chern(regular_plus(Config(3, 3), 1)) ** 2

    def test_the_result_is_priced_from_its_length(self, monkeypatch):
        rho = regular_plus(Config(3, 2), 1, [((1, 0), 4)])
        terms = len(total_chern(rho).parts[0])
        monkeypatch.setattr(chern, "CHERN_TERM_BYTES", DESK_SCALE_BYTES // terms + 1)
        with pytest.raises(ResourceGuardError, match=f"a Chern class of {terms} terms"):
            total_chern(rho)


class TestRegularRepresentation:
    def test_contains_every_weight_once(self):
        cfg = Config(3, 2)
        reg = regular_representation(cfg)
        assert reg.dimension == 9
        assert all(m == 1 for _, m in reg.items())
        assert len(reg.weights) == 9

    # the coset tree's c(reg) against the Dickson classes, which come from
    # the recursion for f_n: two independent routes, up to 124 weights at (5,3)
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3), (5, 3)])
    def test_alternating_dickson_sum(self, p, n):
        cfg = Config(p, n)
        ds = dickson_classes(cfg)
        expected = ExtClass.one(cfg)
        for idx, ci in enumerate(ds.c):
            expected = expected + ci.scale((-1) ** (idx + 1))
        assert total_chern(regular_representation(cfg)) == expected

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            regular_representation(Config(5, 4))


class TestDivisibilityProfile:
    def test_rank_one_regular(self):
        cfg = Config(3, 1)
        profile = divisibility_profile(total_chern(regular_representation(cfg)))
        assert profile == {(1,): 1, (2,): 1}

    def test_cube_of_regular_is_constant_three(self):
        cfg = Config(3, 2)
        profile = divisibility_profile(total_chern(regular_representation(cfg)) ** 3)
        assert set(profile.values()) == {3}
        assert len(profile) == 8

    def test_square_of_one_factor(self):
        cfg = Config(3, 2)
        x = (ExtClass.one(cfg) + ExtClass.t(cfg, 1)) ** 2
        profile = divisibility_profile(x)
        assert profile[(1, 0)] == 2
        assert all(mu == 0 for v, mu in profile.items() if v != (1, 0))

    def test_profile_recovers_multiplicities(self, rng):
        for cfg in (Config(3, 2), Config(5, 2), Config(3, 3)):
            for _ in range(5):
                rho = random_multiset(rng, cfg)
                profile = divisibility_profile(total_chern(rho))
                for v, mu in profile.items():
                    assert mu == rho.weights.get(v, 0)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (3, 3)])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_substitution_per_line_matches_one_per_vector(self, p, n, data):
        a = data.draw(st.integers(0, 1))
        x = total_chern(data.draw(split_multisets(Config(p, n), a)))
        want = divisibility_profile_per_vector(x)
        assert list(divisibility_profile(x).items()) == list(want.items())

    def test_resource_guard(self, monkeypatch):
        # the profile visits all p^n vectors: 97^4 must be refused at once
        def unreachable(*args):
            raise AssertionError("the guard let the profile start")

        monkeypatch.setattr(chern, "_coordinate_change", unreachable)
        cfg = Config(97, 4)
        x = total_chern(WeightMultiset(cfg, {(1, 2, 3, 4): 1, (0, 0, 0, 96): 1}))
        with pytest.raises(ResourceGuardError):
            divisibility_profile(x)

    def test_requires_constant_term_one(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            divisibility_profile(ExtClass.t(cfg, 1))
        with pytest.raises(ValueError):
            divisibility_profile(ExtClass.dt(cfg, 1) + 1)

    def test_independent_of_the_basis_extension(self, rng):
        cfg = Config(3, 3)
        rho = random_multiset(rng, cfg)
        x = total_chern(rho)
        for v in [(1, 0, 0), (1, 2, 0), (0, 2, 1)]:
            g1 = _coordinate_change(cfg, v)
            # a second extension: post-compose with a change fixing t_1
            fix = LinearSubst(cfg, [[1, 0, 0], [0, 1, 1], [0, 2, 1]])
            g2 = compose(fix, g1)
            assert substitute_linear(g2, linear_form(cfg, v)) == ExtClass.t(cfg, 1)
            moved1 = substitute_linear(g1, x)
            moved2 = substitute_linear(g2, x)
            mu1 = _count_divisions(moved1)
            mu2 = _count_divisions(moved2)
            assert mu1 == mu2 == divisibility_profile(x)[v]


def _count_divisions(moved):
    layers = strip_first_var(moved.parts.get(0, {}))
    p = moved.cfg.p
    mu = 0
    while layers:
        quotient, remainder = divide_once(layers, p)
        if remainder:
            break
        mu += 1
        layers = quotient
    return mu


class TestPowerOfRegular:
    def test_powers_are_recognized(self):
        cfg = Config(3, 2)
        creg = total_chern(regular_representation(cfg))
        assert power_of_regular(creg**2) == 2
        assert power_of_regular(creg) == 1
        assert power_of_regular(ExtClass.one(cfg)) == 0

    def test_single_factor_is_not_a_power(self):
        cfg = Config(3, 1)
        assert power_of_regular(ExtClass.one(cfg) + ExtClass.t(cfg, 1)) is None

    def test_degree_multiple_but_wrong_class(self):
        cfg = Config(3, 1)
        t1 = ExtClass.t(cfg, 1)
        x = (ExtClass.one(cfg) + t1) ** 4  # degree matches creg^2
        assert power_of_regular(x) is None


class TestTransitiveInvariantMultisets:
    def test_sl_invariant_multisets_are_powers_of_regular(self, rng):
        # for n >= 2 the nonzero weights form one orbit, so an invariant
        # multiset is a*reg + b*trivial and its Chern class is c(reg)^a
        for cfg in (Config(3, 2), Config(5, 2)):
            sl = group_generators(cfg, "SL")
            for a in (0, 1, 2, 3):
                b = rng.randint(0, 2)
                rho = regular_plus(cfg, a, [(cfg.zero_mono, b + 1)])
                for g in sl.generators:
                    assert act(g, rho).weights == rho.weights
                c = total_chern(rho)
                assert is_invariant(c, sl)
                profile = divisibility_profile(c)
                assert set(profile.values()) == {a}
                assert power_of_regular(c) == a


class TestImageGenerator:
    def test_rank_two_case(self):
        cfg = Config(3, 2)
        x = image_generator(cfg)
        assert x == moore_class(cfg)
        assert x.degree() == 2 * cfg.p + 2

    @pytest.mark.parametrize("p,degree", [(3, 26), (5, 62)])
    def test_rank_three_case(self, p, degree):
        cfg = Config(p, 3)
        x = image_generator(cfg)
        assert x == moore_class(cfg)
        assert x.degree() == degree
        assert x.is_polynomial()

    def test_wrong_rank_rejected(self):
        # the case is the rank's: only n = 2 and n = 3 have one
        assert {n: name for n, (name, _) in chern.CASES.items()} == {2: "pu", 3: "rank3"}
        for n in (1, 4):
            with pytest.raises(ValueError, match=r"^theorem-main needs n = 2 or n = 3$"):
                image_generator(Config(3, n))


class TestObstructionTable:
    def test_rank_two_pattern(self):
        cfg = Config(3, 2)
        table = obstruction_table(cfg, 4)
        assert table == [(1, False), (2, True), (3, False), (4, True)]

    def test_membership_at_the_first_invariant_power(self):
        cfg = Config(5, 3)
        table = obstruction_table(cfg, 4)
        assert [in_d for _, in_d in table] == [False, False, False, True]
        e = image_generator(cfg)
        assert membership_dickson(e**4, "D") == {(0, 0, 1): 1}

    def test_seven_two_pattern(self):
        cfg = Config(7, 2)
        table = obstruction_table(cfg, 6)
        assert [in_d for _, in_d in table] == [False] * 5 + [True]

    def test_guards(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            obstruction_table(cfg, 0)
        with pytest.raises(ResourceGuardError):
            obstruction_table(cfg, 10_000)
        # a rank with no case is refused before a_max is priced
        for a_max in (0, 10**9):
            with pytest.raises(ValueError, match=r"^theorem-main needs n = 2 or n = 3$"):
                obstruction_table(Config(97, 4), a_max)

    def test_work_bound(self, monkeypatch):
        # a_max * p^n at the bound starts the table; one more is refused
        cfg = Config(5, 2)
        assert 800 * 25 == chern.TABLE_WORK_BOUND

        def started(cfg):
            raise LookupError("table started")

        monkeypatch.setattr(chern, "image_generator", started)
        with pytest.raises(LookupError, match="table started"):
            obstruction_table(cfg, 800)
        with pytest.raises(ResourceGuardError, match=r"^a_max = 801 at p\^n = 25 exceeds"):
            obstruction_table(cfg, 801)
