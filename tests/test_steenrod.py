import itertools
import math
import random
import time

import pytest

from milnorq import (
    Config,
    ExtClass,
    apply_word,
    milnor_q,
    parse_op_word,
    reduced_power,
    ResourceGuardError,
    substitute_linear,
)
from milnorq import steenrod
from milnorq.backend import binomial, binomials, power_terms
from milnorq.errors import DESK_SCALE_BYTES
from milnorq.invariants import moore_class
from conftest import CONFIGS, random_class, random_homogeneous, random_subst


def render_op_word(word):
    """The text parse_op_word reads back: "Q0,P2" for [("Q", 0), ("P", 2)]."""
    return ",".join(f"{kind}{idx}" for kind, idx in word)


class TestGeneratorRules:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_q_on_exterior_generator(self, p):
        cfg = Config(p, 2)
        for i in (0, 1, 2):
            assert milnor_q(i, ExtClass.dt(cfg, 1)) == ExtClass.t(cfg, 1) ** (p**i)

    def test_q_kills_polynomial_generators(self):
        cfg = Config(3, 2)
        assert not milnor_q(0, ExtClass.t(cfg, 1))
        assert not milnor_q(2, ExtClass.t(cfg, 1) ** 4)

    def test_q_on_a_two_fold_exterior_product(self):
        cfg = Config(3, 2)
        t1, t2 = ExtClass.t(cfg, 1), ExtClass.t(cfg, 2)
        dt1, dt2 = ExtClass.dt(cfg, 1), ExtClass.dt(cfg, 2)
        assert milnor_q(0, dt1 * dt2) == t1 * dt2 + (t2 * dt1).scale(-1)

    @pytest.mark.parametrize("p", [3, 5])
    def test_power_on_polynomial_generator(self, p):
        cfg = Config(p, 1)
        t1 = ExtClass.t(cfg, 1)
        assert reduced_power(0, t1) == t1
        assert reduced_power(1, t1) == t1**p
        assert not reduced_power(2, t1)

    def test_power_kills_exterior_generators(self):
        cfg = Config(3, 2)
        for j in (1, 2, 3):
            assert not reduced_power(j, ExtClass.dt(cfg, 1))

    def test_power_on_a_square(self):
        cfg = Config(3, 1)
        t1 = ExtClass.t(cfg, 1)
        assert reduced_power(1, t1 * t1) == 2 * t1 ** (3 + 1)

    def test_binomial_rule(self):
        for p in (3, 5):
            cfg = Config(p, 1)
            t1 = ExtClass.t(cfg, 1)
            for m in range(1, 13):
                for i in range(0, m + 1):
                    expected = (math.comb(m, i) % p) * t1 ** (m + i * (p - 1))
                    assert reduced_power(i, t1**m) == expected

    def test_negative_index_rejected(self):
        cfg = Config(3, 1)
        with pytest.raises(ValueError):
            milnor_q(-1, ExtClass.one(cfg))
        with pytest.raises(ValueError):
            reduced_power(-1, ExtClass.one(cfg))

    def test_large_index_exponents_stay_exact(self):
        # exponents far beyond 16 bits stay exact
        cfg = Config(3, 1)
        x = milnor_q(12, ExtClass.dt(cfg, 1))
        assert x == ExtClass(cfg, {0: {(3**12,): 1}})
        assert x * x == ExtClass(cfg, {0: {(2 * 3**12,): 1}})


class TestOperationLaws:
    def test_q_squares_to_zero(self, rng):
        for cfg in CONFIGS:
            for _ in range(6):
                x = random_class(rng, cfg)
                for i in (0, 1, 2):
                    assert not milnor_q(i, milnor_q(i, x))

    def test_q_anticommutation(self, rng):
        for cfg in CONFIGS:
            for _ in range(6):
                x = random_class(rng, cfg)
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    assert milnor_q(i, milnor_q(j, x)) == milnor_q(j, milnor_q(i, x)).scale(-1)

    def test_derivation_law(self, rng):
        for cfg in CONFIGS:
            for _ in range(6):
                x = random_homogeneous(rng, cfg)
                y = random_class(rng, cfg)
                for i in (0, 1):
                    lhs = milnor_q(i, x * y)
                    rhs = milnor_q(i, x) * y + x.scale((-1) ** x.degree()) * milnor_q(i, y)
                    assert lhs == rhs

    def test_cartan_law(self, rng):
        for cfg in CONFIGS:
            for _ in range(4):
                x = random_class(rng, cfg)
                y = random_class(rng, cfg)
                for j in range(5):
                    rhs = ExtClass(cfg)
                    for i in range(j + 1):
                        rhs = rhs + reduced_power(i, x) * reduced_power(j - i, y)
                    assert reduced_power(j, x * y) == rhs

    def test_unstable_axioms(self, rng):
        for cfg in CONFIGS:
            for _ in range(6):
                x = random_homogeneous(rng, cfg)
                d = x.degree()
                assert not reduced_power(d // 2 + 1, x)
                if d % 2 == 0:
                    y = random_homogeneous(rng, cfg, degree=d, allow_dt=False)
                    assert reduced_power(d // 2, y) == y**cfg.p

    def test_naturality(self, rng):
        for cfg in CONFIGS:
            for _ in range(4):
                x = random_class(rng, cfg)
                g = random_subst(rng, cfg)
                for i in (0, 1):
                    assert substitute_linear(g, milnor_q(i, x)) == milnor_q(
                        i, substitute_linear(g, x)
                    )
                for j in (1, 2):
                    assert substitute_linear(g, reduced_power(j, x)) == reduced_power(
                        j, substitute_linear(g, x)
                    )

    def test_milnor_relation(self, rng):
        # Q_{i+1} = P^{p^i} Q_i - Q_i P^{p^i}, checked as a cross-law only
        for cfg in CONFIGS:
            p = cfg.p
            for _ in range(3):
                x = random_class(rng, cfg, max_exp=2)
                for i in (0, 1):
                    s = p**i
                    lhs = milnor_q(i + 1, x)
                    rhs = reduced_power(s, milnor_q(i, x)) + milnor_q(
                        i, reduced_power(s, x)
                    ).scale(-1)
                    assert lhs == rhs

    def test_degree_shifts(self, rng):
        for cfg in CONFIGS:
            x = random_homogeneous(rng, cfg)
            d = x.degree()
            for i in (0, 1):
                y = milnor_q(i, x)
                if y:
                    assert y.degree() == d + 2 * cfg.p**i - 1
            for j in (1, 2):
                y = reduced_power(j, x)
                if y:
                    assert y.degree() == d + 2 * j * (cfg.p - 1)


def power_price(j, mono, p):
    """The entries reduced_power prices for P^j on one monomial: the splits
    of j over every exponent but the one with the most nonzero binomials
    (the last on a tie), which takes any remainder."""
    w = max(range(len(mono)), key=lambda k: (power_terms(mono[k], 1, p), k))
    free = p ** j.bit_length() - 1
    return steenrod._split_count(mono[:w] + mono[w + 1:] + (free,), j, p)


class TestPowerGuard:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_split_count_matches_the_enumeration(self, p):
        rng = random.Random(f"splits:{p}")
        for _ in range(300):
            bounds = [rng.randrange(3 * p * p) for _ in range(rng.randint(0, 4))]
            j = rng.randrange(4 * p * p)
            rows = [[i for i, _ in binomials(b, j, p)] for b in bounds]
            want = sum(1 for split in itertools.product(*rows) if sum(split) == j)
            assert steenrod._split_count(bounds, j, p) == want, (bounds, j)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 4), (5, 3), (7, 2)])
    def test_price_bounds_the_output(self, p, n):
        rng = random.Random(f"power-price:{p}:{n}")
        for _ in range(40):
            mono = tuple(rng.randrange(p**3) for _ in range(n))
            j = rng.randrange(2 * p * p)
            assert len(steenrod._term_totals(mono, j, p)) <= power_price(j, mono, p)

    def test_refused_before_any_split_is_built(self, monkeypatch):
        # every exponent is 22222222 in base 3, so the first three parts
        # split each j0 <= 300 freely: C(303, 3) = 4,590,551 partial terms
        def unreachable(*args):
            raise AssertionError("the guard let a power start")

        monkeypatch.setattr(steenrod, "_term_totals", unreachable)
        x = ExtClass(Config(3, 4), {0: {(6560,) * 4: 1}})
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="P\\^300 builds up to 4590551 partial terms"):
            reduced_power(300, x)
        assert time.perf_counter() - start < 1

    def test_admits_what_runs_today(self):
        # P^100 on the same monomial exits 0 from the CLI in about 2 s
        entries = power_price(100, (6560,) * 4, 3)
        assert entries == math.comb(103, 3)
        assert entries * steenrod.POWER_ENTRY_BYTES <= DESK_SCALE_BYTES

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_last_exponent_is_read_by_lucas(self, n):
        # 3^40 - 1 has forty digits 2 in base 3, so its Lucas row up to
        # 10^12 holds every i <= 10^12; only C(a, 10^12) is read
        a, j = 3**40 - 1, 10**12
        x = ExtClass(Config(3, n), {0: {(0,) * (n - 1) + (a,): 1}})
        start = time.perf_counter()
        y = reduced_power(j, x)
        assert time.perf_counter() - start < 1
        assert y == ExtClass(Config(3, n), {0: {(0,) * (n - 1) + (12157667459056928800,): 1}})

    @pytest.mark.parametrize("wide", [1, 2, 4])
    @pytest.mark.parametrize("small", [False, True], ids=["alone", "with-a-small-factor"])
    def test_the_widest_exponent_is_read_by_lucas(self, wide, small):
        # t_wide^(3^40 - 1) at n = 4, alone or times t2 (t3 when wide is 2):
        # the wide exponent has the one long Lucas row and is read by
        # binomial, so P^(10^12) splits j only over the others, 0s and a 1
        cfg, a, j = Config(3, 4), 3**40 - 1, 10**12
        other = 3 if wide == 2 else 2

        def mono(wide_exp, other_exp):
            m = [0] * 4
            m[wide - 1], m[other - 1] = wide_exp, other_exp
            return tuple(m)

        if small:
            x, want = {mono(a, 1): 1}, {mono(a + 2 * j, 1): 1, mono(a + 2 * j - 2, 3): 2}
        else:
            x, want = {mono(a, 0): 1}, {mono(a + 2 * j, 0): 1}
        start = time.perf_counter()
        y = reduced_power(j, ExtClass(cfg, {0: x}))
        assert time.perf_counter() - start < 1
        assert y == ExtClass(cfg, {0: want})

    def test_binomial_matches_the_lucas_row(self):
        rng = random.Random("binomial")
        for _ in range(500):
            p = rng.choice([3, 5, 7, 97])
            a, kmax = rng.randrange(4 * p**3), rng.randrange(200)
            row = dict(binomials(a, kmax, p))
            for k in range(kmax + 1):
                assert binomial(a, k, p) == row.get(k, 0), (a, k, p)


class TestQGuard:
    @pytest.mark.parametrize("p, top", [(3, 9012), (5, 6151), (97, 2164)])
    def test_p_to_the_i_has_at_most_4300_digits(self, p, top):
        cfg = Config(p, 1)
        x = milnor_q(top, ExtClass.dt(cfg, 1))
        (mono,) = x.parts[0]
        assert len(str(mono[0])) == 4300
        for i in (top + 1, 10**8, 10**12):
            start = time.perf_counter()
            with pytest.raises(ResourceGuardError, match=f"Q_{i}: p\\^i has over 4300"):
                milnor_q(i, ExtClass.dt(cfg, 1))
            assert time.perf_counter() - start < 1


class TestWords:
    def test_word_for_the_determinant_class(self):
        cfg = Config(3, 2)
        x = apply_word([("Q", 0), ("Q", 1)], ExtClass.dt_top(cfg))
        t1, t2 = ExtClass.t(cfg, 1), ExtClass.t(cfg, 2)
        assert x == t1**3 * t2 + (t1 * t2**3).scale(-1)

    def test_empty_word_is_identity(self, rng):
        for cfg in CONFIGS:
            x = random_class(rng, cfg)
            assert apply_word([], x) == x

    @pytest.mark.parametrize("p", [3, 5])
    def test_full_word_matches_moore_determinant(self, p):
        cfg = Config(p, 3)
        word = [("Q", 0), ("Q", 1), ("Q", 2)]
        assert apply_word(word, ExtClass.dt_top(cfg)) == moore_class(cfg)

    def test_parse_and_render(self):
        assert parse_op_word("Q0,Q1,P2") == [("Q", 0), ("Q", 1), ("P", 2)]
        assert parse_op_word(" q0 , p12 ") == [("Q", 0), ("P", 12)]
        assert render_op_word([("Q", 0), ("P", 2)]) == "Q0,P2"
        word = [("P", 12), ("Q", 3), ("Q", 0)]
        assert parse_op_word(render_op_word(word)) == word
        for bad in ("", "Q", "R1", "Q-1", "Q0,,Q1"):
            with pytest.raises(ValueError):
                parse_op_word(bad)

    def test_word_order_is_right_to_left(self):
        cfg = Config(3, 2)
        dt1 = ExtClass.dt(cfg, 1)
        # [P1, Q0] means: first Q0 (dt1 -> t1), then P1 (t1 -> t1^3)
        assert apply_word([("P", 1), ("Q", 0)], dt1) == ExtClass.t(cfg, 1) ** 3
        assert not apply_word([("Q", 0), ("P", 1)], dt1)
