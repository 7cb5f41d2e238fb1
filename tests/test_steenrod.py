import math

import pytest

from milnorq import (
    Config,
    ExtClass,
    apply_word,
    milnor_q,
    parse_op_word,
    reduced_power,
    substitute_linear,
    total_reduced_power,
)
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
        assert milnor_q(0, dt1 * dt2) == t1 * dt2 - t2 * dt1

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
                    assert milnor_q(i, milnor_q(j, x)) == -milnor_q(j, milnor_q(i, x))

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
                    rhs = ExtClass.zero(cfg)
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
                    rhs = reduced_power(s, milnor_q(i, x)) - milnor_q(
                        i, reduced_power(s, x)
                    )
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


class TestTotalPower:
    def test_against_single_powers(self, rng):
        for cfg in CONFIGS:
            for _ in range(5):
                x = random_class(rng, cfg, max_exp=2)
                bound = x.degree() + 4 * (cfg.p - 1)
                entries = total_reduced_power(x, bound)
                for j, entry in enumerate(entries):
                    expected = reduced_power(j, x)
                    expected = sum(
                        (expected.homogeneous_part(d) for d in range(bound + 1)),
                        ExtClass.zero(cfg),
                    )
                    assert entry == expected

    def test_on_a_generator(self):
        cfg = Config(3, 1)
        t1 = ExtClass.t(cfg, 1)
        entries = total_reduced_power(t1, 8)
        assert entries[0] == t1
        assert entries[1] == t1**3
        assert all(not e for e in entries[2:])

    def test_on_the_unit(self):
        cfg = Config(3, 1)
        entries = total_reduced_power(ExtClass.one(cfg), 8)
        assert entries[0] == ExtClass.one(cfg)
        assert len(entries) == 3
        assert all(not e for e in entries[1:])

    def test_degree_bound_honored(self, rng):
        for cfg in CONFIGS:
            x = random_class(rng, cfg, max_exp=2)
            bound = x.degree() + 2 * (cfg.p - 1)
            for entry in total_reduced_power(x, bound):
                assert not entry or entry.degree() <= bound

    def test_bound_below_degree_rejected(self):
        cfg = Config(3, 1)
        with pytest.raises(ValueError):
            total_reduced_power(ExtClass.t(cfg, 1), 1)


class TestWords:
    def test_word_for_the_determinant_class(self):
        cfg = Config(3, 2)
        x = apply_word([("Q", 0), ("Q", 1)], ExtClass.dt_top(cfg))
        t1, t2 = ExtClass.t(cfg, 1), ExtClass.t(cfg, 2)
        assert x == t1**3 * t2 - t1 * t2**3

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
