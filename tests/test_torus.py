import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnorq import (
    ConsistencyError,
    chern_series,
    e8_adjoint_check,
    restrict_to_circle,
    torus,
)
from milnorq.torus import e8_roots

E1 = (1, 0, 0, 0, 0, 0, 0, 0)


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def roots():
    d8, spin = e8_roots()
    return d8 + spin


def times(a, b, trunc):
    """The product of two coefficient lists, up to u^trunc."""
    return [sum(a[k] * b[d - k] for k in range(d + 1)) for d in range(trunc + 1)]


class TestE8Roots:
    def test_240_distinct_roots_of_norm_8(self):
        all_roots = roots()
        assert len(all_roots) == len(set(all_roots)) == 240
        # doubled coordinates scale the norm^2 of 2 by 4
        assert {dot(r, r) for r in all_roots} == {8}

    def test_closed_under_every_reflection(self):
        # s_a(x) = x - 2<a, x>/<a, a> a = x - <a, x>/4 a, since <a, a> = 8
        all_roots = set(roots())
        for a in all_roots:
            for x in all_roots:
                assert dot(a, x) % 4 == 0
                k = dot(a, x) // 4
                assert tuple(xi - k * ai for xi, ai in zip(x, a)) in all_roots

    @given(
        st.lists(st.integers(-50, 50), min_size=8, max_size=8),
        st.lists(st.integers(-50, 50), min_size=8, max_size=8),
    )
    def test_killing_form(self, x, y):
        # sum_a <a, x><a, y> = 2h^v (x, y) with h^v = 30, times 4 for the
        # doubled roots
        assert sum(dot(a, x) * dot(a, y) for a in roots()) == 240 * dot(x, y)


class TestElementarySymmetric:
    def test_restriction_of_the_rank_eight_character(self):
        # e_2 of the eight z_i^2 + z_i^(-2), as exponent vectors: the D8 part
        items = [[tuple(s * (k == i) for k in range(8)) for s in (2, -2)] for i in range(8)]
        e2 = Counter(
            tuple(a + b for a, b in zip(u, v))
            for x, y in itertools.combinations(items, 2)
            for u in x
            for v in y
        )
        d8, _ = e8_roots()
        assert sum(e2.values()) == 112
        assert e2 == Counter(d8)
        assert restrict_to_circle(d8, E1) == {0: 84, 2: 14, -2: 14}


class TestSpinPlus:
    def test_rank_eight_dimension(self):
        _, spin = e8_roots()
        assert len(spin) == len(set(spin)) == 128
        assert all(math.prod(s) == 1 for s in spin)

    def test_restriction(self):
        _, spin = e8_roots()
        assert restrict_to_circle(spin, E1) == {1: 64, -1: 64}

    def test_fixed_by_double_sign_flips(self):
        _, spin = e8_roots()
        for i, j in itertools.combinations(range(8), 2):
            flipped = {
                tuple(-e if k in (i, j) else e for k, e in enumerate(s)) for s in spin
            }
            assert flipped == set(spin)


class TestRestrict:
    def test_rank_one_unchanged(self):
        assert restrict_to_circle([(3,), (-1,), (3,)], (1,)) == {3: 2, -1: 1}

    def test_bad_coordinate(self):
        with pytest.raises(ValueError):
            restrict_to_circle([(0, 0)], (1,))
        with pytest.raises(ValueError):
            restrict_to_circle([(1,)], (1, 0))


class TestIntSeries:
    def test_truncated_product(self):
        assert chern_series({1: 2}, 3) == [1, 2, 1, 0]
        assert chern_series({1: 3}, 3) == [1, 3, 3, 1]
        assert chern_series({1: 3}, 2) == [1, 3, 3]

    def test_exact_big_integers(self):
        assert chern_series({1: 64}, 40)[32] == math.comb(64, 32)


class TestChernSeries:
    def test_single_weight(self):
        assert chern_series({1: 1}, 3) == [1, 1, 0, 0]

    def test_headline_weights(self):
        series = chern_series({0: 84, 2: 14, -2: 14, 1: 64, -1: 64}, 4)
        assert series == [1, 0, -120, 0, 7056]
        # independent check of the u^4 coefficient from the factored form
        c4 = math.comb(14, 2) * 16 + 14 * 4 * 64 + math.comb(64, 2)
        assert series[4] == c4

    def test_symmetric_characters_have_even_series(self):
        series = chern_series({2: 3, -2: 3, 1: 5, -1: 5}, 9)
        assert all(c == 0 for c in series[1::2])

    def test_whitney(self):
        a = {1: 2, -2: 1}
        b = {3: 1, 0: 4}
        both = chern_series({**a, **b}, 6)
        assert both == times(chern_series(a, 6), chern_series(b, 6), 6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            chern_series({1: 1}, 1)
        for mult in (-1, 2.0, "2", None):
            with pytest.raises(ValueError):
                chern_series({1: mult}, 4)


class TestAdjointReport:
    def test_p3(self):
        report = e8_adjoint_check(3)
        assert report == {
            "p": 3,
            "c2": -120,
            "valuation": 1,
            "gamma_mod_p": 2,
            "series": [1, 0, -120, 0, 7056],
            "lambda2_dim": 112,
            "spin_dim": 128,
            "gamma": -40,
        }

    def test_p5(self):
        report = e8_adjoint_check(5)
        assert report["c2"] == -120
        assert report["valuation"] == 1
        assert report["gamma"] == -24
        assert report["gamma_mod_p"] == 1

    def test_longer_truncation_is_exact(self):
        series = chern_series(restrict_to_circle(roots(), E1), 20)
        assert series[:5] == e8_adjoint_check(3)["series"] == [1, 0, -120, 0, 7056]
        assert len(series) == 21
        # odd coefficients vanish by the z -> 1/z symmetry
        assert all(c == 0 for c in series[1::2])

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            e8_adjoint_check(7)

    def test_a_wrong_root_list_is_caught(self, monkeypatch):
        d8, spin = e8_roots()
        odd = (-spin[0][0],) + spin[0][1:]  # an odd number of minus signs
        monkeypatch.setattr(torus, "e8_roots", lambda: (d8, (odd,) + spin[1:]))
        with pytest.raises(ConsistencyError, match="restricted half-spin character"):
            e8_adjoint_check(3)
        monkeypatch.setattr(torus, "e8_roots", lambda: (d8[:-1], spin))
        with pytest.raises(ConsistencyError, match="dimension 111 != 112"):
            e8_adjoint_check(3)
