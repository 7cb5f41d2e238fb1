import math

import pytest

from milnorq import (
    ConsistencyError,
    IntSeries,
    LaurentChar,
    ResourceGuardError,
    chern_series,
    e8_adjoint_check,
    elementary_symmetric_char,
    restrict_to_circle,
    spin_plus_char,
)
from milnorq.torus import SPIN_RANK_BOUND


def doubled_generators(rank):
    return [
        LaurentChar.z(rank, i, 2) + LaurentChar.z(rank, i, -2) for i in range(rank)
    ]


class TestLaurentChar:
    def test_dimension_and_product(self):
        a = LaurentChar.z(2, 0) + LaurentChar.z(2, 0, -1)
        b = LaurentChar.z(2, 1) + LaurentChar.z(2, 1, -1)
        assert a.dimension == b.dimension == 2
        prod = a * b
        assert prod.dimension == 4
        assert prod == LaurentChar(
            2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1}
        )

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            LaurentChar.z(2, 0) * LaurentChar.z(3, 0)
        with pytest.raises(ValueError):
            LaurentChar.z(2, 0) + LaurentChar.z(3, 0)

    def test_multiplicities_positive(self):
        with pytest.raises(ValueError):
            LaurentChar(1, {(0,): 0})


class TestElementarySymmetric:
    def test_degree_two_cross_product(self):
        a = LaurentChar.z(2, 0) + LaurentChar.z(2, 0, -1)
        b = LaurentChar.z(2, 1) + LaurentChar.z(2, 1, -1)
        assert elementary_symmetric_char(2, [a, b]) == a * b

    def test_degree_one_is_the_sum(self):
        items = doubled_generators(3)
        total = items[0] + items[1] + items[2]
        assert elementary_symmetric_char(1, items) == total

    def test_generating_function_oracle(self):
        # prod (1 + item*X) expanded degreewise must reproduce every e_k
        items = doubled_generators(4)
        rank = 4
        coeffs = [LaurentChar.one(rank)]
        for item in items:
            new = []
            for k in range(len(coeffs) + 1):
                parts = []
                if k < len(coeffs):
                    parts.append(coeffs[k])
                if k > 0:
                    parts.append(coeffs[k - 1] * item)
                total = parts[0]
                for extra in parts[1:]:
                    total = total + extra
                new.append(total)
            coeffs = new
        for k in range(5):
            assert elementary_symmetric_char(k, items) == coeffs[k]

    def test_restriction_of_the_rank_eight_character(self):
        lam = elementary_symmetric_char(2, doubled_generators(8))
        assert lam.dimension == 112
        assert restrict_to_circle(lam, 0) == LaurentChar(
            1, {(0,): 84, (2,): 14, (-2,): 14}
        )

    def test_bad_k(self):
        with pytest.raises(ValueError):
            elementary_symmetric_char(3, doubled_generators(2))


class TestSpinPlus:
    def test_rank_two(self):
        assert spin_plus_char(2) == LaurentChar(2, {(1, 1): 1, (-1, -1): 1})

    def test_rank_eight_dimension(self):
        spin = spin_plus_char(8)
        assert spin.dimension == 128
        assert all(m == 1 for _, m in spin.items())

    def test_restriction(self):
        assert restrict_to_circle(spin_plus_char(8), 0) == LaurentChar(
            1, {(1,): 64, (-1,): 64}
        )

    def test_fixed_by_double_sign_flips(self):
        spin = spin_plus_char(6)
        flipped = {}
        for v, m in spin.terms.items():
            w = (-v[0], -v[1]) + v[2:]
            flipped[w] = flipped.get(w, 0) + m
        assert LaurentChar(6, flipped) == spin

    def test_rank_bound(self):
        assert len(spin_plus_char(SPIN_RANK_BOUND).terms) == 2 ** (SPIN_RANK_BOUND - 1)
        with pytest.raises(ResourceGuardError, match="sign-vector expansion is 12$"):
            spin_plus_char(SPIN_RANK_BOUND + 1)


class TestRestrict:
    def test_rank_one_unchanged(self):
        chi = LaurentChar(1, {(3,): 2, (-1,): 1})
        assert restrict_to_circle(chi, 0) == chi

    def test_bad_coordinate(self):
        with pytest.raises(ValueError):
            restrict_to_circle(LaurentChar.one(2), 2)


class TestIntSeries:
    def test_truncated_product(self):
        a = IntSeries([1, 1], 3)
        assert a * a == IntSeries([1, 2, 1, 0], 3)
        assert a**3 == IntSeries([1, 3, 3, 1], 3)

    def test_exact_big_integers(self):
        s = IntSeries([1, 1], 40) ** 64
        assert s.coeffs[32] == math.comb(64, 32)


class TestChernSeries:
    def test_single_weight(self):
        chi = LaurentChar(1, {(1,): 1})
        assert chern_series(chi, 3) == IntSeries([1, 1, 0, 0], 3)

    def test_headline_weights(self):
        chi = LaurentChar(1, {(0,): 84, (2,): 14, (-2,): 14, (1,): 64, (-1,): 64})
        series = chern_series(chi, 4)
        assert series.coeffs == [1, 0, -120, 0, 7056]
        # independent check of the u^4 coefficient from the factored form
        c4 = math.comb(14, 2) * 16 + 14 * 4 * 64 + math.comb(64, 2)
        assert series.coeffs[4] == c4

    def test_symmetric_characters_have_even_series(self):
        chi = LaurentChar(1, {(2,): 3, (-2,): 3, (1,): 5, (-1,): 5})
        series = chern_series(chi, 9)
        assert all(c == 0 for c in series.coeffs[1::2])

    def test_whitney(self):
        a = LaurentChar(1, {(1,): 2, (-2,): 1})
        b = LaurentChar(1, {(3,): 1, (0,): 4})
        assert chern_series(a + b, 6) == chern_series(a, 6) * chern_series(b, 6)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            chern_series(LaurentChar.one(2), 4)
        with pytest.raises(ValueError):
            chern_series(LaurentChar.one(1), 1)


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
        report = e8_adjoint_check(3, trunc=20)
        assert report["series"][:5] == [1, 0, -120, 0, 7056]
        assert len(report["series"]) == 21
        # odd coefficients vanish by the z -> 1/z symmetry
        assert all(c == 0 for c in report["series"][1::2])

    def test_rejected_inputs(self):
        with pytest.raises(ValueError):
            e8_adjoint_check(7)
        with pytest.raises(ValueError):
            e8_adjoint_check(3, trunc=3)
