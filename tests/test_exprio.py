import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnorq import (
    Config,
    ExtClass,
    ParseError,
    apply_word,
    class_to_json,
    milnor_q,
    parse_class,
    render_class,
)
from conftest import CONFIGS, random_class
from test_algebra import PROPERTY, classes, configs


class TestParse:
    def test_determinant_class_round(self):
        cfg = Config(3, 2)
        parsed = parse_class("t1^3*t2 - t1*t2^3", cfg)
        assert parsed == apply_word([("Q", 0), ("Q", 1)], ExtClass.dt_top(cfg))

    def test_exterior_product(self):
        cfg = Config(3, 2)
        assert parse_class("dt1*dt2", cfg) == ExtClass.dt_top(cfg)

    def test_out_of_order_exterior_factors_pick_up_the_sign(self):
        cfg = Config(3, 3)
        assert parse_class("dt2*dt1", cfg) == parse_class("dt1*dt2", cfg).scale(-1)
        assert parse_class("dt3*dt1*dt2", cfg) == parse_class("dt1*dt2*dt3", cfg)

    def test_every_order_of_four_dts_matches_the_product(self):
        cfg = Config(3, 4)
        for order in itertools.permutations(range(1, 5)):
            # the sign is (-1)^(adjacent swaps that bubble sort needs)
            seq, swaps = list(order), 0
            for end in range(len(seq) - 1, 0, -1):
                for j in range(end):
                    if seq[j] > seq[j + 1]:
                        seq[j], seq[j + 1] = seq[j + 1], seq[j]
                        swaps += 1
            product = ExtClass.one(cfg)
            for k in order:
                product = product * ExtClass.dt(cfg, k)
            text = "*".join(f"dt{k}" for k in order)
            expected = ExtClass.dt_top(cfg).scale((-1) ** swaps)
            assert parse_class(text, cfg) == product == expected, order

    def test_repeated_dt_is_rejected(self):
        cfg = Config(3, 2)
        with pytest.raises(ParseError):
            parse_class("dt1*dt1", cfg)

    def test_dt_exponent_is_rejected(self):
        cfg = Config(3, 2)
        with pytest.raises(ParseError, match="dt factor"):
            parse_class("dt1^2", cfg)

    def test_index_out_of_range(self):
        cfg = Config(3, 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_class("t3", cfg)

    def test_error_positions(self):
        cfg = Config(3, 2)
        with pytest.raises(ParseError) as exc:
            parse_class("t1 + $", cfg)
        assert exc.value.position == 5
        with pytest.raises(ParseError) as exc:
            parse_class("t1 * t9", cfg)
        assert exc.value.position == 5

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("t1 + $", "unexpected character '$'", 5),
            ("", "empty expression", 0),
            ("  ", "empty expression", 0),
            ("t1 t2 3", "expected '+' or '-' between terms", 6),
            ("2*+t1", "expected a t or dt factor after '*'", 2),
            ("2 t1 *", "expected a t or dt factor after '*'", 6),
            ("t1 + +t2", "expected a term", 5),
            ("*t1", "expected a term", 0),
            ("t1 + *t2", "expected a term", 5),
            ("t3", "index 3 out of range 1..2", 0),
            ("dt1^2", "exponent not allowed on a dt factor", 3),
            ("dt1*dt1", "repeated exterior generator dt1", 4),
            ("t1^", "expected an exponent after '^'", 3),
            ("t1^0", "exponent must be positive", 3),
        ],
        ids=[
            "bad-character",
            "empty",
            "blank",
            "no-operator",
            "operator-after-star",
            "trailing-star",
            "second-sign",
            "star-first-term",
            "star-later-term",
            "index-range",
            "dt-exponent",
            "repeated-dt",
            "no-exponent",
            "zero-exponent",
        ],
    )
    def test_every_error_names_its_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_class(text, Config(3, 2))
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_constants_and_signs(self):
        cfg = Config(3, 2)
        t1 = ExtClass.t(cfg, 1)
        assert parse_class("0", cfg) == ExtClass(cfg)
        assert parse_class("1 - t1^2", cfg) == ExtClass.one(cfg) + (t1 * t1).scale(-1)
        assert parse_class("-t1 + 2*t2", cfg) == t1.scale(-1) + 2 * ExtClass.t(cfg, 2)
        assert parse_class("2t1", cfg) == 2 * t1  # star after INT is optional
        assert parse_class(" t1 *  t1 ", cfg) == t1 * t1

    def test_empty_and_dangling_input(self):
        cfg = Config(3, 2)
        for text in ("", "t1 +", "2*", "t1^", "t1^0"):
            with pytest.raises(ParseError):
                parse_class(text, cfg)


class TestRender:
    def test_zero(self):
        assert render_class(ExtClass(Config(3, 2))) == "0"

    def test_determinant_class(self):
        cfg = Config(3, 2)
        e2 = apply_word([("Q", 0), ("Q", 1)], ExtClass.dt_top(cfg))
        assert render_class(e2) == "t1^3*t2 - t1*t2^3"
        assert render_class(e2.scale(-1)) == "-t1^3*t2 + t1*t2^3"

    def test_derivation_expansion(self):
        cfg = Config(3, 3)
        x = milnor_q(0, ExtClass.dt_top(cfg))
        assert render_class(x) == "t1*dt2*dt3 - t2*dt1*dt3 + t3*dt1*dt2"

    def test_round_trip_on_random_classes(self, rng):
        for cfg in CONFIGS + [Config(7, 2)]:
            for _ in range(25):
                x = random_class(rng, cfg, max_terms=5, max_exp=4)
                assert parse_class(render_class(x), cfg) == x

    @PROPERTY
    @given(data=st.data())
    def test_round_trip_property(self, data):
        cfg = data.draw(configs())
        x = data.draw(classes(cfg))
        assert parse_class(render_class(x), cfg) == x


class TestJson:
    def test_documented_shape(self):
        cfg = Config(3, 2)
        e2 = parse_class("t1^3*t2 - t1*t2^3", cfg)
        assert class_to_json(e2) == {
            "p": 3,
            "n": 2,
            "terms": [
                {"coeff": 1, "exps": [3, 1], "dts": []},
                {"coeff": 2, "exps": [1, 3], "dts": []},
            ],
        }

    def test_round_trip(self, rng):
        # the JSON terms are iter_terms' (mask, mono, coeff) in the same
        # order, with the mask spelled as ascending dt indices
        for cfg in CONFIGS:
            for _ in range(10):
                x = random_class(rng, cfg)
                data = class_to_json(x)
                assert (data["p"], data["n"]) == (cfg.p, cfg.n)
                terms = [
                    (sum(1 << (k - 1) for k in t["dts"]), tuple(t["exps"]), t["coeff"])
                    for t in data["terms"]
                ]
                assert all(t["dts"] == sorted(set(t["dts"])) for t in data["terms"])
                assert terms == list(x.iter_terms())
