import copy
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorq import (
    Config,
    ConfigMismatchError,
    ExtClass,
    LinearSubst,
    ResourceGuardError,
    group_generators,
    substitute_linear,
)
from milnorq import algebra, errors
from milnorq.algebra import _binomials_mod_p, _lucas_count
from conftest import CONFIGS, compose, linear_form, random_class, random_homogeneous, random_subst
from oracles import det_by_permutations, substitute_linear_expanded


class TestConfig:
    def test_accepts_odd_primes_in_range(self):
        for p in (3, 5, 7, 97):
            assert Config(p, 2).p == p

    @pytest.mark.parametrize("p", [2, 4, 9, 1, 101])
    def test_rejects_bad_primes(self, p):
        with pytest.raises(ValueError):
            Config(p, 2)

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_rejects_bad_ranks(self, n):
        with pytest.raises(ValueError):
            Config(3, n)

    def test_immutable_named_tuple(self):
        cfg = Config(3, 2)
        for change in (
            lambda: setattr(cfg, "p", 5),
            lambda: delattr(cfg, "n"),
            lambda: setattr(cfg, "extra", 1),
        ):
            with pytest.raises(AttributeError):
                change()
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert repr(cfg) == "Config(p=3, n=2)"
        assert cfg == (3, 2) and hash(cfg) == hash((3, 2))
        assert cfg.zero_mono == (0, 0)
        assert cfg._replace(n=4) == Config(3, 4)
        with pytest.raises(ValueError):
            cfg._replace(p=4)

    def test_values_from_different_configs_do_not_mix(self):
        a = ExtClass.t(Config(3, 2), 1)
        b = ExtClass.t(Config(5, 2), 1)
        with pytest.raises(ConfigMismatchError):
            a * b
        with pytest.raises(ConfigMismatchError):
            a + b


class TestExteriorProduct:
    def test_ascending_merge_has_no_sign(self):
        cfg = Config(3, 2)
        dt1, dt2 = ExtClass.dt(cfg, 1), ExtClass.dt(cfg, 2)
        assert dt1 * dt2 == ExtClass.dt_top(cfg)

    def test_one_transposition_flips_sign(self):
        cfg = Config(3, 2)
        dt1, dt2 = ExtClass.dt(cfg, 1), ExtClass.dt(cfg, 2)
        assert dt2 * dt1 == ExtClass.dt_top(cfg).scale(-1)

    def test_repeated_exterior_generator_annihilates(self):
        cfg = Config(3, 2)
        dt1 = ExtClass.dt(cfg, 1)
        assert not dt1 * dt1

    def test_graded_commutativity(self, rng):
        for cfg in CONFIGS:
            for _ in range(10):
                x = random_homogeneous(rng, cfg)
                y = random_homogeneous(rng, cfg)
                sign = (-1) ** (x.degree() * y.degree())
                assert x * y == (y * x).scale(sign)

    def test_associativity_and_distributivity(self, rng):
        for cfg in CONFIGS:
            for _ in range(10):
                x = random_class(rng, cfg)
                y = random_class(rng, cfg)
                z = random_class(rng, cfg)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z

    def test_products_share_no_dicts_with_their_operands(self, rng):
        for cfg in CONFIGS:
            one = ExtClass.one(cfg)
            for _ in range(6):
                x = random_class(rng, cfg, max_terms=16, max_exp=5)
                y = random_class(rng, cfg, max_terms=16, max_exp=5)
                for a, b in [(x, y), (y, x), (x, one), (one, x), (x, x)]:
                    before = (copy.deepcopy(a.parts), copy.deepcopy(b.parts))
                    product = a * b
                    for poly in product.parts.values():
                        for mono in list(poly):
                            poly[mono] = 0
                        poly[(99,) * cfg.n] = 1
                    assert (a.parts, b.parts) == before

    def test_scaling_shares_no_dicts_with_the_operand(self, rng):
        for cfg in CONFIGS:
            x = random_class(rng, cfg, max_terms=8)
            before = copy.deepcopy(x.parts)
            for c in (1, cfg.p + 1, 2, -1):
                scaled = x.scale(c)
                assert scaled.parts is not x.parts
                for poly in scaled.parts.values():
                    poly.clear()
                assert x.parts == before
            assert x * 1 == x and (x * 1).parts is not x.parts

    def test_classes_are_unhashable_like_their_dicts(self):
        # a class is a mutable value: a hash of its parts would go stale
        with pytest.raises(TypeError):
            hash(ExtClass.one(Config(3, 2)))

    def test_scalar_and_power_arithmetic(self):
        cfg = Config(5, 2)
        t1 = ExtClass.t(cfg, 1)
        assert 2 * t1 + 3 * t1 == ExtClass(cfg)
        assert (t1 + 1) ** 2 == t1 * t1 + 2 * t1 + 1
        with pytest.raises(ValueError):
            t1 ** -1


class TestHomogeneousPart:
    def test_reads_degree_four_part_of_a_product(self):
        cfg = Config(3, 1)
        one = ExtClass.one(cfg)
        t1 = ExtClass.t(cfg, 1)
        product = (one + t1) * (one + 2 * t1)  # 1 - t1^2 over F_3
        assert product == one + (t1 * t1).scale(-1)
        assert product.homogeneous_part(4) == (t1 * t1).scale(-1)

    def test_exterior_term_degree(self):
        cfg = Config(3, 2)
        x = ExtClass.dt_top(cfg) + ExtClass.t(cfg, 1) * ExtClass.dt(cfg, 2)
        assert x.homogeneous_part(2) == ExtClass.dt_top(cfg)

    def test_beyond_top_degree_is_zero(self, rng):
        for cfg in CONFIGS:
            x = random_class(rng, cfg)
            assert not x.homogeneous_part(x.degree() + 1)
            assert not x.homogeneous_part(x.degree() + 2)

    def test_parts_sum_back(self, rng):
        for cfg in CONFIGS:
            for _ in range(5):
                x = random_class(rng, cfg)
                total = ExtClass(cfg)
                for d in range(x.degree() + 1):
                    total = total + x.homogeneous_part(d)
                assert total == x

    def test_rejects_negative_degree(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            ExtClass.one(cfg).homogeneous_part(-1)


class TestSubstitution:
    def test_identity_fixes_everything(self, rng):
        for cfg in CONFIGS:
            x = random_class(rng, cfg)
            assert substitute_linear(LinearSubst.diagonal(cfg, [1] * cfg.n), x) == x

    def test_transvection_on_a_generator(self):
        cfg = Config(3, 2)
        g = LinearSubst.transvection(cfg, 1, 2)
        t1, t2 = ExtClass.t(cfg, 1), ExtClass.t(cfg, 2)
        assert substitute_linear(g, t1) == t1 + t2
        assert substitute_linear(g, t2) == t2

    def test_diagonal_scales_the_determinant_class(self):
        # direct substitution: t1 -> 2*t1 sends t1^3*t2 - t1*t2^3 to twice itself
        cfg = Config(3, 2)
        t1, t2 = ExtClass.t(cfg, 1), ExtClass.t(cfg, 2)
        e2 = t1**3 * t2 + (t1 * t2**3).scale(-1)
        g = LinearSubst.diagonal(cfg, [2, 1])
        assert substitute_linear(g, e2) == 2 * e2

    def test_singular_matrix_rejected(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            LinearSubst(cfg, [[1, 2], [2, 4]])

    def test_composition_convention(self, rng):
        for cfg in CONFIGS:
            for _ in range(5):
                g = random_subst(rng, cfg)
                h = random_subst(rng, cfg)
                x = random_class(rng, cfg)
                assert substitute_linear(compose(g, h), x) == substitute_linear(
                    g, substitute_linear(h, x)
                )

    def test_substitution_is_an_algebra_homomorphism(self, rng):
        for cfg in CONFIGS:
            for _ in range(5):
                g = random_subst(rng, cfg)
                x = random_class(rng, cfg)
                y = random_class(rng, cfg)
                assert substitute_linear(g, x * y) == substitute_linear(
                    g, x
                ) * substitute_linear(g, y)

    def test_inverse_and_transpose(self, rng):
        for cfg in CONFIGS:
            g = random_subst(rng, cfg)
            assert compose(g, g.inverse()) == LinearSubst.diagonal(cfg, [1] * cfg.n)
            # (g^-1)^T is the inverse of g^T
            transposed = LinearSubst(cfg, zip(*g.rows))
            assert transposed.inverse() == LinearSubst(cfg, zip(*g.inverse().rows))

    def test_weight_action_matches_linear_form_substitution(self, rng):
        for cfg in CONFIGS:
            for _ in range(5):
                g = random_subst(rng, cfg)
                v = tuple(rng.randrange(cfg.p) for _ in range(cfg.n))
                lhs = substitute_linear(g, linear_form(cfg, v))
                assert lhs == linear_form(cfg, g.apply_weight(v))

    def test_dt_and_t_transform_by_the_same_matrix(self, rng):
        # consistent with t_k arising from dt_k under the degree-1 derivation
        from milnorq import milnor_q

        for cfg in CONFIGS:
            g = random_subst(rng, cfg)
            for k in range(1, cfg.n + 1):
                image = substitute_linear(g, ExtClass.dt(cfg, k))
                assert milnor_q(0, image) == substitute_linear(g, ExtClass.t(cfg, k))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [3, 7, 97])
    def test_matches_sympy_substitution(self, p, n):
        # high exponents give long binomial expansions under each shear, even
        # mod 3 where most C(a, k) vanish; sympy composes the polynomial on
        # its own
        pytest.importorskip("sympy")
        from sympy.polys.domains import GF
        from sympy.polys.rings import ring

        cfg = Config(p, n)
        max_exp = {2: 80, 3: 24, 4: 10}[n]
        rng = random.Random(f"subst:{p}:{n}")
        field, *xs = ring(",".join(f"t{k}" for k in range(n)), GF(p))
        for _ in range(3):
            g = random_subst(rng, cfg)
            poly = {}
            for _ in range(3):
                mono = tuple(rng.randint(0, max_exp) for _ in range(n))
                poly[mono] = rng.randint(1, p - 1)
            images = [sum(c * x for c, x in zip(row, xs)) for row in g.rows]
            want = field.from_dict(poly).compose(list(zip(xs, images)))
            want = {mono: int(c) % p for mono, c in want.items() if int(c) % p}
            got = substitute_linear(g, ExtClass(cfg, {0: poly}))
            assert got == (ExtClass(cfg, {0: want}) if want else ExtClass(cfg))


# hypothesis draws a config, then matrices and classes under it
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw):
    return Config(draw(st.sampled_from([3, 5, 7, 97])), draw(st.integers(1, 4)))


def matrices(cfg):
    row = st.lists(st.integers(0, cfg.p - 1), min_size=cfg.n, max_size=cfg.n)
    return st.lists(row, min_size=cfg.n, max_size=cfg.n)


def substs(cfg):
    invertible = matrices(cfg).filter(lambda rows: det_by_permutations(rows, cfg.p))
    return invertible.map(lambda rows: LinearSubst(cfg, rows))


def classes(cfg):
    """Up to four terms, any exterior part, exponents up to 6 (4 when n = 4)."""
    exponent = st.integers(0, 4 if cfg.n == 4 else 6)
    term = st.tuples(
        st.integers(0, (1 << cfg.n) - 1),
        st.tuples(*[exponent] * cfg.n),
        st.integers(1, cfg.p - 1),
    )
    return st.lists(term, min_size=1, max_size=4).map(
        lambda terms: ExtClass.from_terms(cfg, terms)
    )


def shear_product(g):
    """The matrix S_1 ... S_m Q of the factors of g, Q[k][perm[k]] = diag[k]."""
    p, n = g.cfg.p, g.cfg.n
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    for i, j, c in g.shears:
        # right multiplication by I + c*E_ij: column j += c * column i
        for row in m:
            row[j] = (row[j] + c * row[i]) % p
    # right multiplication by Q: column perm[k] is column k times diag[k]
    out = [[0] * n for _ in range(n)]
    for k, (j, d) in enumerate(zip(g.perm, g.diag)):
        for row, new in zip(m, out):
            new[j] = row[k] * d % p
    return tuple(tuple(row) for row in out)


class TestShearFactors:
    @PROPERTY
    @given(data=st.data())
    def test_matches_the_expanded_route(self, data):
        cfg = data.draw(configs())
        g, x = data.draw(substs(cfg)), data.draw(classes(cfg))
        assert substitute_linear(g, x) == substitute_linear_expanded(g, x)

    @PROPERTY
    @given(data=st.data())
    def test_composition_convention(self, data):
        cfg = data.draw(configs())
        g, h, x = data.draw(substs(cfg)), data.draw(substs(cfg)), data.draw(classes(cfg))
        assert substitute_linear(compose(g, h), x) == substitute_linear(g, substitute_linear(h, x))

    @PROPERTY
    @given(data=st.data())
    def test_factors_multiply_back(self, data):
        g = data.draw(configs().flatmap(substs))
        n = g.cfg.n
        assert all(i != j and c for i, j, c in g.shears)
        assert len(g.shears) <= n * (n - 1)
        assert sorted(g.perm) == list(range(n)) and all(g.diag)
        assert shear_product(g) == g.rows

    @PROPERTY
    @given(data=st.data())
    def test_det_matches_the_permutation_expansion(self, data):
        cfg = data.draw(configs())
        rows = data.draw(matrices(cfg))
        det = det_by_permutations(rows, cfg.p)
        if det:
            assert LinearSubst(cfg, rows).det == det
        else:
            with pytest.raises(ValueError):
                LinearSubst(cfg, rows)

    @PROPERTY
    @given(data=st.data())
    def test_inverse_on_both_sides(self, data):
        g = data.draw(configs().flatmap(substs))
        identity = LinearSubst.diagonal(g.cfg, [1] * g.cfg.n)
        assert compose(g, g.inverse()) == identity == compose(g.inverse(), g)

    def test_elementary_matrices_are_their_own_factors(self):
        cfg = Config(5, 3)
        g = LinearSubst.transvection(cfg, 1, 3, 2)
        assert (g.shears, g.perm, g.diag) == (((0, 2, 2),), (0, 1, 2), (1, 1, 1))
        g = LinearSubst.diagonal(cfg, [2, 3, 4])
        assert (g.shears, g.perm, g.diag, g.det) == ((), (0, 1, 2), (2, 3, 4), 4)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_monomial_matrices_factor_with_no_shears(self, n):
        cfg = Config(5, n)
        cycle = group_generators(cfg, "SL").generators[0]
        assert (cycle.shears, cycle.perm) == ((), tuple(range(1, n)) + (0,))
        assert (cycle.diag, cycle.det) == ((1,) * (n - 1) + ((-1) ** (n - 1) % 5,), 1)
        rng = random.Random(f"monomial:{n}")
        for _ in range(10):
            perm = rng.sample(range(n), n)
            diag = [rng.randrange(1, 5) for _ in range(n)]
            rows = [[d * (j == perm[k]) for j in range(n)] for k, d in enumerate(diag)]
            g = LinearSubst(cfg, rows)
            assert (g.shears, g.perm, g.diag) == ((), tuple(perm), tuple(diag))
            assert g.det == det_by_permutations(rows, 5)
            x = random_class(rng, cfg, max_terms=4, max_exp=5)
            assert substitute_linear(g, x) == substitute_linear_expanded(g, x)

    @pytest.mark.parametrize("p", [3, 5, 97])
    def test_shear_price_counts_the_nonzero_binomials(self, p):
        # Lucas: C(a, k) != 0 mod p for exactly prod_d (a_d + 1) values of k
        for a in (0, 1, p - 1, p, p * p - 1, 2 * p**3 + 5, 10_000):
            assert _lucas_count(a, p) == len(_binomials_mod_p(a, a, p))

    def test_shear_keeps_no_lucas_row_after_it_returns(self):
        # t1^(3^10 - 1) under E_12(1) expands into 3^10 terms through one
        # Lucas row of 3^10 pairs; a cache of rows kept 5.7 MB of it
        cfg = Config(3, 2)
        x = ExtClass.from_terms(cfg, [(0, (3**10 - 1, 0), 1)])
        g = LinearSubst.transvection(cfg, 1, 2)
        tracemalloc.start()
        try:
            y = substitute_linear(g, x)
            assert len(y.parts[0]) == 3**10
            del y
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 4 << 20 and kept < 1 << 18

    def test_shear_is_priced_at_its_term_count(self, monkeypatch):
        # t1^26 dt1 under E_12(1): 26 = 222 in base 3, so 27 terms with dt1
        # and 27 with dt2, none of which collide
        cfg = Config(3, 2)
        x = ExtClass.from_terms(cfg, [(1, (26, 0), 1)])
        g = LinearSubst.transvection(cfg, 1, 2)
        y = substitute_linear(g, x)
        assert sum(map(len, y.parts.values())) == 54
        monkeypatch.setattr(errors, "DESK_SCALE_BYTES", algebra.SHEAR_TERM_BYTES * 54)
        assert substitute_linear(g, x) == y
        monkeypatch.setattr(errors, "DESK_SCALE_BYTES", algebra.SHEAR_TERM_BYTES * 54 - 1)
        with pytest.raises(ResourceGuardError, match="up to 54 terms"):
            substitute_linear(g, x)
