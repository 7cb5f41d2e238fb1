import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorq import (
    Config,
    ConsistencyError,
    ExtClass,
    ResourceGuardError,
    apply_word,
    dickson_classes,
    dickson_polynomial,
    group_generators,
    invariant_dimension,
    is_invariant,
    membership_dickson,
    milnor_q,
    moore_class,
    orbit_size,
    parse_class,
    predicted_dimension,
    substitute_linear,
)
from milnorq import invariants
from milnorq.algebra import LinearSubst
from milnorq.invariants import (
    GroupSpec,
    _grade_basis,
    _grades,
    _hilbert_series,
    check_invariant_matrix_bytes,
    decomposition_text,
    grade_sizes,
    primitive_root,
    ring_generators,
)
from conftest import compose, random_homogeneous_poly, random_subst, x_coefficient
from oracles import (
    degree_basis_sorted,
    dickson_polynomial_naive,
    dickson_polynomial_shift,
    invariant_dimension_stacked,
    membership_dickson_dense,
    transvection_group,
)
from test_algebra import PROPERTY, classes


class TestDicksonPolynomial:
    def test_rank_one_explicit(self):
        cfg = Config(3, 1)
        f = dickson_polynomial(cfg)
        # X^3 - t_1^2 X, keyed (e_X, e_1)
        assert f == {(3, 0): 1, (1, 2): 2}
        assert x_coefficient(cfg, f, 1) == (ExtClass.t(cfg, 1) ** 2).scale(-1)
        assert f == dickson_polynomial_naive(cfg)

    def test_rank_two_support_and_bottom_coefficient(self):
        cfg = Config(3, 2)
        f = dickson_polynomial(cfg)
        assert sorted({mono[0] for mono in f}) == [1, 3, 9]
        e2 = apply_word([("Q", 0), ("Q", 1)], ExtClass.dt_top(cfg))
        # (-1)^n c_{n,0} is the coefficient of X, and c_{2,0} = e2^2
        assert x_coefficient(cfg, f, 1) == e2 * e2
        assert not x_coefficient(cfg, f, 2)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_recursion_equals_naive_product(self, p, n):
        cfg = Config(p, n)
        f = dickson_polynomial(cfg)
        assert f == dickson_polynomial_naive(cfg)
        assert f == dickson_polynomial_shift(cfg)

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            dickson_polynomial(Config(5, 4))


class TestDicksonClasses:
    def test_rank_one(self):
        cfg = Config(3, 1)
        ds = dickson_classes(cfg)
        assert ds._fields == ("e", "c")
        assert ds.e == ExtClass.t(cfg, 1)
        assert list(ds.c) == [ExtClass.t(cfg, 1) ** 2]

    def test_rejects_f_outside_the_p_power_shape(self, monkeypatch):
        cfg = Config(3, 2)
        f = dickson_polynomial(cfg)
        for bad, message in [
            ({**f, (2, 1, 1): 1}, "not contained in p-powers"),  # an X^2 term
            ({**f, (9, 0, 0): 2}, "top coefficient"),  # -X^9 on top
        ]:
            monkeypatch.setattr(invariants, "dickson_polynomial", lambda cfg, bad=bad: bad)
            with pytest.raises(ConsistencyError, match=message):
                dickson_classes.__wrapped__(cfg)  # past the cache

    def test_degrees_are_checked_against_the_closed_forms(self, monkeypatch):
        # the validation reads deg c_{n,i} and deg e_n from _generator_degrees
        closed_forms = invariants._generator_degrees

        def c0_off_by_two(cfg, ring):
            degrees = closed_forms(cfg, ring)
            if "c0" in degrees:
                degrees["c0"] += 2
            return degrees

        monkeypatch.setattr(invariants, "_generator_degrees", c0_off_by_two)
        with pytest.raises(ConsistencyError, match="deg c0 = 16, want 18"):
            invariants._dickson_set.__wrapped__(Config(3, 2))

    def test_callers_cannot_corrupt_the_cache(self):
        cfg = Config(3, 2)
        want = dickson_classes(cfg)
        want = (want.e.copy(), [ci.copy() for ci in want.c])
        ds = dickson_classes(cfg)
        ds.e.parts.clear()
        for ci in ds.c:
            for poly in ci.parts.values():
                poly.clear()
        dickson_classes(cfg).e.parts[0][(0, 0)] = 1
        misses = dickson_classes.cache_info().misses
        ds = dickson_classes(cfg)
        assert dickson_classes.cache_info().misses == misses  # served by the cache
        assert (ds.e, list(ds.c)) == want
        assert ds.e == parse_class("t1^3*t2 - t1*t2^3", cfg)

    def test_rank_two_values(self):
        cfg = Config(3, 2)
        ds = dickson_classes(cfg)
        assert ds.e == parse_class("t1^3*t2 - t1*t2^3", cfg)
        assert ds.c[-1] == ds.e**2

    @pytest.mark.parametrize(
        "p,n,degrees",
        [
            (3, 2, {"e": 8, "c": [12, 16]}),
            (5, 3, {"e": 62, "c": [200, 240, 248]}),
        ],
    )
    def test_degrees(self, p, n, degrees):
        ds = dickson_classes(Config(p, n))
        assert ds.e.degree() == degrees["e"]
        assert [ci.degree() for ci in ds.c] == degrees["c"]

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
    def test_power_identity(self, p, n):
        ds = dickson_classes(Config(p, n))
        assert ds.e ** (p - 1) == ds.c[-1]

    def test_e_transforms_by_the_determinant(self, rng):
        for p, n in [(3, 2), (5, 2), (3, 3)]:
            cfg = Config(p, n)
            ds = dickson_classes(cfg)
            for _ in range(5):
                g = random_subst(rng, cfg)
                assert substitute_linear(g, ds.e) == ds.e.scale(g.det)


class TestMoore:
    def test_rank_two_term_count(self):
        x = moore_class(Config(3, 2))
        assert sum(len(poly) for poly in x.parts.values()) == 2

    def test_rank_three_term_count(self):
        x = moore_class(Config(3, 3))
        assert sum(len(poly) for poly in x.parts.values()) == 6

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
    def test_equals_operation_word(self, p, n):
        cfg = Config(p, n)
        word = [("Q", i) for i in range(n)]
        assert moore_class(cfg) == apply_word(word, ExtClass.dt_top(cfg))


@pytest.mark.parametrize(
    "lookup, cache_info",
    [(dickson_classes, dickson_classes.cache_info)],
    ids=["dickson_classes"],
)
def test_results_survive_eviction(lookup, cache_info):
    cfg = Config(3, 2)
    first = lookup(cfg)
    # more rank-one configs than the Dickson cache keeps
    primes = [p for p in range(3, 98, 2) if all(p % d for d in range(3, p, 2))]
    for p in primes[: invariants.CACHE_ENTRIES + 1]:
        lookup(Config(p, 1))
    info = cache_info()
    assert info.currsize == info.maxsize == invariants.CACHE_ENTRIES
    again = lookup(cfg)
    assert cache_info().misses == info.misses + 1  # recomputed
    assert again == first


def _is_elementary(rows):
    """True for I + c*E_ij with i != j and c != 0."""
    off = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if i != j and v]
    return len(off) == 1 and all(rows[i][i] == 1 for i in range(len(rows)))


class TestGroups:
    def test_generator_counts(self):
        for n in (2, 3, 4):
            assert len(group_generators(Config(3, n), "SL").generators) == 2
            assert len(group_generators(Config(3, n), "GL").generators) == 3
        assert len(group_generators(Config(3, 1), "SL").generators) == 0
        gl1 = group_generators(Config(3, 1), "GL")
        assert [g.rows for g in gl1.generators] == [((2,),)]

    @pytest.mark.parametrize(
        "p, n, sl_order, gl_order",
        [(3, 2, 24, 48), (5, 2, 120, 480), (7, 2, 336, 2016), (3, 3, 5616, 11232)],
    )
    def test_generators_close_to_the_whole_group(self, p, n, sl_order, gl_order):
        # |SL_n(F_p)| = prod_(k<n) (p^n - p^k) / (p - 1), and GL is p - 1 times that
        cfg = Config(p, n)
        for kind, order in (("SL", sl_order), ("GL", gl_order)):
            gens = [g.rows for g in group_generators(cfg, kind).generators]
            identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            seen, frontier = {identity}, [identity]
            while frontier:
                new = []
                for m in frontier:
                    for g in gens:
                        prod = tuple(
                            tuple(sum(a * b for a, b in zip(row, col)) % p for col in zip(*g))
                            for row in m
                        )
                        if prod not in seen:
                            seen.add(prod)
                            new.append(prod)
                frontier = new
            assert len(seen) == order, kind

    @pytest.mark.parametrize("p", [3, 97])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_words_in_the_generators_give_every_transvection(self, p, n):
        # the argument of group_generators, also where the group is too
        # large to close: conjugates of E_12(1)^(+-1) by powers of C, then
        # commutators, reach every E_ij(1)
        cfg = Config(p, n)
        cycle, shear = group_generators(cfg, "SL").generators
        found = {shear, shear.inverse()}
        for _ in range(n):
            found |= {compose(cycle.inverse(), compose(g, cycle)) for g in found}
        grown = True
        while grown:
            commutators = {
                compose(compose(a, b), compose(a.inverse(), b.inverse()))
                for a in found
                for b in found
            }
            new = {g for g in commutators if _is_elementary(g.rows)} - found
            found |= new
            grown = bool(new)
        assert all(_is_elementary(g.rows) for g in found)
        pairs = itertools.permutations(range(1, n + 1), 2)
        assert {LinearSubst.transvection(cfg, i, j) for i, j in pairs} <= found

    def test_primitive_roots(self):
        assert primitive_root(3) == 2
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3
        assert primitive_root(97) == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            group_generators(Config(3, 2), "PSL")

    def test_either_spelling_gives_one_group(self):
        cfg = Config(3, 3)
        upper = group_generators(cfg, "GL")
        assert upper.kind == "GL"
        assert group_generators(cfg, "gl") == upper
        assert group_generators(cfg, "Gl") == upper


class TestAgainstTheTransvectionSet:
    """group_generators against all n(n-1) transvections (plus the diagonal
    for GL) from tests/oracles.py: both sets generate the same group."""

    @PROPERTY
    @given(data=st.data())
    def test_invariance_verdicts(self, data):
        cfg = data.draw(st.sampled_from([Config(3, 2), Config(5, 2), Config(3, 3), Config(3, 4)]))
        kind = data.draw(st.sampled_from(["SL", "GL"]))
        # a Dickson monomial in e and the c's is SL-invariant, GL-invariant
        # when (p - 1) divides the power of e; a random class rarely is
        ds = dickson_classes(cfg)
        x = ExtClass(cfg)
        for g in data.draw(st.lists(st.sampled_from((ds.e,) + ds.c), max_size=2)):
            x = x * g if x else g
        if data.draw(st.booleans()):
            x = x + data.draw(classes(cfg))
        ours = is_invariant(x, group_generators(cfg, kind))
        assert ours == is_invariant(x, transvection_group(cfg, kind))

    @pytest.mark.parametrize(
        "p, n, kind, dmax", [(3, 4, "SL", 14), (5, 3, "GL", 16), (3, 3, "SL", 30)]
    )
    def test_invariant_bases(self, p, n, kind, dmax):
        cfg = Config(p, n)
        ours, reference = group_generators(cfg, kind), transvection_group(cfg, kind)
        for d in range(dmax + 1):
            got = invariant_dimension(ours, d)
            assert got == invariant_dimension(reference, d), d

    @PROPERTY
    @given(data=st.data())
    def test_invariant_bases_at_random_degrees(self, data):
        # configs that test_invariant_bases leaves out, each to a degree
        # where one solve takes at most about 0.1 s; half the draws land on
        # a degree where Mui's prediction is nonzero
        (p, n), dmax = data.draw(
            st.sampled_from([((5, 2), 250), ((7, 2), 250), ((7, 3), 120), ((97, 2), 400)])
        )
        cfg, kind = Config(p, n), data.draw(st.sampled_from(["SL", "GL"]))
        series = _hilbert_series(cfg, dmax, "SM" if kind == "SL" else "M")
        nonzero = [d for d, dim in enumerate(series) if dim]
        d = data.draw(st.one_of(st.integers(0, dmax), st.sampled_from(nonzero)))
        ours, reference = group_generators(cfg, kind), transvection_group(cfg, kind)
        check_invariant_matrix_bytes(ours, d)
        got = invariant_dimension(ours, d)
        assert got[0] == series[d]
        assert got == invariant_dimension(reference, d), d

    @pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
    def test_orbit_sizes(self, p, n):
        cfg = Config(p, n)
        for kind in ("SL", "GL"):
            ours, reference = group_generators(cfg, kind), transvection_group(cfg, kind)
            for start in itertools.product(range(p), repeat=n):
                if any(start):
                    assert orbit_size(ours, start) == orbit_size(reference, start)


class TestInvariance:
    def test_bottom_dickson_class_is_gl_invariant(self):
        cfg = Config(3, 2)
        ds = dickson_classes(cfg)
        assert is_invariant(ds.c[-1], group_generators(cfg, "GL"))

    def test_e_is_sl_but_not_gl_invariant(self):
        cfg = Config(3, 2)
        ds = dickson_classes(cfg)
        assert is_invariant(ds.e, group_generators(cfg, "SL"))
        assert not is_invariant(ds.e, group_generators(cfg, "GL"))

    @pytest.mark.parametrize("p", [3, 5])
    def test_top_exterior_class_is_sl_invariant(self, p):
        cfg = Config(p, 2)
        assert is_invariant(ExtClass.dt_top(cfg), group_generators(cfg, "SL"))

    def test_verdicts_survive_inverse_transpose_generators(self):
        # the g^(-T) of a generating set generate the same group, so
        # invariance decided with them must agree
        cfg = Config(3, 2)
        ds = dickson_classes(cfg)
        for kind in ("SL", "GL"):
            group = group_generators(cfg, kind)
            swapped = GroupSpec(
                kind,
                cfg,
                tuple(LinearSubst(cfg, zip(*g.inverse().rows)) for g in group.generators),
            )
            for x in [ds.e, ds.c[0], ds.c[1], ds.e**2, ExtClass.t(cfg, 1)]:
                assert is_invariant(x, group) == is_invariant(x, swapped)


class TestMembership:
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    @pytest.mark.parametrize("ring", ["D", "SD", "sd"])
    def test_closed_form_degrees_match_the_generators(self, p, n, ring):
        cfg = Config(p, n)
        _, gens = ring_generators(cfg, ring)
        degrees = invariants._generator_degrees(cfg, ring).values()
        assert list(degrees) == [g.degree() for g in gens]

    def test_unknown_ring(self):
        with pytest.raises(ValueError, match="unknown ring"):
            membership_dickson(ExtClass.t(Config(3, 2), 1) ** 2, "M")

    def test_square_of_e_decomposes_to_the_bottom_class(self):
        cfg = Config(3, 2)
        ds = dickson_classes(cfg)
        dec = membership_dickson(ds.e**2, "D")
        assert dec == {(0, 1): 1}
        assert decomposition_text(cfg, "D", dec) == "c0"

    def test_e_itself_is_not_in_d(self):
        cfg = Config(3, 2)
        assert membership_dickson(dickson_classes(cfg).e, "D") is None

    def test_e_is_an_sd_generator(self):
        cfg = Config(3, 3)
        ds = dickson_classes(cfg)
        dec = membership_dickson(ds.e, "SD")
        assert dec == {(1, 0, 0): 1}
        assert decomposition_text(cfg, "SD", dec) == "e"

    def test_scalars_and_zero(self):
        cfg = Config(3, 2)
        assert membership_dickson(ExtClass(cfg), "D") == {}
        assert membership_dickson(ExtClass.scalar(cfg, 2), "D") == {(0, 0): 2}

    def test_rejects_non_homogeneous_and_exterior_input(self):
        cfg = Config(3, 2)
        t1 = ExtClass.t(cfg, 1)
        with pytest.raises(ValueError):
            membership_dickson(t1 + t1 * t1, "D")
        with pytest.raises(ValueError):
            membership_dickson(ExtClass.dt(cfg, 1), "D")

    def test_mixed_degree_products_decompose(self):
        cfg = Config(3, 2)
        c1, c0 = dickson_classes(cfg).c
        x = 2 * c1**4 + c0**3  # degree 48 is reachable in two ways
        dec = membership_dickson(x, "D")
        assert dec == {(4, 0): 2, (0, 3): 1}
        assert decomposition_text(cfg, "D", dec) == "c0^3 + 2*c1^4"

    @pytest.mark.parametrize(
        "p, n, a, match",
        [
            # 5,774,275 monomial rows of degree 648: refused on rows alone
            (3, 4, 324, "5774275 monomial rows"),
            (3, 4, 600, "monomial rows"),
            # 2,000,001 monomial rows at (3, 2); 20,001 rows at degree 40,000 fit
            (3, 2, 2000000, "2000001 monomial rows"),
        ],
    )
    def test_guard_refuses_before_building_monomials(self, monkeypatch, p, n, a, match):
        cfg = Config(p, n)

        def unreachable(*args):
            raise AssertionError("the guard let the call through")

        monkeypatch.setattr(invariants, "dickson_classes", unreachable)
        monkeypatch.setattr(invariants, "monomials", unreachable)
        monkeypatch.setattr(ExtClass, "__pow__", unreachable)
        x = ExtClass(cfg, {0: {(a,) + (0,) * (n - 1): 1}})
        with pytest.raises(ResourceGuardError, match=match):
            membership_dickson(x, "D")

    @pytest.mark.parametrize("p, n, ring, a", [(3, 3, "D", 240), (3, 2, "SD", 1000)])
    def test_peak_memory_stays_under_the_guard_estimate(self, p, n, ring, a):
        cfg = Config(p, n)
        estimate = invariants._SUBDUCTION_ROW_BYTES * math.comb(a + n - 1, n - 1)
        tracemalloc.start()
        try:
            membership_dickson(ExtClass.t(cfg, 1) ** a, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimate

    def test_leads_that_are_not_one_per_variable_are_refused(self, monkeypatch):
        cfg = Config(3, 2)
        c1, _ = dickson_classes(cfg).c
        twice = (["c1", "c1"], [c1, c1])  # both leads end at t_1
        monkeypatch.setattr(invariants, "ring_generators", lambda cfg, ring: twice)
        with pytest.raises(ConsistencyError, match="not one per variable"):
            membership_dickson(c1, "D")

    def test_a_product_whose_lead_is_not_the_sum_is_refused(self, monkeypatch):
        cfg = Config(3, 2)
        c1, _ = dickson_classes(cfg).c
        # a faulty power: c1 ** 1 comes back as t2^6, whose lead is not c1's
        monkeypatch.setattr(ExtClass, "__pow__", lambda self, e: ExtClass(cfg, {0: {(0, 6): 1}}))
        with pytest.raises(ConsistencyError, match="lead of the product"):
            membership_dickson(c1, "D")

    def test_square_of_the_bottom_class_at_rank_four_stays_small(self):
        # c0^2 at (3, 4) has 708,561 monomials of its degree, and
        # subduction holds no table of them, only one product at a time.
        # The Dickson set is rebuilt under the trace.
        cfg = Config(3, 4)
        x = dickson_classes(cfg).c[-1] ** 2
        invariants._dickson_set.cache_clear()
        tracemalloc.start()
        try:
            dec = membership_dickson(x, "D")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec == {(0, 0, 0, 2): 1}
        assert peak < 16 << 20

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_subduction_matches_the_dense_system(self, data):
        # p^n <= 125, with at most `budget` generator factors per candidate
        # so the dense system stays small
        p, n, budget = data.draw(
            st.sampled_from(
                [(3, 1, 6), (7, 1, 6), (3, 2, 4), (5, 2, 4), (11, 2, 3), (3, 3, 2),
                 (5, 3, 2), (3, 4, 1)]
            )
        )
        cfg = Config(p, n)
        ring = data.draw(st.sampled_from(["D", "SD"]))
        _, gens = ring_generators(cfg, ring)
        top = data.draw(
            st.lists(st.integers(0, budget), min_size=n, max_size=n).filter(
                lambda e: 1 <= sum(e) <= budget
            )
        )
        d = sum(e * g.degree() for e, g in zip(top, gens))
        candidates = list(invariants._compositions(d, [g.degree() for g in gens]))
        x = ExtClass(cfg)
        chosen = st.lists(st.sampled_from(candidates), min_size=1, max_size=3, unique=True)
        for exps in data.draw(chosen):
            term = math.prod((g**e for g, e in zip(gens, exps)), start=ExtClass.one(cfg))
            x = x + term.scale(data.draw(st.integers(1, p - 1)))
        if data.draw(st.booleans()):
            # perturb by one monomial of the same degree
            cut = st.lists(st.integers(0, d // 2), min_size=n - 1, max_size=n - 1)
            cuts = sorted(data.draw(cut))
            mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [d // 2]))
            x = x + ExtClass(cfg, {0: {mono: data.draw(st.integers(1, p - 1))}})
        assert membership_dickson(x, ring) == membership_dickson_dense(x, ring)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_agreement_with_invariance(self, p, n, rng):
        cfg = Config(p, n)
        gl = group_generators(cfg, "GL")
        sl = group_generators(cfg, "SL")
        for _ in range(40):
            d = 2 * rng.randint(0, p**2 - 1)
            x = random_homogeneous_poly(rng, cfg, d)
            assert (membership_dickson(x, "D") is not None) == is_invariant(x, gl)
            assert (membership_dickson(x, "SD") is not None) == is_invariant(x, sl)


class TestOrbits:
    def test_transitive_cases(self):
        assert orbit_size(group_generators(Config(3, 2), "SL"), (1, 0)) == 8
        cfg = Config(5, 3)
        assert orbit_size(group_generators(cfg, "SL"), (1, 0, 0)) == 124

    def test_rank_one_is_not_transitive(self):
        cfg = Config(3, 1)
        assert orbit_size(group_generators(cfg, "SL"), (1,)) == 1
        assert orbit_size(group_generators(cfg, "GL"), (1,)) == 2

    def test_zero_vector_rejected(self):
        cfg = Config(3, 2)
        with pytest.raises(ValueError):
            orbit_size(group_generators(cfg, "SL"), (0, 0))

    def test_takes_no_inverse(self, monkeypatch):
        # in a finite group each inverse is a positive power of its generator
        def unreachable(self):
            raise AssertionError("orbit_size built an inverse")

        monkeypatch.setattr(LinearSubst, "inverse", unreachable)
        for p, n in [(3, 2), (7, 2), (3, 3), (3, 4)]:
            cfg = Config(p, n)
            for kind in ("SL", "GL"):
                group = group_generators(cfg, kind)
                for start in [(1,) + (0,) * (n - 1), (0,) * (n - 2) + (1, 2)]:
                    assert orbit_size(group, start) == p**n - 1
        cfg = Config(5, 1)
        assert orbit_size(group_generators(cfg, "GL"), (2,)) == 4


class TestInvariantDimension:
    def test_degree_two_rank_two(self):
        cfg = Config(3, 2)
        dim, basis = invariant_dimension(group_generators(cfg, "SL"), 2)
        assert dim == 1
        assert basis == [ExtClass.dt_top(cfg)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_degree_four_rank_three(self, p):
        cfg = Config(p, 3)
        dim, basis = invariant_dimension(group_generators(cfg, "SL"), 4)
        assert dim == 1
        assert basis == [milnor_q(0, ExtClass.dt_top(cfg))]

    def test_basis_lists_the_canonical_order(self):
        # the library lists each grade in order; the oracle sorts the basis
        for n in range(1, 5):
            cfg = Config(3, n)
            for d in range(41):
                basis = degree_basis_sorted(cfg, d)
                listed = [key for masks, m in _grades(cfg, d) for key in _grade_basis(n, masks, m)]
                assert listed == basis, (n, d)
                runs = itertools.groupby(basis, key=lambda b: b[0].bit_count())
                assert grade_sizes(cfg, d) == [len(list(r)) for _, r in runs], (n, d)

    def test_matrix_guard_refuses_before_allocating(self, monkeypatch):
        # degree 200 has 1,373,701 terms, almost all moved by the torus:
        # above 1 GB at 1,024 B a term, counted without listing one
        cfg = Config(97, 4)
        group = group_generators(cfg, "SL")

        def unreachable(*args):
            raise AssertionError("the guard let the call through")

        monkeypatch.setattr(invariants, "monomials", unreachable)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceGuardError, match="degree-200 invariants store up to"):
                invariant_dimension(group, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize(
        "p, n, dmax, pairs",
        [
            (5, 2, 10, [(1, 2)]),
            (3, 3, 8, [(1, 2)]),
            (3, 4, 5, [(1, 2)]),
            (3, 3, 8, [(1, 2), (1, 3)]),
        ],
    )
    def test_transvection_groups_match_the_stacked_route(self, p, n, dmax, pairs):
        # one or two transvections fix a lot in every grade: many basis
        # vectors, spread over several numbers of dt factors
        cfg = Config(p, n)
        group = GroupSpec("T", cfg, tuple(LinearSubst.transvection(cfg, i, j) for i, j in pairs))
        spread = 0
        for d in range(dmax + 1):
            got = invariant_dimension(group, d)
            assert got == invariant_dimension_stacked(group, d), d
            grades = {mask.bit_count() for x in got[1] for mask in x.parts}
            spread += got[0] >= 2 and len(grades) >= 2
        assert spread >= dmax // 2

    @pytest.mark.parametrize(
        "p, n, kind, dmax", [(3, 2, "GL", 16), (3, 2, "SL", 16), (3, 3, "SL", 8)]
    )
    def test_matches_the_stacked_route(self, p, n, kind, dmax):
        cfg = Config(p, n)
        group = group_generators(cfg, kind)
        for d in range(dmax + 1):
            got = invariant_dimension(group, d)
            assert got == invariant_dimension_stacked(group, d), (kind, d)

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["SL", "GL"])
    def test_torus_rule_matches_every_diagonal_matrix(self, p, n, kind):
        # a term is T-fixed exactly when every diagonal matrix of the torus
        # (of det 1 for SL) leaves it unchanged
        cfg = Config(p, n)
        torus = [
            LinearSubst.diagonal(cfg, list(diag))
            for diag in itertools.product(range(1, p), repeat=n)
            if kind == "GL" or math.prod(diag) % p == 1
        ]
        for d in range(13):
            for masks, m in _grades(cfg, d):
                for mask, mono in _grade_basis(n, masks, m):
                    term = ExtClass(cfg, {mask: {mono: 1}})
                    fixed = all(substitute_linear(t, term) == term for t in torus)
                    assert invariants._torus_fixed(kind, p, mask, mono) == fixed, (d, mask, mono)

    @PROPERTY
    @given(
        st.sampled_from([(3, 1, 12), (5, 1, 12), (3, 2, 12), (5, 2, 12), (7, 2, 12), (3, 3, 8)]),
        st.sampled_from(["SL", "GL"]),
        st.data(),
    )
    def test_random_degrees_match_the_dense_route(self, case, kind, data):
        # the oracle solves one dense system on the whole degree, with no torus
        p, n, dmax = case
        d = data.draw(st.integers(0, dmax), label="d")
        group = group_generators(Config(p, n), kind)
        assert invariant_dimension(group, d) == invariant_dimension_stacked(group, d)

    @pytest.mark.parametrize(
        "p, n, kind, d", [(3, 2, "GL", 12), (3, 3, "SL", 8), (5, 3, "SL", 10), (3, 4, "GL", 9)]
    )
    def test_only_torus_fixed_terms_are_substituted(self, monkeypatch, p, n, kind, d):
        cfg = Config(p, n)
        group = group_generators(cfg, kind)
        calls = []

        def counted(g, x):
            calls.append(x)
            return substitute_linear(g, x)

        monkeypatch.setattr(invariants, "substitute_linear", counted)
        invariant_dimension(group, d)
        terms = [key for masks, m in _grades(cfg, d) for key in _grade_basis(n, masks, m)]
        fixed = sum(invariants._torus_fixed(kind, p, *key) for key in terms)
        assert 0 < fixed < len(terms)
        assert len(calls) == len(group.generators) * fixed

    def test_peak_memory_stays_under_the_guard_estimate(self, monkeypatch):
        # the price of the terms and row entries is above the traced peak,
        # once the modules have run, for each kind of row
        prices = []
        monkeypatch.setattr(invariants, "guard_bytes", lambda what, needed: prices.append(needed))
        for p, n, kind, d in [(3, 4, "SL", 20), (3, 4, "GL", 24), (3, 2, "SL", 1000), (5, 3, "T", 30)]:
            cfg = Config(p, n)
            if kind == "T":
                group = GroupSpec("T", cfg, (LinearSubst.transvection(cfg, 1, 2),))
            else:
                group = group_generators(cfg, kind)
            invariant_dimension(group, 4)
            tracemalloc.start()
            try:
                invariant_dimension(group, d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < prices[-1], (p, n, kind, d)

    @pytest.mark.parametrize("p, n, dmax", [(3, 2, 30), (5, 2, 30), (7, 3, 16), (3, 4, 12)])
    @pytest.mark.parametrize("kind", ["SL", "GL", "T"])
    def test_price_counts_the_terms_and_bounds_the_entries(self, monkeypatch, p, n, dmax, kind):
        # the terms are the grade sizes; with no generator the entries are
        # the unit rows, one per moved term; with them, no fewer than the
        # matrices hold.  Kind "T" has no torus and moves no term; it also
        # gets a generator of two shears, priced at the grade size.
        cfg = Config(p, n)
        gens = group_generators(cfg, "GL" if kind == "T" else kind).generators
        if kind == "T":
            two = compose(LinearSubst.transvection(cfg, 1, 2), LinearSubst.transvection(cfg, 2, 1))
            assert len(two.shears) == 2
            gens += (two,)
        counts = []

        def priced(what, needed):
            counts.append([int(w) for w in what.split() if w.isdigit()][-2:])

        stored = []
        kernel_basis = invariants.linalg.kernel_basis

        def kernel(matrix, p):
            stored.append(sum(map(len, matrix.rows)))
            return kernel_basis(matrix, p)

        monkeypatch.setattr(invariants, "guard_bytes", priced)
        monkeypatch.setattr(invariants.linalg, "kernel_basis", kernel)
        for d in range(dmax + 1):
            keys = [key for masks, m in _grades(cfg, d) for key in _grade_basis(n, masks, m)]
            moved = sum(not invariants._torus_fixed(kind, p, *key) for key in keys)
            counts.clear()
            check_invariant_matrix_bytes(GroupSpec(kind, cfg, ()), d)
            assert counts == [[len(keys), moved]], d
            counts.clear()
            stored.clear()
            invariant_dimension(GroupSpec(kind, cfg, gens), d)
            assert counts[0][0] == len(keys) and counts[0][1] >= sum(stored), d

    def test_sparse_rows_keep_degree_twenty_small(self):
        # about 1.3 MB with sparse rows; the dense int64 solver peaked at 42.5 MB
        cfg = Config(3, 4)
        group = group_generators(cfg, "SL")
        tracemalloc.start()
        try:
            invariant_dimension(group, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_degree_zero(self):
        for cfg in (Config(3, 2), Config(5, 3)):
            dim, basis = invariant_dimension(group_generators(cfg, "GL"), 0)
            assert dim == 1
            assert basis == [ExtClass.one(cfg)]

    def test_trivial_group_keeps_everything(self):
        cfg = Config(3, 1)
        dim, basis = invariant_dimension(group_generators(cfg, "SL"), 2)
        assert dim == 1 and basis == [ExtClass.t(cfg, 1)]

    def test_basis_members_are_invariant(self):
        cfg = Config(3, 2)
        group = group_generators(cfg, "SL")
        for d in range(0, 12):
            _, basis = invariant_dimension(group, d)
            for b in basis:
                assert is_invariant(b, group)


class TestPredictedDimension:
    def test_low_degrees_rank_two(self):
        cfg = Config(3, 2)
        assert predicted_dimension(cfg, 2, "SM") == 1
        assert predicted_dimension(cfg, 3, "SM") == 1
        assert predicted_dimension(cfg, 1, "SM") == 0

    def test_matches_computed_invariants(self):
        for p, n, dmax, kind, ring in [
            (3, 2, 16, "SL", "SM"),
            (3, 2, 16, "GL", "M"),
            (3, 3, 8, "SL", "SM"),
        ]:
            cfg = Config(p, n)
            group = group_generators(cfg, kind)
            for d in range(dmax + 1):
                dim, _ = invariant_dimension(group, d)
                assert dim == predicted_dimension(cfg, d, ring), (p, n, d, ring)

    @pytest.mark.parametrize("p, n, top", [(3, 1, 30), (3, 2, 60), (5, 3, 120), (3, 4, 200)])
    def test_one_series_for_a_range(self, p, n, top):
        cfg = Config(p, n)
        for ring in ("SD", "D", "SM", "m"):
            series = invariants._hilbert_series(cfg, top, ring)
            assert series == [predicted_dimension(cfg, d, ring) for d in range(top + 1)], ring

    def test_base_ring_series(self):
        cfg = Config(3, 2)
        # SD_2 is a polynomial algebra on degrees 8 and 12
        expected = {0: 1, 8: 1, 12: 1, 16: 1, 20: 1, 24: 2}
        for d, value in expected.items():
            assert predicted_dimension(cfg, d, "SD") == value
        with pytest.raises(ValueError):
            predicted_dimension(cfg, -1, "SD")
        with pytest.raises(ValueError):
            predicted_dimension(cfg, 4, "XX")


class TestRingGenerators:
    def test_names_and_degrees(self):
        cfg = Config(3, 3)
        names, gens = ring_generators(cfg, "SD")
        assert names == ["e", "c2", "c1"]
        assert [g.degree() for g in gens] == [26, 36, 48]
        names, gens = ring_generators(cfg, "D")
        assert names == ["c2", "c1", "c0"]
        assert [g.degree() for g in gens] == [36, 48, 52]
