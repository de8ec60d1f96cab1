"""Variety description parsing and exact point counting."""

import itertools
import json
import os
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetalab import counting
from zetalab.arith import FiniteField, PrimePower, make_extension_field
from zetalab.counting import (
    BudgetError,
    ParseError,
    Polynomial,
    VarietySpec,
    count_points,
    count_series,
    local_weights,
    parse_variety,
)
from zetalab.poly import divrem, fp_degree_pattern, fp_gcd, fp_squarefree_part, mulmod, powmod
from zetalab.zeta import fiber_decomposition, weight_factorize, zeta_rational

from conftest import elliptic, plane_cubic


class TestParser:
    def test_plane_curve(self):
        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        assert v.kind == "plane_projective_curve"

    def test_elliptic(self):
        v = parse_variety("elliptic a=[0,0,0,1,0]")
        assert v.kind == "elliptic_curve"
        assert v.a_invariants == (0, 0, 0, 1, 0)

    def test_projective_space(self):
        v = parse_variety("projective 1; vars x,y")
        assert v.kind == "projective_space" and v.ambient_dim == 1

    def test_hypersurface(self):
        v = parse_variety("projective 3; vars x,y,z,w; eq x*w-y*z")
        assert v.kind == "projective_hypersurface"

    def test_zero_dimensional(self):
        v = parse_variety("zerodim x^2+1")
        assert v.kind == "zero_dimensional" and v.zero_poly == (1, 0, 1)

    def test_product(self):
        v = parse_variety("product { projective 1; vars x,y } { projective 1; vars u,v }")
        assert v.kind == "product" and v.left.kind == "projective_space"

    def test_fingerprint_stable(self):
        a = parse_variety("elliptic a=[0,0,0,1,0]")
        b = parse_variety("elliptic a=[0, 0, 0, 1, 0]")
        assert a.fingerprint() == b.fingerprint()


class TestParserErrors:
    def test_non_homogeneous(self):
        with pytest.raises(ParseError, match="non-homogeneous") as err:
            parse_variety("projective 1; vars x,y; eq x^2+y")
        assert err.value.line == 1

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_variety("projective 1; vars x,y; eq x^2+t^2")

    def test_variable_count(self):
        with pytest.raises(ParseError, match="needs 3 variables"):
            parse_variety("projective 2; vars x,y; eq x^2+y^2")

    def test_zerodim_must_be_monic(self):
        with pytest.raises(ParseError, match="monic"):
            parse_variety("zerodim 2*x^2+1")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_variety("projective 1; vars x,y; eq 3x*y")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_variety("projective 1\nvars x,y\neq x+y^2")
        assert err.value.line == 3


class TestCounts:
    def test_projective_line(self):
        v = parse_variety("projective 1; vars x,y")
        assert [count_points(v, PrimePower(3), n) for n in (1, 2, 3)] == [4, 10, 28]

    def test_projective_plane(self):
        v = parse_variety("projective 2; vars x,y,z")
        assert count_series(v, PrimePower(3), 3).counts == (13, 91, 757)

    def test_elliptic_over_f5(self):
        v = parse_variety("elliptic a=[0,0,0,1,0]")
        assert count_series(v, PrimePower(5), 4).counts == (4, 32, 148, 640)

    def test_elliptic_char_two(self):
        # y^2 + y = x^3 + x over F_2: four affine points plus infinity
        v = parse_variety("elliptic a=[0,0,1,1,0]")
        assert count_points(v, PrimePower(2), 1) == 5

    def test_zero_dimensional_split_inert(self):
        v = parse_variety("zerodim x^2+1")
        for p in (3, 5, 13):
            pattern = [count_points(v, PrimePower(p), n) for n in (1, 2, 3, 4)]
            expected = [2, 2, 2, 2] if p % 4 == 1 else [0, 2, 0, 2]
            assert pattern == expected

    def test_product_multiplies(self):
        v = parse_variety("product { projective 1; vars x,y } { projective 1; vars u,v }")
        assert count_series(v, PrimePower(2), 2).counts == (9, 25)

    def test_raw_projective_matches_closed_form(self):
        raw = VarietySpec(kind="raw_system", ambient="projective", ambient_dim=2)
        for pp in (PrimePower(2), PrimePower(3), PrimePower(2, 2), PrimePower(5)):
            assert count_points(raw, pp, 1) == (pp.q**3 - 1) // (pp.q - 1)

    def test_fermat_cubic_against_independent_brute(self):
        def brute(q):
            hits = sum(
                1
                for x in range(q)
                for y in range(q)
                for z in range(q)
                if (x, y, z) != (0, 0, 0) and (x**3 + y**3 + z**3) % q == 0
            )
            return hits // (q - 1)

        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        assert count_points(v, PrimePower(7), 1) == brute(7)

    @given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_product_with_zerodim_is_multiplicative(self, p, n):
        v = parse_variety(
            "product { zerodim x^2+1 } { projective 1; vars x,y }"
        )
        left = parse_variety("zerodim x^2+1")
        right = parse_variety("projective 1; vars x,y")
        q = PrimePower(p)
        assert count_points(v, q, n) == count_points(left, q, n) * count_points(
            right, q, n
        )


def pattern_from_scratch(f, p):
    """Distinct-degree factorization that builds x^(p^k) mod f afresh for
    every k: the per-degree route the counts used to take."""
    f = fp_squarefree_part(f, p)
    pattern, k = {}, 0
    while len(f) - 1 > 0:
        k += 1
        if 2 * k > len(f) - 1:
            pattern[len(f) - 1] = pattern.get(len(f) - 1, 0) + 1
            break
        xpk = powmod((0, 1), p**k, f, p)
        diff = tuple((c - (1 if i == 1 else 0)) % p for i, c in enumerate(xpk))
        g = fp_gcd(diff, f, p)
        if len(g) > 1:
            pattern[k] = (len(g) - 1) // k
            f = divrem(f, g, p)[0]
    return pattern


def per_degree_counts(f, q, m):
    """#roots of f in F_{q^n}, with the degree pattern recomputed per n."""
    out = []
    for n in range(1, m + 1):
        pattern = pattern_from_scratch(tuple(c % q.p for c in f), q.p)
        out.append(sum(d * c for d, c in pattern.items() if (q.r * n) % d == 0))
    return out


class TestZeroDimensionalCounts:
    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(min_value=1, max_value=2),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        st.integers(min_value=-4, max_value=4),
        st.booleans(),
    )
    @settings(max_examples=80)
    def test_one_pattern_matches_per_degree_patterns(self, p, r, low, a, square):
        f = tuple(low) + (1,)
        if square:
            # (x - a)^2 * f is not squarefree mod any p
            for _ in range(2):
                f = tuple(x - a * y for x, y in zip((0,) + f, f + (0,)))
        q = PrimePower(p, r)
        spec = VarietySpec(kind="zero_dimensional", zero_poly=f)
        want = per_degree_counts(f, q, 6)
        assert list(count_series(spec, q, 6).counts) == want
        assert [count_points(spec, q, n) for n in range(1, 7)] == want
        assert fp_degree_pattern(tuple(c % p for c in f), p) == pattern_from_scratch(
            tuple(c % p for c in f), p
        )
        both = VarietySpec(kind="product", left=spec, right=spec)
        assert list(count_series(both, q, 6).counts) == [c * c for c in want]


class TestEllipticCounts:
    # The elliptic counter counts #E(F_p) once and takes every other
    # count from the Frobenius polynomial; the plane cubic is enumerated
    # point by point over F_{q^n}.  About a third of the draws reduce to
    # a singular cubic (a node or a cusp), where the polynomial has
    # degree 1.  Every field has at most 81 elements.
    @given(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]),
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * 5),
        st.integers(min_value=1, max_value=6),
    )
    @example((5, 1), (0, 0, 0, 0, 5), 2)  # a cusp at 5
    @example((5, 1), (0, 1, 0, 0, 0), 2)  # y^2 = x^2 (x + 1): a split node
    @example((3, 1), (0, -1, 0, 0, 0), 4)  # y^2 = x^2 (x - 1): a non-split node
    @example((2, 2), (1, 0, 0, 0, 0), 3)  # y^2 + xy = x^3: a split node at 2
    @settings(max_examples=40, deadline=None)
    def test_matches_plane_cubic_enumeration(self, pr, a, degrees):
        p, r = pr
        q = PrimePower(p, r)
        degrees = min(degrees, max(n for n in range(1, 7) if q.q**n <= 81))
        want = [count_points(plane_cubic(a), q, n) for n in range(1, degrees + 1)]
        assert list(count_series(elliptic(a), q, degrees).counts) == want

    def test_known_counts_of_y2_x3_x(self):
        # #E(F_{p^n}) for y^2 = x^3 + x, n = 1..3, by enumeration of F_{p^n}
        known = {
            3: (4, 16, 28),
            5: (4, 32, 148),
            7: (8, 64, 344),
            11: (12, 144, 1332),
            13: (20, 160, 2180),
        }
        for p, counts in known.items():
            assert count_series(elliptic((0, 0, 0, 1, 0)), PrimePower(p), 3).counts == counts

    def test_one_power_sum_call_per_weight_factor(self, monkeypatch):
        # all m counts come from one power-sum call per weight factor
        # (the first call is the Frobenius polynomial's lift to F_q)
        calls = []
        real = counting.power_sums_inverse_roots
        monkeypatch.setattr(
            counting, "power_sums_inverse_roots", lambda P, m: calls.append(m) or real(P, m)
        )
        counts = count_series(elliptic((0, 0, 0, 1, 0)), PrimePower(13), 6).counts
        assert calls == [1, 6, 6, 6]
        assert counts == tuple(weierstrass_counts((0, 0, 0, 1, 0), PrimePower(13), 6))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_budget_below_p(self, p):
        with pytest.raises(BudgetError, match="budget"):
            count_points(elliptic((0, 0, 1, 1, 0)), PrimePower(p), 1, budget=p - 1)


def pade_weights(spec, q, betti, counts):
    """Weight factors by the route local_weights stands in for: counts
    from an independent reference, the rational zeta at the Betti
    degrees, and the gcd peel.  The library's counts must agree."""
    assert list(count_series(spec, q, sum(betti)).counts) == counts
    Z = zeta_rational(counts, betti)
    return tuple(f.poly for f in weight_factorize(Z, q, (len(betti) - 1) // 2, betti).factors)


def weierstrass_counts(a, q, m):
    """#E(F_{q^n}), n = 1..m: #E(F_p) = p + 1 - t by walking every (x, y),
    then q^n + 1 - s_{rn} with s_k = t s_{k-1} - p s_{k-2}, s_0 = 2."""
    a1, a2, a3, a4, a6 = a
    p = q.p
    affine = sum(
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        for x in range(p)
        for y in range(p)
    )
    t = p - affine
    s = [2, t]
    while len(s) <= q.r * m:
        s.append(t * s[-1] - p * s[-2])
    return [q.q**n + 1 - s[q.r * n] for n in range(1, m + 1)]


def discriminant(a):
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


PRIMES_TO_200 = [p for p in range(2, 201) if all(p % d for d in range(2, p))]


class TestLocalWeights:
    """The closed-form weight factors against the count -> Pade -> gcd
    peel route they replace in lfun."""

    @given(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30)
    def test_projective_space(self, d, p, r):
        q = PrimePower(p, r)
        weights = local_weights(VarietySpec(kind="projective_space", ambient_dim=d), q)
        betti = tuple(len(P) - 1 for P in weights)
        assert betti == (1, 0) * d + (1,)
        counts = [sum(q.q ** (n * i) for i in range(d + 1)) for n in range(1, d + 2)]
        spec = VarietySpec(kind="projective_space", ambient_dim=d)
        assert weights == pade_weights(spec, q, betti, counts)

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_zero_dimensional(self, p, r, low):
        f = tuple(low) + (1,)
        spec = VarietySpec(kind="zero_dimensional", zero_poly=f)
        q = PrimePower(p, r)
        (P,) = local_weights(spec, q)
        counts = per_degree_counts(f, q, len(P) - 1)
        assert (P,) == pade_weights(spec, q, (len(P) - 1,), counts)

    @given(
        st.sampled_from(PRIMES_TO_200),
        st.integers(min_value=1, max_value=2),
        st.tuples(*[st.integers(min_value=-20, max_value=20)] * 5),
    )
    @settings(max_examples=60)
    def test_elliptic_good_reduction(self, p, r, a):
        assume(discriminant(a) % p)
        q = PrimePower(p, r)
        weights = local_weights(elliptic(a), q)
        assert tuple(len(P) - 1 for P in weights) == (1, 2, 1)
        counts = weierstrass_counts(a, q, 4)
        assert weights == pade_weights(elliptic(a), q, (1, 2, 1), counts)

    def test_singular_reduction_keeps_the_degree_one_factor(self):
        # y^2 = x^3 + 5 has a cusp at 5 (a = 0), y^2 = x^2 (x + 1) a split
        # node at 5 (a = 1): the middle factor is 1 - a^r t
        assert local_weights(elliptic((0, 0, 0, 0, 5)), PrimePower(5, 2))[1] == (1,)
        assert local_weights(elliptic((0, 1, 0, 0, 0)), PrimePower(5, 2))[1] == (1, -1)

    @pytest.mark.parametrize(
        "text",
        [
            "projective 2; vars x,y,z; eq x^3 + y^3 + z^3",
            "affine 1; vars x; eq x^2 + 1",
            "product { projective 1; vars x,y } { zerodim x }",
        ],
    )
    def test_other_shapes_have_none(self, text):
        assert local_weights(parse_variety(text), PrimePower(3)) is None


def reference_count(spec, q, n):
    """#X(F_{q^n}) by tuple arithmetic: coefficient tuples multiplied by
    poly.mulmod and added digit by digit, every candidate evaluated
    term by term (the route the Zech-log tables replaced)."""
    field = make_extension_field(q, n)
    p, k = field.p, field.degree
    zero, one = (0,) * k, (1,) + (0,) * (k - 1)

    def value(poly, point):
        acc = zero
        for exps, c in poly.terms:
            term = (c % p,) + (0,) * (k - 1)
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = mulmod(term, x, field.modulus, p)
            acc = tuple((a + b) % p for a, b in zip(acc, term))
        return acc

    elems = list(itertools.product(range(p), repeat=k))
    nvars = spec.ambient_dim + (spec.ambient == "projective")
    if spec.ambient == "projective":
        points = [
            (zero,) * lead + (one,) + tail
            for lead in range(nvars)
            for tail in itertools.product(elems, repeat=nvars - lead - 1)
        ]
    else:
        points = itertools.product(elems, repeat=nvars)
    return sum(all(value(f, x) == zero for f in spec.equations) for x in points)


@st.composite
def small_systems(draw):
    """(p, r, n, ambient, nvars, equations) with r n <= 3 and at most 800
    candidates; coefficients include multiples of p, projective equations
    are homogeneous."""
    p = draw(st.sampled_from([2, 3, 5]))
    r, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]))
    Q = p ** (r * n)
    ambient = draw(st.sampled_from(["projective", "affine"]))
    projective = ambient == "projective"

    def candidates(v):
        return (Q**v - 1) // (Q - 1) if projective else Q**v

    nvars = draw(st.sampled_from([v for v in range(1, 4) if candidates(v) <= 800]))
    coeff = st.integers(min_value=-2 * p, max_value=2 * p).filter(bool)
    equations = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        if projective:
            d = draw(st.integers(min_value=0, max_value=3))
            monomials = [e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]
        else:
            monomials = list(itertools.product(range(4), repeat=nvars))
        chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
        equations.append(tuple((e, draw(coeff)) for e in chosen))
    return p, r, n, ambient, nvars, tuple(equations)


class TestTableCounter:
    @given(small_systems())
    @example((2, 1, 1, "projective", 3, ((((1, 1, 0), 1), ((0, 0, 2), 1)),)))  # F_2: Q - 1 = 1
    @example((3, 1, 1, "projective", 1, ((((2,), 3),),)))  # P^0, 3 x^2 = 0 mod 3
    @example((5, 1, 1, "projective", 1, ((((1,), 2),),)))  # P^0, one point, no zero
    @example((5, 1, 1, "affine", 1, ((((2,), 1), ((0,), -1)),)))  # x^2 - 1 over F_5
    @example((3, 2, 1, "affine", 2, ((((1, 1), 6), ((0, 1), 1)),)))  # 6xy + y: a 0 term
    @example((2, 1, 3, "affine", 1, ((((3,), 1), ((1,), 1)),)))  # x^3 + x over F_8
    # the fibres run over the last variable z = x_(nvars-1)
    @example((3, 1, 2, "projective", 3, ((((1, 1, 0), 1), ((2, 0, 0), 2)),)))  # no z: Q per fibre
    @example((5, 1, 1, "affine", 2, ((((0, 2), 1), ((0, 0), -1)),)))  # z^2 - 1 only
    @example((2, 2, 1, "affine", 1, ((((4,), 1), ((1,), 1)),)))  # z^4 + z over F_4: deg >= Q
    @example((2, 3, 1, "projective", 2, ((((2, 0), 1), ((0, 2), 1)),)))  # (x + z)^2 over F_8
    @example(  # (z - x)(z + 1) and (z - x) z share z - x
        (3, 1, 2, "affine", 2, (
            (((0, 2), 1), ((0, 1), 1), ((1, 1), -1), ((1, 0), -1)),
            (((0, 2), 1), ((1, 1), -1)),
        ))
    )
    @example((7, 1, 1, "projective", 1, ((((3,), 7),), (((3,), 1),))))  # P^0: 7x^3, x^3
    @settings(max_examples=100, deadline=None)
    def test_matches_tuple_arithmetic(self, system):
        p, r, n, ambient, nvars, equations = system
        names = [f"x{i}" for i in range(nvars)]
        spec = VarietySpec(
            kind="raw_system",
            ambient=ambient,
            ambient_dim=nvars - (ambient == "projective"),
            equations=tuple(Polynomial.from_dict(names, dict(eq)) for eq in equations),
        )
        q = PrimePower(p, r)
        assert count_points(spec, q, n) == reference_count(spec, q, n)

    @pytest.mark.parametrize(
        "text", ["affine 3; vars x,y,z; eq x+y+z", "projective 2; vars x,y,z; eq x^3+y^3+z^3"]
    )
    def test_budget_checked_before_tables(self, monkeypatch, text):
        def refuse(field):
            raise AssertionError("tables built before the budget check")

        monkeypatch.setattr(FiniteField, "log_tables", refuse)
        with pytest.raises(BudgetError, match="budget"):
            count_points(parse_variety(text), PrimePower(1009), 2, budget=10**6)

    @pytest.mark.parametrize("p, degrees", [(3, 4), (2, 6)])
    def test_plane_cubic_wall_clock(self, p, degrees):
        # F_3..F_81 and F_2..F_64 take about 0.006 s fibred over the last
        # variable, 0.015-0.023 s walking every point on Zech-log tables,
        # and 0.5-1.2 s by tuple arithmetic
        start = time.perf_counter()
        count_series(plane_cubic((1, -1, 1, 2, -3)), PrimePower(p), degrees)
        assert time.perf_counter() - start < 0.5

    def test_two_quadrics_in_p3_wall_clock(self):
        # x^2 + y^2 + zw = xy + z^2 - w^2 = 0 is smooth over F_3: det(sA + tB)
        # = -(s - t)(s + t)(s^2 + t^2) is square-free of degree 4, so X is a
        # genus-1 curve and its counts follow from N_1.  F_3..F_81 take
        # about 0.1 s as 6,644 fibres over F_81, against 1 s walking all
        # 538,084 points of P^3(F_81)
        X = parse_variety("projective 3; vars x,y,z,w; eq x^2 + y^2 + z*w; eq x*y + z^2 - w^2")
        start = time.perf_counter()
        counts = count_series(X, PrimePower(3), 4).counts
        assert time.perf_counter() - start < 0.5
        s = [2, 3 + 1 - counts[0]]  # power sums of Frobenius
        for _ in range(3):
            s.append(s[1] * s[-1] - 3 * s[-2])
        assert list(counts) == [3**n + 1 - s[n] for n in range(1, 5)]


class TestBudget:
    def test_budget_error(self):
        big = parse_variety("affine 3; vars x,y,z; eq x+y+z")
        with pytest.raises(BudgetError, match="budget"):
            count_points(big, PrimePower(1009), 2, budget=10**6)

    def test_series_reports_failing_degree(self):
        big = parse_variety("affine 3; vars x,y,z; eq x+y+z")
        with pytest.raises(BudgetError, match="degree"):
            count_series(big, PrimePower(101), 3, budget=10**6)

    def test_message_names_the_charged_unit(self):
        # an enumeration is charged the points of its ambient space, an
        # elliptic count its values of x, or its (x, y) pairs at p = 2
        cases = [
            ("affine 2; vars x,y; eq x+y", 101, f"{101**2} points of the affine ambient space"),
            ("projective 2; vars x,y,z; eq x+y+z", 101, f"{101**2 + 101 + 1} points of the projective ambient space"),
            ("elliptic a=[0,0,1,1,0]", 101, "101 values of x of the elliptic count"),
            ("elliptic a=[0,0,1,1,0]", 2, "4 (x, y) pairs of the elliptic count"),
        ]
        for text, p, charged in cases:
            with pytest.raises(BudgetError) as info:
                count_points(parse_variety(text), PrimePower(p), 1, budget=3)
            assert str(info.value) == f"{charged} exceed the budget of 3"


class TestCache:
    def test_roundtrip_and_extension(self, tmp_path):
        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        one = count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].endswith("-p7r1.json")
        data = json.loads((tmp_path / files[0]).read_text())
        assert set(data) == {"spec_hash", "q", "counts"}
        assert data["q"] == {"p": 7, "r": 1}
        two = count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        assert one == two
        three = count_series(v, PrimePower(7), 3, cache_dir=tmp_path)
        assert three.counts[:2] == one.counts

    def test_store_ignores_stale_temp_path(self, tmp_path):
        # a leftover <key>.tmp (here a directory) from another writer must
        # not break a store, and the store leaves no temp file behind
        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        key = f"{v.fingerprint()}-p7r1"
        (tmp_path / f"{key}.tmp").mkdir()
        counts = count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        assert sorted(os.listdir(tmp_path)) == [f"{key}.json", f"{key}.tmp"]
        assert count_series(v, PrimePower(7), 2, cache_dir=tmp_path) == counts

    def test_cache_needs_contiguous_degrees(self, tmp_path):
        # a file holding degrees other than exactly 1..k is a miss, and
        # the store that follows writes the true counts
        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        truth = count_series(v, PrimePower(7), 2)
        path = tmp_path / f"{v.fingerprint()}-p7r1.json"
        for counts in ({"1": 4, "2": 32, "7": 999}, {"2": 5}, {"0": 1, "1": 9, "2": 9}):
            payload = {"spec_hash": v.fingerprint(), "q": {"p": 7, "r": 1}, "counts": counts}
            path.write_text(json.dumps(payload))
            assert count_series(v, PrimePower(7), 2, cache_dir=tmp_path) == truth
            stored = json.loads(path.read_text())["counts"]
            assert stored == {"1": truth.counts[0], "2": truth.counts[1]}

    def test_cache_ignored_on_fingerprint_mismatch(self, tmp_path):
        v = parse_variety("projective 2; vars x,y,z; eq x^3+y^3+z^3")
        count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        path = tmp_path / os.listdir(tmp_path)[0]
        data = json.loads(path.read_text())
        data["spec_hash"] = "0" * 16
        path.write_text(json.dumps(data))
        fresh = count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        assert fresh.counts == (count_points(v, PrimePower(7), 1), count_points(v, PrimePower(7), 2))

    @pytest.mark.parametrize(
        "text, p",
        [
            pytest.param(text, p, id=text if p == 7 else f"{text} at p={p}")
            for text, p in [
                ("elliptic a=[0,0,0,1,0]", 7),
                ("elliptic a=[0,0,0,1,0]", 1009),
                ("projective 2; vars x,y,z", 7),
                ("zerodim x^2+1", 7),
                ("product { elliptic a=[0,0,0,1,0] } { zerodim x^2+1 }", 7),
                (
                    "product { projective 1; vars x,y } "
                    "{ product { zerodim x^3+2 } { projective 2; vars x,y,z } }",
                    7,
                ),
            ]
        ],
    )
    def test_closed_shapes_leave_no_file(self, tmp_path, text, p):
        # counts read off weight factors never touch the disk, and a
        # stale file for such a shape is not read either; that holds for
        # a Weierstrass curve at a large p too, where #E(F_p) walks p
        # values of x
        v = parse_variety(text)
        fresh = count_series(v, PrimePower(p), 3, cache_dir=tmp_path)
        assert os.listdir(tmp_path) == []
        payload = {"spec_hash": v.fingerprint(), "q": {"p": p, "r": 1}, "counts": {"1": 1, "2": 1, "3": 1}}
        (tmp_path / f"{v.fingerprint()}-p{p}r1.json").write_text(json.dumps(payload))
        assert count_series(v, PrimePower(p), 3, cache_dir=tmp_path) == fresh

    def test_product_with_a_counted_factor_writes_its_file(self, tmp_path):
        v = parse_variety("product { zerodim x^2+1 } { projective 2; vars x,y,z; eq x^3+y^3+z^3 }")
        one = count_series(v, PrimePower(7), 2, cache_dir=tmp_path)
        assert os.listdir(tmp_path) == [f"{v.fingerprint()}-p7r1.json"]
        data = json.loads((tmp_path / os.listdir(tmp_path)[0]).read_text())
        assert data["counts"] == {"1": one.counts[0], "2": one.counts[1]}
        assert count_series(v, PrimePower(7), 2, cache_dir=tmp_path) == one
