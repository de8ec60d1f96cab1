"""Zeta series from counts, rational reconstruction, weight
factorization, and the per-weight conjecture checkers."""

import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zetalab import zeta
from zetalab.arith import PrimePower
from zetalab.counting import VarietySpec, count_series, local_weights, parse_variety
from zetalab.poly import fp_squarefree_part, mul
from zetalab.series import RationalFunction, functional_witnesses, power_sums_inverse_roots
from zetalab.zeta import (
    HypothesisWarning,
    ReconstructionError,
    SeparationError,
    WeightDecomposition,
    WeightFactor,
    fiber_decomposition,
    hasse_weil_functional_check,
    l_adic_check,
    lefschetz_counts,
    ord_at,
    weight_factorize,
    weil_check,
    zeta_from_counts,
    zeta_rational,
)

from conftest import elliptic, plane_cubic


@pytest.fixture(scope="module")
def e5_decomposition():
    spec = parse_variety("elliptic a=[0,0,0,1,0]")
    Z = zeta_rational(count_series(spec, PrimePower(5), 4), betti=(1, 2, 1))
    return weight_factorize(Z, PrimePower(5), 1, (1, 2, 1))


@pytest.fixture(scope="module")
def p2_decomposition():
    spec = parse_variety("projective 2; vars x,y,z")
    Z = zeta_rational(count_series(spec, PrimePower(3), 3), betti=(1, 0, 1, 0, 1))
    return weight_factorize(Z, PrimePower(3), 2, (1, 0, 1, 0, 1))


class TestZetaSeries:
    def test_projective_line_series(self):
        assert zeta_from_counts([4, 10, 28]).coeffs == (F(1), F(4), F(13), F(40))

    def test_inert_point_series(self):
        assert zeta_from_counts([0, 2, 0, 2]).coeffs == (F(1), F(0), F(1), F(0), F(1))

    def test_empty_variety(self):
        assert zeta_from_counts([0, 0, 0]).coeffs == (F(1), F(0), F(0), F(0))

    def test_non_integer_coefficients_warn(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            zeta_from_counts([1, 0])
        assert any(issubclass(w.category, HypothesisWarning) for w in rec)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=2, max_value=5))
    @settings(max_examples=30)
    def test_point_sets_give_geometric_coefficients(self, npts, m):
        # N_n = npts constant: Z = 1/(1-t)^npts has integer coefficients
        series = zeta_from_counts([npts] * m)
        rf = RationalFunction((1,), [F(c) for c in _binomial_poly(npts)])
        assert series.coeffs == rf.expand(m).coeffs


def _binomial_poly(npts):
    out = (1,)
    for _ in range(npts):
        out = mul(out, (1, -1))
    return out


class TestZetaRational:
    def test_elliptic_over_f5(self):
        spec = parse_variety("elliptic a=[0,0,0,1,0]")
        Z = zeta_rational(count_series(spec, PrimePower(5), 6), betti=(1, 2, 1))
        assert Z.num == (F(1), F(-2), F(5))
        assert Z.den == (F(1), F(-6), F(5))

    def test_projective_plane(self):
        spec = parse_variety("projective 2; vars x,y,z")
        Z = zeta_rational(count_series(spec, PrimePower(3), 6), betti=(1, 0, 1, 0, 1))
        den = mul(mul((1, -1), (1, -3)), (1, -9))
        assert Z.num == (F(1),)
        assert Z.den == tuple(F(c) for c in den)

    def test_degree_scan_without_betti(self):
        spec = parse_variety("zerodim x^2+1")
        Z = zeta_rational(count_series(spec, PrimePower(3), 6))
        assert Z.num == (F(1),) and Z.den == (F(1), F(0), F(-1))

    def test_degree_scan_runs_to_the_number_of_counts(self):
        # P^24 over F_2 has total degree 25, one past the extension-field
        # cap: 25 counts, as a count file written under a larger cap
        # holds, find it, since the scan stops at the counts it gets
        counts = [sum(2 ** (i * n) for i in range(25)) for n in range(1, 26)]
        den = (1,)
        for i in range(25):
            den = mul(den, (1, -(2**i)))
        Z = zeta_rational(counts)
        assert Z.num == (1,) and Z.den == den

    def test_insufficient_counts(self):
        with pytest.raises(ReconstructionError, match="[Ii]nsufficient"):
            zeta_rational([4, 32], betti=(1, 2, 1))

    def test_mismatched_counts(self):
        with pytest.raises(ReconstructionError), warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisWarning)
            zeta_rational([4, 32, 148, 640, 2, 2], betti=(1, 2, 1))


class TestWeightFactorization:
    def test_elliptic_factors(self, e5_decomposition):
        dec = e5_decomposition
        assert dec.factor(0).poly == (1, -1)
        assert dec.factor(1).poly == (1, -2, 5)
        assert dec.factor(2).poly == (1, -5)
        assert dec.euler_characteristic == 0
        assert dec.betti == (1, 2, 1)

    def test_projective_plane_ladder(self, p2_decomposition):
        dec = p2_decomposition
        assert dec.factor(0).poly == (1, -1)
        assert dec.factor(2).poly == (1, -3)
        assert dec.factor(4).poly == (1, -9)

    def test_zero_dimensional_whole_even_side(self):
        spec = parse_variety("zerodim x^2+1")
        Z = zeta_rational(count_series(spec, PrimePower(3), 4))
        dec = weight_factorize(Z, PrimePower(3), 0, (2,))
        assert dec.factor(0).poly == (1, 0, -1)

    def test_lefschetz_roundtrip(self, e5_decomposition, p2_decomposition):
        assert lefschetz_counts(e5_decomposition, 4) == [4, 32, 148, 640]
        assert lefschetz_counts(p2_decomposition, 3) == [13, 91, 757]

    @given(st.integers(min_value=-4, max_value=4), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=30, deadline=None)
    def test_synthetic_curve_roundtrip(self, a, p):
        # 1 - at + pt^2 is a valid weight-1 factor iff |a| <= 2 sqrt(p)
        if a * a > 4 * p:
            return
        num = (1, -a, p)
        den = mul((1, -1), (1, -p))
        Z = RationalFunction(num, den, reduce=False)
        dec = weight_factorize(Z, PrimePower(p), 1, (1, 2, 1))
        counts = lefschetz_counts(dec, 4)
        assert zeta_rational(counts, betti=(1, 2, 1)) == Z


def _weil_piece(q, w):
    """A factor with constant term 1 whose inverse roots all have modulus
    q^{w/2}: 1 - a t + q^w t^2 with a^2 <= 4 q^w (non-ladder roots such
    as +-i q^{w/2} included), 1 - q^w t^2, and for even w the ladder
    factors 1 -+ q^{w/2} t."""
    bound = math.isqrt(4 * q**w)
    pieces = [
        st.integers(-bound, bound).map(lambda a: (1, -a, q**w)),
        st.just((1, 0, -(q**w))),
    ]
    if w % 2 == 0:
        pieces.append(st.sampled_from([(1, -(q ** (w // 2))), (1, q ** (w // 2))]))
    return st.one_of(pieces)


@st.composite
def _weil_sides(draw):
    """(q, {w: factor}) with weights 1 and 3 in the numerator and two or
    three of 0, 2, 4 in the denominator, some factors repeated."""
    q = draw(st.sampled_from([PrimePower(2), PrimePower(3), PrimePower(2, 2), PrimePower(5), PrimePower(7)]))
    weights = (1, 3) + draw(st.sampled_from([(0, 2), (0, 4), (2, 4), (0, 2, 4)]))
    factors = {}
    for w in weights:
        pieces = draw(st.lists(_weil_piece(q.q, w), min_size=1, max_size=3))
        pieces += pieces[: draw(st.integers(0, 1))]
        f = (1,)
        for piece in pieces:
            f = mul(f, piece)
        factors[w] = f
    return q, factors


def _assemble(factors):
    """Z with odd-weight factors above and even-weight ones below, and
    the Betti numbers of weights 0..4."""
    num = den = (1,)
    for w, f in factors.items():
        if w % 2:
            num = mul(num, f)
        else:
            den = mul(den, f)
    betti = [len(factors.get(w, (1,))) - 1 for w in range(5)]
    return RationalFunction(num, den, reduce=False), betti


class TestExactSeparation:
    @given(_weil_sides())
    @settings(max_examples=150)
    def test_returns_the_factors_it_was_built_from(self, drawn):
        q, factors = drawn
        Z, betti = _assemble(factors)
        dec = weight_factorize(Z, q, 2, betti)
        assert [f.poly for f in dec.factors] == [factors.get(w, (1,)) for w in range(5)]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projective_space_ladders(self, n, q):
        den = (1,)
        for k in range(n + 1):
            den = mul(den, (1, -(q**k)))
        betti = tuple(1 - w % 2 for w in range(2 * n + 1))
        dec = weight_factorize(RationalFunction((1,), den), PrimePower(q), n, betti)
        assert [f.poly for f in dec.factors] == [
            (1, -(q ** (w // 2))) if w % 2 == 0 else (1,) for w in range(2 * n + 1)
        ]

    @given(_weil_sides(), st.data())
    @settings(max_examples=100)
    def test_root_off_its_circle_raises(self, drawn, data):
        q, factors = drawn
        w = data.draw(st.sampled_from(sorted(factors)))
        Q = q.q**w
        bound = math.isqrt(4 * Q)
        bad = data.draw(
            st.one_of(
                # a real pair x * x' = Q off the circle: the mirror gcd keeps
                # it, only the circle certificate rejects it
                st.integers(bound + 1, bound + 50).map(lambda a: (1, -a, Q)),
                # modulus (Q + 1)^{1/2}: the mirror gcd leaves it behind
                st.integers(-bound, bound).map(lambda a: (1, -a, Q + 1)),
            )
        )
        factors[w] = mul(factors[w], bad)
        Z, betti = _assemble(factors)
        with pytest.raises(SeparationError):
            weight_factorize(Z, q, 2, betti)

    @given(_weil_sides(), st.data())
    @settings(max_examples=100)
    def test_betti_off_by_one_raises(self, drawn, data):
        q, factors = drawn
        Z, betti = _assemble(factors)
        src = data.draw(st.sampled_from(sorted(factors)))
        dst = data.draw(st.sampled_from([w for w in factors if w != src and w % 2 == src % 2]))
        assume(betti[src] >= 2)
        betti[src] -= 1
        betti[dst] += 1
        with pytest.raises(SeparationError):
            weight_factorize(Z, q, 2, betti)


class TestWeilCheck:
    def test_elliptic_passes_tightly(self, e5_decomposition):
        checks = weil_check(e5_decomposition)
        assert all(c.verdict == "PASS" for c in checks)
        w1 = next(c for c in checks if c.name == "weil.weight1")
        assert w1.data["max_rel_deviation"] < 1e-30

    def test_synthetic_violator_fails(self):
        bad = WeightDecomposition(
            d=1,
            q=PrimePower(5),
            factors=(
                WeightFactor(0, (1, -1)),
                WeightFactor(1, (1, -6)),
                WeightFactor(2, (1, -5)),
            ),
        )
        checks = weil_check(bad)
        w1 = next(c for c in checks if c.name == "weil.weight1")
        assert w1.verdict == "FAIL"
        assert "max_rel_deviation" in w1.data


class TestLAdicCheck:
    def test_elliptic_passes(self, e5_decomposition):
        checks = l_adic_check(e5_decomposition)
        assert all(c.verdict == "PASS" for c in checks)
        w1 = next(c for c in checks if c.name == "ladic.weight1")
        assert w1.data["constant_term"] == 5

    def test_constant_with_foreign_prime_fails(self):
        bad = WeightDecomposition(
            d=1,
            q=PrimePower(5),
            factors=(
                WeightFactor(0, (1, -1)),
                WeightFactor(1, (1, -1, 6)),
                WeightFactor(2, (1, -5)),
            ),
        )
        checks = l_adic_check(bad)
        w1 = next(c for c in checks if c.name == "ladic.weight1")
        assert w1.verdict == "FAIL"
        assert not w1.data["prime_support_only_p"]


def _curve(q, middle, top):
    return WeightDecomposition(
        d=1,
        q=q,
        factors=(WeightFactor(0, (1, -1)), WeightFactor(1, middle), WeightFactor(2, top)),
    )


def _q_mirror(P, Qd):
    """The factor whose inverse roots are Qd / (those of P)."""
    lead = P[-1]
    return tuple((P[-1 - j] * Qd**j) // lead for j in range(len(P)))


@st.composite
def _dual_decompositions(draw):
    """P_(2d-w) the q^d-mirror of P_w, and a self-dual middle factor."""
    q = PrimePower(*draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (5, 2)])))
    d = draw(st.integers(min_value=1, max_value=2))
    Qd = q.q**d
    factors = [(1,)] * (2 * d + 1)
    for w in range(d):
        beta = draw(st.integers(min_value=0, max_value=2))
        if beta:
            # a leading coefficient +-q^m with m <= d keeps the mirror integral
            lead = draw(st.sampled_from([1, -1])) * q.q ** draw(st.integers(min_value=0, max_value=d))
            inner = draw(st.lists(st.integers(-4, 4), min_size=beta - 1, max_size=beta - 1))
            factors[w] = (1, *inner, lead)
            factors[2 * d - w] = _q_mirror(factors[w], Qd)
    middle = (1,)
    for a in draw(st.lists(st.integers(-6, 6), max_size=2)):
        middle = mul(middle, (1, a, Qd))  # self-dual: inverse roots mu, Qd/mu
    root = math.isqrt(Qd)
    if root * root == Qd:
        middle = mul(middle, draw(st.sampled_from([(1,), (1, root), (1, -root)])))
    factors[d] = middle
    return WeightDecomposition(
        d=d, q=q, factors=tuple(WeightFactor(w, P) for w, P in enumerate(factors))
    )


def _perturbed(dec, data):
    """dec with one coefficient past the constant term moved by +-1."""
    weights = [f.w for f in dec.factors if f.beta]
    assume(weights)
    w = data.draw(st.sampled_from(weights))
    P = list(dec.factors[w].poly)
    k = data.draw(st.integers(min_value=1, max_value=len(P) - 1))
    P[k] += data.draw(st.sampled_from([1, -1]))
    assume(P[-1] != 0)
    factors = list(dec.factors)
    factors[w] = WeightFactor(w, tuple(P))
    return WeightDecomposition(d=dec.d, q=dec.q, factors=tuple(factors))


class TestFunctionalEquation:
    def test_signs(self, e5_decomposition, p2_decomposition):
        fc_p2 = hasse_weil_functional_check(p2_decomposition)
        assert fc_p2.verdict == "PASS" and fc_p2.data["sign"] == -1
        fc_e = hasse_weil_functional_check(e5_decomposition)
        assert fc_e.verdict == "PASS" and fc_e.data["sign"] == 1

    def test_projective_line_sign(self):
        spec = parse_variety("projective 1; vars x,y")
        Z = zeta_rational(count_series(spec, PrimePower(3), 4), betti=(1, 0, 1))
        dec = weight_factorize(Z, PrimePower(3), 1, (1, 0, 1))
        fc = hasse_weil_functional_check(dec)
        assert fc.verdict == "PASS" and fc.data["sign"] == 1

    def test_wrong_mirror_fails_at_k1(self):
        # P_2 = 1 - 25t is not the q-mirror 1 - 5t of P_0 = 1 - t over F_5:
        # N M_2(D) = (1 - 2x + 5x^2)(25 - 130x + 25x^2) against
        # 5 M_2(N) D = 5 (5 - 10x + 25x^2)(1 - 26x + 25x^2)
        fc = hasse_weil_functional_check(_curve(PrimePower(5), (1, -2, 5), (1, -25)))
        assert fc.verdict == "FAIL" and fc.data["sign"] is None
        assert fc.data["witnesses"][0] == {"k": 1, "lhs": "-180", "rhs": "-700"}
        sampled = [w for w in fc.data["witnesses"] if "s" in w]
        assert len(sampled) == 3 and all(set(w) == {"s", "lhs", "rhs"} for w in sampled)

    @pytest.mark.parametrize("middle, sign", [((1, -5), -1), ((1, 5), 1)])
    def test_odd_chi_d_sign(self, middle, sign):
        # chi d = 1 over F_25: C = sign 25^(-1/2) is rational and its sign
        # is the sign of C Q^chi = D_2 / N_1 = 25 / (-5) or 25 / 5
        fc = hasse_weil_functional_check(_curve(PrimePower(5, 2), middle, (1, -25)))
        assert fc.verdict == "PASS" and fc.data["sign"] == sign
        assert fc.data["witnesses"] == []

    def test_odd_chi_d_off_identity_fails_quietly(self):
        # chi d = 1 over F_5: C Q^chi = 5 / (-2) = -5/2 and the identity
        # breaks at x^1; no square root of 5 is ever taken
        fc = hasse_weil_functional_check(_curve(PrimePower(5), (1, -2), (1, -5)))
        assert fc.verdict == "FAIL" and fc.data["sign"] is None
        assert fc.data["witnesses"][0] == {"k": 1, "lhs": "-40", "rhs": "-85/2"}

    @given(_dual_decompositions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_verdict_matches_samples(self, dec, data):
        # a dual decomposition satisfies Weil's identity; one perturbed
        # coefficient (usually) breaks it, and the kept sampler agrees
        # with the exact verdict either way
        fc = hasse_weil_functional_check(dec)
        assert fc.verdict == "PASS" and fc.data["sign"] in (1, -1)
        CQ, bad = functional_witnesses(dec.to_rational(), dec.q.q**dec.d, dec.euler_characteristic)
        assert bad == [] and CQ * CQ == F(dec.q.q) ** (dec.euler_characteristic * dec.d)
        for bent in (dec, _perturbed(dec, data)):
            fc = hasse_weil_functional_check(bent)
            exact = not any("k" in w for w in fc.data["witnesses"])
            sampled = not any("s" in w for w in fc.data["witnesses"])
            assert (fc.verdict == "PASS") == exact == sampled


@pytest.fixture(scope="module")
def p1_zeta():
    spec = parse_variety("projective 1; vars x,y")
    return zeta_rational(count_series(spec, PrimePower(3), 4), betti=(1, 0, 1))


class TestOrdAt:
    def test_simple_poles(self, p1_zeta):
        assert ord_at(p1_zeta, PrimePower(3), 1) == -1
        assert ord_at(p1_zeta, PrimePower(3), 0) == -1

    def test_half_integer_numeric_fallback(self, p1_zeta):
        assert ord_at(p1_zeta, PrimePower(3), F(1, 2)) == 0

    def test_half_integer_exact_over_square_base(self):
        spec = parse_variety("projective 1; vars x,y")
        q = PrimePower(3, 2)
        Z = zeta_rational(count_series(spec, q, 4), betti=(1, 0, 1))
        assert ord_at(Z, q, F(1, 2)) == 0
        assert ord_at(Z, q, 1) == -1

    def test_float_near_integer_is_not_exact(self):
        # 1e-7 must not snap to 0, where 1/(1 - t) has its pole
        assert ord_at(RationalFunction((1,), (1, -1)), PrimePower(3), 1e-7) == 0
        assert ord_at(RationalFunction((1,), (1, -1)), PrimePower(3), 0.0) == -1

    def test_indeterminate_band(self):
        Z = RationalFunction((1, -3), (1, -2))
        assert ord_at(Z, PrimePower(3), 1.005) == 0


def _discriminant(a):
    a1, a2, a3, a4, a6 = a
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _tensor(P, Q):
    """P (x) Q, whose inverse roots are the products of P's and Q's: its
    power sums are tr_n(P) tr_n(Q), and Newton's identities
    k c_k = -sum_{i<=k} tr_i c_{k-i} give its coefficients back."""
    m = (len(P) - 1) * (len(Q) - 1)
    traces = [a * b for a, b in zip(power_sums_inverse_roots(P, m), power_sums_inverse_roots(Q, m))]
    c = [F(1)]
    for k in range(1, m + 1):
        c.append(-sum(traces[i - 1] * c[k - i] for i in range(1, k + 1)) / k)
    assert all(x.denominator == 1 for x in c)
    return tuple(int(x) for x in c)


def _kunneth(left, right):
    """Weight factors of a product: P_w = prod over i + j = w of L_i (x) R_j."""
    out = [(1,)] * (len(left) + len(right) - 1)
    for i, L in enumerate(left):
        for j, R in enumerate(right):
            out[i + j] = mul(out[i + j], _tensor(L, R))
    return tuple(out)


_CLOSED_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=2).map(
        lambda d: VarietySpec(kind="projective_space", ambient_dim=d)
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).map(
        lambda c: VarietySpec(kind="zero_dimensional", zero_poly=tuple(c) + (1,))
    ),
    st.tuples(*[st.integers(min_value=-2, max_value=2)] * 5).map(elliptic),
)


def _good_reduction(leaf, p):
    if leaf.kind == "zero_dimensional":  # square-free mod p
        return len(fp_squarefree_part(leaf.zero_poly, p)) == len(leaf.zero_poly)
    return leaf.kind != "elliptic_curve" or _discriminant(leaf.a_invariants) % p != 0


class TestFiberDecomposition:
    # An elliptic curve's factors are read off its closed form (one count
    # of #E(F_p)); its homogenised plane cubic has none, so it is
    # enumerated over F_(q^n), reconstructed by Pade and separated.  The
    # two routes share no code, so each checks the other.
    @given(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]),
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * 5),
    )
    @example((7, 1), (0, 0, 0, 1, 0))
    @settings(max_examples=40)
    def test_closed_form_matches_plane_cubic(self, pr, a):
        q = PrimePower(*pr)
        assume(_discriminant(a) % q.p != 0)
        closed = fiber_decomposition(elliptic(a), q, (1, 2, 1))
        assert fiber_decomposition(plane_cubic(a), q, (1, 2, 1)) == closed

    # A product of two closed leaves has no closed form of its own: its
    # counts are the products of the leaves' counts, and it is
    # reconstructed by Pade and separated.  Its factors must be the
    # Kunneth products of the leaves' closed forms.
    @given(_CLOSED_LEAVES, _CLOSED_LEAVES, st.sampled_from([3, 5, 7]))
    @settings(max_examples=50)
    def test_product_of_closed_leaves_is_kunneth(self, left, right, p):
        assume(_good_reduction(left, p) and _good_reduction(right, p))
        q = PrimePower(p)
        expected = _kunneth(local_weights(left, q), local_weights(right, q))
        betti = tuple(len(P) - 1 for P in expected)
        product = VarietySpec(kind="product", left=left, right=right)
        dec = fiber_decomposition(product, q, betti)
        assert tuple(f.poly for f in dec.factors) == expected

    def test_closed_form_ignores_degrees(self, e5_decomposition):
        # too few counts for the Betti degrees, but nothing is counted
        e5 = parse_variety("elliptic a=[0,0,0,1,0]")
        assert fiber_decomposition(e5, PrimePower(5), (1, 2, 1), degrees=2) == e5_decomposition
        with pytest.raises(ReconstructionError, match="insufficient counts"):
            fiber_decomposition(plane_cubic((0, 0, 0, 1, 0)), PrimePower(5), (1, 2, 1), degrees=2)

    def test_betti_must_match_either_route(self):
        q = PrimePower(5)
        with pytest.raises(SeparationError, match="against betti"):
            fiber_decomposition(elliptic((0, 0, 0, 1, 0)), q, (1, 1, 1))
        with pytest.raises(SeparationError):
            fiber_decomposition(plane_cubic((0, 0, 0, 1, 0)), q, (1, 0, 1))
        # a cusp at 5: the closed form has no weight-1 factor
        with pytest.raises(SeparationError, match=r"\(1, 0, 1\) against betti \(1, 2, 1\)"):
            fiber_decomposition(elliptic((0, 0, 0, 0, 5)), q, (1, 2, 1))

    def test_replacement_fibers_are_polar(self, monkeypatch):
        # betti None: a counted fiber's zeta must be polar, a closed form
        # with one weight is taken as it is, and a closed form of positive
        # dimension is refused, neither of them counted
        q = PrimePower(2)
        counted = parse_variety("affine 1; vars x; eq x^3 + x + 1")
        dec = fiber_decomposition(counted, q, None, degrees=4)
        assert [f.poly for f in dec.factors] == [(1, 0, 0, -1)]
        monkeypatch.setattr(zeta, "count_series", lambda *a, **k: pytest.fail("counted"))
        dec = fiber_decomposition(parse_variety("zerodim x^2 + x + 1"), q, None, degrees=4)
        assert [f.poly for f in dec.factors] == [(1, 0, -1)]
        for text in ("projective 1; vars x, y", "elliptic a=[0,0,1,0,0]"):
            with pytest.raises(ValueError, match="polar zeta"):
                fiber_decomposition(parse_variety(text), q, None, degrees=4)
