"""Exact power-series and rational-function arithmetic, rational
reconstruction, determinant expansions, root clustering, linear algebra
over Q, and the functional-equation sampler against its 30-digit
reference."""

import math
import warnings
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.series import (
    PowerSeries,
    RationalFunction,
    RootFindingError,
    SAMPLE_DPS,
    det_identity_minus_t,
    functional_samples,
    functional_witnesses,
    log_det_series,
    log_series,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    polynomial_roots,
    power_sums_inverse_roots,
    rational_reconstruct,
    roots_on_circle,
)
from zetalab import poly
from zetalab.poly import deg, evaluate, mul, squarefree
from zetalab.zeta import HypothesisWarning, zeta_from_counts

from conftest import int_exactly_when_integral

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def exp_of(log):
    """exp of a series with zero constant term, by Newton's recurrence in
    zeta.zeta_from_counts: the counts are N_n = n log_n."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisWarning)
        return zeta_from_counts([n * log.coeffs[n] for n in range(1, log.order + 1)])


class TestExpLog:
    def test_exp_of_geometric_log(self):
        # exp(sum 4^n t^n / n) = 1/(1 - 4t)
        src = PowerSeries([F(0)] + [F(4**n, n) for n in range(1, 6)])
        assert exp_of(src).coeffs == tuple(F(4**n) for n in range(6))

    def test_log_inverts_exp(self):
        src = PowerSeries([F(0)] + [F(4**n, n) for n in range(1, 6)])
        assert log_series(exp_of(src)) == src

    def test_log_of_rational_expansion(self):
        rf = RationalFunction((1,), mul((1, -1), (1, -3)))
        lg = log_series(rf.expand(3))
        assert lg.coeffs == (F(0), F(4), F(5), F(28, 3))

    @given(st.lists(small_fractions, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_exp_log_roundtrip(self, tail):
        src = PowerSeries([F(0)] + tail)
        assert log_series(exp_of(src)) == src

    def test_exp_needs_a_count(self):
        # the counts are the log's terms from t^1 on, so the zero constant
        # term cannot be broken; an empty log has no order to expand to
        with pytest.raises(ValueError):
            zeta_from_counts([])


class TestDeterminants:
    def test_det_identity_minus_t(self):
        # companion of t^2 - 2t + 5: det(I - tM) = 1 - 2t + 5t^2
        assert det_identity_minus_t([[0, 1], [-5, 2]]) == (F(1), F(-2), F(5))
        assert det_identity_minus_t([[1, 0], [0, 3]]) == (F(1), F(-4), F(3))

    def test_log_det_matches_traces(self):
        ld = log_det_series([[2]], 3)
        assert ld.coeffs == (F(0), F(2), F(2), F(8, 3))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_log_det_equals_log_of_det(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        M = [
            [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
            for _ in range(n)
        ]
        order = 6
        direct = log_det_series(M, order)
        char = det_identity_minus_t(M)
        via_log = log_series(RationalFunction((1,), char).expand(order))
        assert direct.coeffs[: order + 1] == via_log.coeffs[: order + 1]


class TestPade:
    def test_recovers_rational(self):
        rf = RationalFunction((1,), mul((1, -1), (1, -3)))
        p = rational_reconstruct(rf.expand(4), (0, 2))
        assert p.num == (F(1),) and p.den == (F(1), F(-4), F(3))

    def test_minimal_data(self):
        zs = RationalFunction((1,), mul((1, -1), (1, -3))).expand(2)
        assert rational_reconstruct(zs, (0, 2)).den == (F(1), F(-4), F(3))

    def test_degenerate_degrees_still_verify(self):
        ser = RationalFunction((1,), (1, -1)).expand(6)
        p = rational_reconstruct(PowerSeries(ser.coeffs[:4]), (1, 2))
        assert p.expand(3).coeffs == ser.coeffs[:4]

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError, match="underdetermined"):
            rational_reconstruct(PowerSeries([1, 1]), (2, 2))

    def test_exp_series_pade_exists(self):
        eser = PowerSeries([F(1), F(1), F(1, 2), F(1, 6), F(1, 24), F(1, 120), F(1, 720)])
        assert rational_reconstruct(PowerSeries(eser.coeffs[:3]), (1, 1)) is not None
        assert rational_reconstruct(PowerSeries(eser.coeffs[:5]), (2, 2)) is not None

    def test_no_function_at_the_degrees_is_none(self):
        # 1/(1 - t)^2 matched to order 4 has no form with a linear denominator
        ser = RationalFunction((1,), mul((1, -1), (1, -1))).expand(4)
        assert rational_reconstruct(ser, (2, 1)) is None
        assert rational_reconstruct(ser, (0, 2)) == RationalFunction((1,), (1, -2, 1))

    def test_least_total_degree_without_degrees(self):
        # 1 + 2t + 3t^2 itself, (1 + t/2)/(1 - 3t/2) and 1/(1 - t)^2 all
        # have total degree 2: the smallest numerator wins the tie
        assert rational_reconstruct(PowerSeries([1, 2, 3])) == RationalFunction((1,), (1, -2, 1))
        ser = RationalFunction((1, 1), (1, -2)).expand(5)
        assert rational_reconstruct(ser) == RationalFunction((1, 1), (1, -2))

    @given(st.lists(small_fractions, min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_matches_every_coefficient(self, tail):
        ser = PowerSeries([1] + tail)
        R = rational_reconstruct(ser)
        assert len(R.num) + len(R.den) - 2 <= ser.order
        assert R.expand(ser.order) == ser


class TestPowerSums:
    def test_known_inverse_roots(self):
        # inverse roots 1 +- 2i of 1 - 2t + 5t^2
        ps = power_sums_inverse_roots((1, -2, 5), 4)
        assert ps == [F(2), F(-6), F(-22), F(-14)]

    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40)
    def test_linear_pair_newton_identities(self, a, b):
        # P = (1 - at)(1 - bt): power sums must be a^n + b^n
        P = mul((1, -a), (1, -b))
        ps = power_sums_inverse_roots(P, 5)
        assert ps == [F(a**n + b**n) for n in range(1, 6)]


def newton_power_sums_over_q(P, m):
    """The Newton recurrence on e_i = (-1)^i P_i over Fractions, as
    power_sums_inverse_roots computed it before it ran on integers."""
    deg = len(P) - 1
    e = [(-1) ** i * F(P[i]) if i <= deg else F(0) for i in range(m + 1)]
    p = [F(0)] * (m + 1)
    for n in range(1, m + 1):
        acc = (-1) ** (n - 1) * n * (e[n] if n <= deg else 0)
        for i in range(1, n):
            if i <= deg and e[i]:
                acc += (-1) ** (i - 1) * e[i] * p[n - i]
        p[n] = F(acc)
    return p[1:]


class TestPowerSumsAgainstFractionRecurrence:
    @given(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=6),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80)
    def test_integer_recurrence_matches(self, tail, m):
        P = (1,) + tuple(tail)
        got = power_sums_inverse_roots(P, m)
        assert all(isinstance(x, int) for x in got)
        assert got == newton_power_sums_over_q(P, m)

    @given(st.lists(small_fractions, min_size=1, max_size=5), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40)
    def test_rational_input_matches(self, tail, m):
        P = (F(1),) + tuple(tail)
        assert power_sums_inverse_roots(P, m) == newton_power_sums_over_q(P, m)


def numeric_on_circle(E, Q):
    """The verdict the Weil checks took before the exact certificate:
    every 50-digit root within 1e-9 (relative) of modulus Q^{1/2}."""
    with mpmath.workdps(60):
        target = mpmath.sqrt(Q)
        return all(
            abs(abs(x) - target) / target < mpmath.mpf("1e-9")
            for x, _ in polynomial_roots(E, 50)
        )


@st.composite
def weil_candidates(draw):
    """(E, Q): E has the inverse roots of a product of 1 - a t + Q t^2,
    repeated factors, 1 -+ Q^{1/2} t and 1 - Q t^2, with Q = q^w square
    or not; a third of the draws are perturbed.  Palindromic non-Weil
    factors come from a^2 > 4Q and from 1 + (2Q + c) t^2 + Q^2 t^4, whose
    trace polynomial y^2 + c has complex roots for c > 0."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    Q = q ** draw(st.integers(min_value=0, max_value=3))
    P = (1,)
    bound = math.isqrt(4 * Q)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a = draw(st.integers(min_value=-bound - 2, max_value=bound + 2))
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            P = mul(P, (1, -a, Q))
    if draw(st.booleans()):
        c = draw(st.integers(min_value=-2, max_value=3))
        P = mul(P, (1, 0, 2 * Q + c, 0, Q * Q))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        P = mul(P, (1, 0, -Q))
    root = math.isqrt(Q)
    if root * root == Q:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            P = mul(P, (1, draw(st.sampled_from([root, -root]))))
    if len(P) == 1:
        P = (1, -root) if root * root == Q else (1, 0, -Q)
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        P = list(P)
        i = draw(st.integers(min_value=1, max_value=len(P) - 1))
        P[i] += draw(st.sampled_from([-2, -1, 1, 2]))
        P = tuple(P)
    E = tuple(reversed(P))
    while E and E[-1] == 0:
        E = E[:-1]
    return E, Q


class TestRootsOnCircle:
    def test_examples(self):
        assert roots_on_circle((5, -2, 1), 5)  # 1 +- 2i
        assert not roots_on_circle((6, -2, 1), 5)
        assert roots_on_circle((-5, 1), 25) and roots_on_circle((-5, 0, 1), 5)
        assert not roots_on_circle((-6, 1), 5)
        assert roots_on_circle((1, 1, 1, 1), 1)  # -1, +-i
        assert not roots_on_circle((2, 1, 1), 1)
        assert not roots_on_circle((0, 0, 1), 1)  # 0 is a double root

    @given(weil_candidates())
    @settings(max_examples=300)
    def test_exact_verdict_matches_numeric(self, case):
        E, Q = case
        if len(E) < 2:
            return
        assert roots_on_circle(E, Q) == numeric_on_circle(E, Q)


def rref_over_q(rows):
    """Gauss-Jordan over Fractions: the reference for mat_rref."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


class TestBareissRref:
    @given(st.data())
    @settings(max_examples=150)
    def test_matches_gauss_jordan_over_q(self, data):
        nrows = data.draw(st.integers(min_value=1, max_value=6))
        ncols = data.draw(st.integers(min_value=1, max_value=7))
        rank = data.draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        left = [[data.draw(entry) for _ in range(rank)] for _ in range(nrows)]
        right = [[data.draw(entry) for _ in range(ncols)] for _ in range(rank)]
        A = [
            [sum((left[i][k] * right[k][j] for k in range(rank)), F(0)) for j in range(ncols)]
            for i in range(nrows)
        ]
        assert mat_rref(A) == rref_over_q(A)


class TestRootClustering:
    def test_weight_one_moduli(self):
        roots = polynomial_roots((1, -2, 5), precision=50)
        assert sum(m for _, m in roots) == 2
        with mpmath.workdps(60):
            target = 1 / mpmath.sqrt(5)
            for x, _ in roots:
                assert abs(abs(x) - target) < mpmath.mpf(10) ** -45

    def test_conjugate_pair_symmetry(self):
        roots = polynomial_roots((1, -2, 5), precision=50)
        lo, hi = sorted((x for x, _ in roots), key=mpmath.im)
        assert mpmath.im(lo) + mpmath.im(hi) == 0
        assert mpmath.re(lo) == mpmath.re(hi)

    def test_triple_root(self):
        roots = polynomial_roots((1, -3, 3, -1), precision=50)
        assert len(roots) == 1 and roots[0][1] == 3
        assert abs(roots[0][0] - 1) < mpmath.mpf(10) ** -40

    def test_reconstruction(self):
        roots = polynomial_roots((1, -2, 5), precision=50)
        with mpmath.workdps(60):
            # prod (1 - t/root)^mult, multiplied out
            rebuilt = [mpmath.mpc(1)]
            for x, m in roots:
                for _ in range(m):
                    rebuilt = [
                        a - b / x for a, b in zip(rebuilt + [0], [0] + rebuilt)
                    ]
            for got, want in zip(rebuilt, (1, -2, 5)):
                assert abs(got - want) < mpmath.mpf(10) ** -25

    def test_squarefree_decomposition(self):
        poly = mul(mul((1, -1), (1, -1)), mul((1, -1), (1, -2)))
        degrees = {m: deg(p) for p, m in squarefree(poly)}
        assert degrees == {1: 1, 3: 1}


# Phi_n for n <= 12, low degree first
CYCLOTOMIC = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}


@st.composite
def known_factor(draw):
    """(coefficients, its roots as 80-digit mpc, how many are real):
    b x - a, x^2 - a x + q with a^2 - 4q of either sign, or Phi_n."""
    kind = draw(st.sampled_from(["linear", "quadratic", "cyclotomic"]))
    with mpmath.workdps(80):
        if kind == "linear":
            a = draw(st.integers(min_value=-6, max_value=6))
            b = draw(st.integers(min_value=1, max_value=4))
            return (-a, b), [mpmath.mpc(a) / b], 1
        if kind == "quadratic":
            a = draw(st.integers(min_value=-6, max_value=6))
            q = draw(st.integers(min_value=-5, max_value=9))
            disc = mpmath.sqrt(mpmath.mpc(a * a - 4 * q))
            return (q, -a, 1), [(a + disc) / 2, (a - disc) / 2], 2 * (a * a >= 4 * q)
        n = draw(st.integers(min_value=1, max_value=12))
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n) if math.gcd(k, n) == 1]
        return CYCLOTOMIC[n], roots, int(n <= 2)


@st.composite
def known_products(draw):
    """(P, [(root, multiplicity)], real root count): a product of one to
    three known factors, each to the power 1..3, times an optional x^k."""
    P, expected, real = (1,), [], 0
    for coeffs, roots, nreal in draw(st.lists(known_factor(), min_size=1, max_size=3)):
        mult = draw(st.integers(min_value=1, max_value=3))
        for _ in range(mult):
            P = mul(P, coeffs)
        expected += [(r, mult) for r in roots]
        real += nreal * mult
    k = draw(st.integers(min_value=0, max_value=2))
    if k:
        P = (0,) * k + P
        expected.append((mpmath.mpc(0), k))
        real += k
    return P, expected, real


def assert_part_order(block):
    """Real roots first and ascending, then conjugate pairs, upper root first."""
    reals = [x for x in block if x.imag == 0]
    assert block[: len(reals)] == reals
    assert reals == sorted(reals, key=lambda x: x.real)
    pairs = block[len(reals):]
    assert len(pairs) % 2 == 0
    with mpmath.workdps(80):  # conj rounds to the working precision
        for upper, lower in zip(pairs[::2], pairs[1::2]):
            assert upper.imag > 0 and lower == mpmath.conj(upper)


class TestPolynomialRoots:
    @given(known_products())
    @settings(max_examples=150)
    def test_known_factorizations(self, case):
        P, expected, real = case
        for precision in (16, 50):
            roots = polynomial_roots(P, precision)
            assert sum(m for _, m in roots) == len(P) - 1
            tol = mpmath.mpf(10) ** -(precision - 5)
            with mpmath.workdps(80):
                for x, m in roots:
                    # every root sits on a constructed root, with its multiplicity
                    assert sum(e for r, e in expected if abs(x - r) < tol) == m
                # the multiset is exactly closed under conjugation
                assert sorted((x.real, x.imag, m) for x, m in roots) == sorted(
                    (x.real, -x.imag, m) for x, m in roots
                )
            assert sum(m for x, m in roots if x.imag == 0) == real
            if P[0] == 0:
                x, _ = roots.pop(0)
                assert x == 0
            # one square-free part per multiplicity, each in one run
            runs = [m for i, (_, m) in enumerate(roots) if i == 0 or roots[i - 1][1] != m]
            assert len(runs) == len(set(runs))
            for mult in runs:
                assert_part_order([x for x, m in roots if m == mult])

    @pytest.mark.parametrize("precision", [16, 50])
    def test_close_real_roots(self, precision):
        # square-free, with two real roots 1e-5 apart: mpmath's default
        # extra precision does not converge on it at 16 digits
        P = (9, -54, 57, 18, 214, -6, -39, -202, -87, 33, 73, 57, -9, -15, -9)
        roots = polynomial_roots(P, precision)
        assert len(roots) == 14 and all(m == 1 for _, m in roots)
        assert_part_order([x for x, _ in roots])

    def test_no_convergence_is_a_root_finding_error(self, monkeypatch):
        def stuck(*args, **kwargs):
            raise mpmath.mp.NoConvergence("no convergence")

        monkeypatch.setattr(mpmath, "polyroots", stuck)
        with pytest.raises(RootFindingError):
            polynomial_roots((1, 0, 1), 16)


class TestLinearAlgebra:
    def test_rank_and_nullspace(self):
        A = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert mat_rank(A) == 2
        ns = mat_nullspace(A)
        assert len(ns) == 1
        for row in A:
            assert sum(F(a) * b for a, b in zip(row, ns[0])) == 0

    @given(st.data())
    @settings(max_examples=40)
    def test_rank_nullity(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        A = [
            [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
            for _ in range(n)
        ]
        assert mat_rank(A) + len(mat_nullspace(A)) == n

    def test_mat_mul(self):
        assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [
            [F(2), F(1)],
            [F(4), F(3)],
        ]


class TestRationalFunction:
    def test_normalized_and_reduced(self):
        rf = RationalFunction((2, -2), (2, -8, 6))
        assert rf.num == (1,)
        assert rf.den == (1, -3)

    def test_eval_matches_expand(self):
        rf = RationalFunction((1, 1), (1, -2))
        x = F(1, 5)
        series_val = sum(c * x**k for k, c in enumerate(rf.expand(30).coeffs))
        assert abs(rf.eval(x) - series_val) < F(1, 10**10)

    def test_substitute_scaled(self):
        rf = RationalFunction((1,), (1, -3))
        assert rf.substitute_scaled(F(1, 3)) == RationalFunction((1,), (1, -1))

    def test_reciprocal_and_product(self):
        rf = RationalFunction((1, -1), (1, -3))
        assert rf * rf.reciprocal() == RationalFunction.one()

    def test_poly_eval_exact(self):
        assert evaluate((1, -2, 5), F(1, 2)) == F(5, 4)


def _expand_over_q(num, den, M):
    """Taylor coefficients of num/den to order M, in Fractions."""
    inv = [F(1, den[0])] + [F(0)] * M
    for n in range(1, M + 1):
        inv[n] = -sum(F(den[k]) * inv[n - k] for k in range(1, min(n, len(den) - 1) + 1)) / den[0]
    return [
        sum(F(num[i]) * inv[n - i] for i in range(min(n, len(num) - 1) + 1)) for n in range(M + 1)
    ]


class TestCoefficientTypes:
    # series decides a coefficient's type: an int when integral, a
    # Fraction otherwise, however the input was spelled
    @given(st.lists(small_fractions, min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_power_series(self, coeffs):
        as_fractions = PowerSeries([F(c) for c in coeffs])
        spelled = [int(c) if c.denominator == 1 else c for c in coeffs]
        as_ints = PowerSeries(spelled)
        assert as_fractions == as_ints and hash(as_fractions) == hash(as_ints)
        assert int_exactly_when_integral(as_fractions.coeffs)
        assert int_exactly_when_integral((as_fractions * as_ints).coeffs)

    @given(
        st.lists(small_fractions, max_size=3),
        st.lists(small_fractions, max_size=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=120)
    def test_rational_function(self, num_tail, den_tail, scale, M):
        num, den = [F(scale)] + num_tail, [F(scale)] + den_tail
        as_fractions = RationalFunction(num, den, reduce=False)
        spelled = [[int(c) if c.denominator == 1 else c for c in side] for side in (num, den)]
        as_ints = RationalFunction(*spelled, reduce=False)
        assert as_fractions == as_ints and hash(as_fractions) == hash(as_ints)
        assert int_exactly_when_integral(as_fractions.num + as_fractions.den)
        expanded = as_fractions.expand(M).coeffs
        assert list(expanded) == _expand_over_q(num, den, M)
        assert int_exactly_when_integral(expanded)
        reduced = RationalFunction(num, den)
        assert int_exactly_when_integral(reduced.num + reduced.den)
        assert list(reduced.expand(M).coeffs) == list(expanded)

    def test_integer_input_stays_int(self):
        rf = RationalFunction((2, -4), (2, -12, 10))
        assert rf.num == (1, -2) and rf.den == (1, -6, 5)
        assert all(type(c) is int for c in rf.num + rf.den + rf.expand(6).coeffs)
        assert RationalFunction((1,), (2, 1)).den == (1, F(1, 2))


def _reference_samples(R, q, Q, chi, CQ, sample_points, tol):
    """functional_samples with every point at SAMPLE_DPS digits: the
    oracle for its double first pass."""
    used, skipped, witnesses = [], [], []
    C = F(CQ) / F(Q) ** chi
    with mpmath.workdps(SAMPLE_DPS):
        const = mpmath.mpf(C.numerator) / C.denominator
        tiny = mpmath.mpf("1e-20")
        for s in sample_points:
            s = mpmath.mpc(s)
            x = mpmath.power(q, -s)
            y = 1 / (Q * x)
            dx, dy = poly.evaluate(R.den, x), poly.evaluate(R.den, y)
            if abs(dx) < tiny or abs(dy) < tiny:
                skipped.append(str(s))
                continue
            lhs = poly.evaluate(R.num, x) / dx
            rhs = const * x**-chi * poly.evaluate(R.num, y) / dy
            if abs(lhs - rhs) > tol * max(1, abs(lhs)):
                witnesses.append({"s": str(s), "lhs": str(lhs), "rhs": str(rhs)})
            else:
                used.append(str(s))
    return used, skipped, witnesses


def _q_mirror(A, Q):
    """x^m Q^m A(1/(Qx)) for m = deg A, so A times it satisfies the
    equation with C = Q^m and chi = -2m."""
    m = len(A) - 1
    return tuple(A[m - k] * Q**k for k in range(m + 1))


# both default point sets, and points where q^-s leaves the range of a double
_SAMPLE_POINTS = st.sampled_from(
    [0.3, 1.2 + 0.7j, -0.4, 0.8, 1.3 + 0.2j, -0.6, 2.5 - 1j, 40.0, -40 + 3j]
)


@st.composite
def _sampler_inputs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 9, 25, 1024, 3**20]))
    Q = draw(st.sampled_from([1, q, q * q]))
    coeff = st.one_of(st.integers(min_value=-9, max_value=9), small_fractions)
    num, den = (poly.trim([1] + draw(st.lists(coeff, max_size=3))) for _ in range(2))
    if draw(st.booleans()):
        # each side times its Q-mirror: an equation that holds
        chi = -2 * (len(num) - len(den))
        num, den = mul(num, _q_mirror(num, Q)), mul(den, _q_mirror(den, Q))
    else:
        chi = draw(st.integers(min_value=-6, max_value=6))
    point = st.one_of(_SAMPLE_POINTS, st.complex_numbers(max_magnitude=4))
    points = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):
        # a pole at s = 0, where x = 1
        den = mul(den, (1, -1))
        points.append(0)
    huge = draw(st.sampled_from([None, 10**400, F(1, 10**400)]))
    if huge is not None:
        num = mul(num, (1, huge))
    R = RationalFunction(num, den)
    CQ = functional_witnesses(R, Q, chi)[0]
    CQ *= 1 + draw(st.sampled_from([0, F(1, 10**3), F(1, 10**12), F(1, 10**35)]))
    tol = draw(st.sampled_from([1e-40, 1e-30, 1e-9, 1e-3, 10]))
    return R, q, Q, chi, CQ, tuple(points), tol


class TestFunctionalSamples:
    @given(_sampler_inputs())
    @settings(max_examples=300)
    def test_matches_30_digit_reference(self, args):
        assert functional_samples(*args) == _reference_samples(*args)
