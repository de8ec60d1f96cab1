"""The integer polynomial layer over Z and F_p, against a small Fraction
reference over Q, and the exact orders built on it."""

import math
import time
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetalab import poly
from zetalab.arith import FiniteField, PrimePower
from zetalab.series import RationalFunction, polynomial_roots
from zetalab.zeta import ord_at

# ---------------------------------------------------------------------------
# Reference arithmetic over Q (Fractions, schoolbook), kept independent of
# zetalab
# ---------------------------------------------------------------------------


def q_trim(a):
    a = [F(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def q_mul(a, b):
    a, b = q_trim(a), q_trim(b)
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_divmod(a, b):
    a, b = q_trim(a), q_trim(b)
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] / b[-1]
        quo[i] = f
        for j, c in enumerate(b):
            a[i + j] -= f * c
    return q_trim(quo), q_trim(a)


def q_monic_gcd(a, b):
    a, b = q_trim(a), q_trim(b)
    while b:
        a, b = b, q_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def q_sub(a, b):
    a, b = q_trim(a), q_trim(b)
    n = max(len(a), len(b))
    return q_trim([x - y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])


def q_deriv(a):
    return q_trim([i * c for i, c in enumerate(a)][1:])


def q_yun(a):
    """Yun over Q with monic gcds: [(monic part, multiplicity)]."""
    d = q_monic_gcd(a, q_deriv(a))
    b, c = q_divmod(a, d)[0], q_divmod(q_deriv(a), d)[0]
    out, k = [], 1
    while len(b) > 1:
        z = q_sub(c, q_deriv(b))
        g = q_monic_gcd(b, z)
        if len(g) > 1:
            out.append((g, k))
        b = q_divmod(b, g)[0]
        c = q_divmod(z, g)[0]
        k += 1
    return out


def monic(a):
    return [F(c, a[-1]) for c in a]


small_int_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(
    lambda a: a[-1] != 0
)
nonconstant_int_polys = small_int_polys.filter(lambda a: len(a) >= 2)


# ---------------------------------------------------------------------------
# Both rings
# ---------------------------------------------------------------------------


class TestRingOperations:
    @given(small_int_polys, small_int_polys, st.sampled_from([None, 2, 3, 7]))
    @settings(max_examples=100)
    def test_mul_add_sub_deriv_evaluate(self, a, b, p):
        def red(v):
            return tuple(int(c) for c in q_trim(v if p is None else [int(c) % p for c in v]))

        assert poly.mul(a, b, p) == red(q_mul(a, b))
        assert poly.add(a, b, p) == red(q_sub(a, [-c for c in b]))
        assert poly.sub(a, b, p) == red(q_sub(a, b))
        assert poly.deriv(a, p) == red(q_deriv(a))
        want = sum(c * 3**i for i, c in enumerate(a))
        assert poly.evaluate(a, 3, p) == (want if p is None else want % p)

    @given(small_int_polys, nonconstant_int_polys)
    @settings(max_examples=200)
    def test_divrem_over_z_answers_exactly_when_the_quotient_is_integral(self, a, b):
        quo, rem = q_divmod(a, b)
        got = poly.divrem(a, b)
        if all(c.denominator == 1 for c in quo):
            assert got == (tuple(map(int, quo)), tuple(map(int, rem)))
        else:
            assert got is None

    @given(small_int_polys, nonconstant_int_polys)
    @settings(max_examples=100)
    def test_exact_division_by_a_product(self, a, b):
        assert poly.divrem(poly.mul(a, b), b) == (tuple(a), ())

    @given(small_int_polys, nonconstant_int_polys, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=100)
    def test_divrem_over_fp(self, a, b, p):
        if not poly.trim(b, p):
            with pytest.raises(ZeroDivisionError):
                poly.divrem(a, b, p)
            return
        quo, rem = poly.divrem(a, b, p)
        assert len(rem) < len(poly.trim(b, p))
        assert poly.add(poly.mul(quo, b, p), rem, p) == poly.trim(a, p)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly.divrem((1, 2), (0,))


# ---------------------------------------------------------------------------
# Over F_p
# ---------------------------------------------------------------------------


class TestOverFp:
    @given(small_int_polys, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=100)
    def test_unreduced_input_is_reduced_first(self, low, p):
        # (-8, -4, 1) over F_2 is x^2: an unreduced copy once looped forever
        f = tuple(low) + (1,)
        reduced = tuple(c % p for c in f)
        assert poly.fp_degree_pattern(f, p) == poly.fp_degree_pattern(reduced, p)
        assert poly.fp_squarefree_part(f, p) == poly.fp_squarefree_part(reduced, p)
        assert poly.fp_gcd(f, low, p) == poly.fp_gcd(reduced, low, p)

    def test_square_over_f2(self):
        assert poly.fp_degree_pattern((-8, -4, 1), 2) == {1: 1}

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.lists(
            st.tuples(st.lists(st.integers(0, 10), min_size=1, max_size=3), st.integers(1, 8)),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 10),
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_reduced_loop_matches_reference_division(self, p, factors, lead, in_x_p):
        # f = lead * prod(g^k), multiplicities up to 8 (so >= p too), and
        # with in_x_p the whole of f(x^p), whose derivative is 0
        f = (lead % p or 1,)
        for low, k in factors:
            for _ in range(k):
                f = poly.mul(f, tuple(low) + (1,), p)
        if in_x_p:
            spread = [0] * (p * (len(f) - 1) + 1)
            spread[::p] = f
            f = tuple(spread)
        g = reference_gcd(f, poly.deriv(f, p), p)
        assert poly.fp_gcd(f, poly.deriv(f, p), p) == g
        assert poly.fp_gcd(poly.deriv(f, p), f, p) == g
        for b in (g, f[len(f) // 2 :], (2, 1)):
            assert poly.divrem(f, b, p) == reference_divrem(f, b, p)
        assert poly.fp_squarefree_part(f, p) == reference_squarefree_part(f, p)
        assert poly.fp_degree_pattern(f, p) == reference_degree_pattern(f, p)


def reference_divrem(a, b, p):
    """Long division over F_p that reduces its operands at every call
    (the route before the reduced inner loop)."""
    b = poly.trim(b, p)
    a, db, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] % p * inv % p
        quo[i - db] = f
        for j, bj in enumerate(b):
            a[i - db + j] -= f * bj
    return poly.trim(quo), poly.trim(a[:db], p)


def reference_gcd(a, b, p):
    """Monic Euclid on reference_divrem."""
    a, b = poly.trim(a, p), poly.trim(b, p)
    while b:
        a, b = b, reference_divrem(a, b, p)[1]
    return tuple(c * pow(a[-1], -1, p) % p for c in a) if a else a


def reference_squarefree_part(f, p):
    """fp_squarefree_part on reference_gcd and reference_divrem."""
    f = poly.trim(f, p)
    if len(f) <= 1:
        return f
    df = poly.deriv(f, p)
    if not df:
        return reference_squarefree_part(f[::p], p)
    g = reference_gcd(f, df, p)
    sf = reference_divrem(f, g, p)[0]
    extra = reference_squarefree_part(g, p)
    rest = reference_divrem(extra, reference_gcd(sf, extra, p), p)[0]
    out = poly.mul(sf, rest, p) if len(rest) > 1 else sf
    inv = pow(out[-1], -1, p)
    return tuple(c * inv % p for c in out)


def reference_degree_pattern(f, p):
    """fp_degree_pattern on reference_gcd and reference_divrem."""
    f = reference_squarefree_part(f, p)
    pattern, h, k = {}, (0, 1), 0
    while len(f) > 1:
        k += 1
        if 2 * k > len(f) - 1:
            pattern[len(f) - 1] = pattern.get(len(f) - 1, 0) + 1
            break
        h = poly.powmod(h, p, f, p)
        g = reference_gcd(poly.sub(h, (0, 1), p), f, p)
        if len(g) > 1:
            pattern[k] = (len(g) - 1) // k
            f = reference_divrem(f, g, p)[0]
    return pattern


# ---------------------------------------------------------------------------
# Over F_Q on logs, against schoolbook arithmetic on the field's ints
# ---------------------------------------------------------------------------


class ElementField:
    """F_Q with elements the ints 0..Q-1 (base-p digits): sums digit by
    digit, products through the exp and log tables."""

    def __init__(self, p, k):
        tables = FiniteField(p, k).log_tables()
        self.p, self.Q, self.m = p, p**k, p**k - 1
        self.exp, self.log, self.zech = tables.exp, tables.log, tables.zech

    def add(self, a, b):
        out, scale = 0, 1
        while a or b:
            out += (a % self.p + b % self.p) % self.p * scale
            a, b, scale = a // self.p, b // self.p, scale * self.p
        return out

    def neg(self, a):
        return self.mul(a, self.exp[self.m // 2] if self.p != 2 else 1)

    def mul(self, a, b):
        return 0 if not a or not b else self.exp[(self.log[a] + self.log[b]) % self.m]

    def inv(self, a):
        return self.exp[-self.log[a] % self.m]

    def trim(self, a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return a

    def mul_poly(self, a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return self.trim(out)

    def rem(self, a, b):
        a, b = self.trim(a), self.trim(b)
        inv = self.inv(b[-1])
        while len(a) >= len(b):
            c = self.neg(self.mul(a[-1], inv))
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = self.add(a[shift + j], self.mul(c, y))
            a = self.trim(a)
        return a

    def gcd(self, a, b):
        a, b = self.trim(a), self.trim(b)
        while b:
            a, b = b, self.rem(a, b)
        return [self.mul(c, self.inv(a[-1])) for c in a] if a else a

    def evaluate(self, a, x):
        acc = 0
        for c in reversed(a):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def logs(self, a):
        return [self.log[c] for c in self.trim(a)]

    def monic(self, a):
        return [self.mul(c, self.inv(a[-1])) for c in a]


FIELDS = [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2), (7, 1), (2, 4), (5, 2), (3, 3)]


@st.composite
def field_polys(draw, count):
    """(ElementField, polynomials over it as int lists), with zero
    coefficients, repeated linear factors and degrees up to 2 Q."""
    K = ElementField(*draw(st.sampled_from(FIELDS)))
    element = st.integers(0, K.Q - 1)
    out = []
    for _ in range(count):
        f = [draw(element) for _ in range(draw(st.integers(0, 4)))]
        for root in draw(st.lists(element, max_size=3)):
            for _ in range(draw(st.integers(1, 3))):
                f = K.mul_poly(f or [1], [K.neg(root), 1])
        if draw(st.booleans()):  # a power of z beyond Q
            f = K.mul_poly(f or [1], [0] * draw(st.integers(K.Q - 2, 2 * K.Q)) + [1])
        out.append(K.trim(f))
    return K, out


class TestOverFq:
    @given(field_polys(3))
    @settings(max_examples=150)
    def test_mulmod_and_gcd_match_the_schoolbook(self, drawn):
        K, (a, b, mod) = drawn
        assume(mod)
        mod = K.monic(mod)
        got = poly.fq_mulmod(K.logs(a), K.logs(b), K.logs(mod), K.zech)
        assert got == K.logs(K.rem(K.mul_poly(a, b), mod))
        assert poly.fq_rem(K.logs(a), K.logs(mod), K.zech) == K.logs(K.rem(a, mod))
        assert poly.fq_gcd(K.logs(a), K.logs(b), K.zech) == K.logs(K.gcd(a, b))

    @given(field_polys(1))
    @settings(max_examples=200)
    def test_root_count_matches_evaluation(self, drawn):
        K, (g,) = drawn
        assume(g)
        roots = sum(K.evaluate(g, x) == 0 for x in range(K.Q))
        assert poly.fq_root_count(K.logs(g), K.zech) == roots

    def test_every_element_is_a_root_of_z_to_the_q_minus_z(self):
        # x^4 + x over F_4, and (z + 1)^2 = z^2 + 1 over F_8 (one root)
        K = ElementField(2, 2)
        assert poly.fq_root_count(K.logs([0, 1, 0, 0, 1]), K.zech) == 4
        K = ElementField(2, 3)
        assert poly.fq_root_count(K.logs([1, 0, 1]), K.zech) == 1


# ---------------------------------------------------------------------------
# Over Z
# ---------------------------------------------------------------------------


class TestOverZ:
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=6
        ).filter(lambda a: a[-1] != 0)
    )
    @settings(max_examples=150)
    def test_primitive_of_fractions(self, a):
        prim = poly.primitive(a)
        assert all(type(c) is int for c in prim)
        assert prim[-1] > 0
        assert poly.primitive(prim) == prim
        assert math.gcd(*prim) == 1
        # the same line through the origin: a proportional to prim
        ratio = F(a[-1]) / prim[-1]
        assert [F(c) for c in a] == [ratio * c for c in prim]

    @given(nonconstant_int_polys, small_int_polys, small_int_polys)
    @settings(max_examples=150)
    def test_gcd_matches_monic_gcd_up_to_a_scalar(self, g, u, v):
        a, b = poly.mul(g, u), poly.mul(g, v)
        got = poly.gcd(a, b)
        want = q_monic_gcd(a, b)
        assert monic(got) == want
        assert got == poly.primitive(got)

    def test_gcd_with_zero(self):
        assert poly.gcd((), ()) == ()
        assert poly.gcd((0, 2, 4), ()) == (0, 1, 2)
        assert poly.gcd((), (-3,)) == (1,)

    @given(
        st.lists(
            st.tuples(nonconstant_int_polys, st.integers(1, 3)), min_size=1, max_size=3
        ),
        st.integers(-3, 3).filter(bool),
    )
    @settings(max_examples=100)
    def test_yun_parts_and_multiplicities(self, factors, scale):
        P = (scale,)
        for f, k in factors:
            for _ in range(k):
                P = poly.mul(P, f)
        got = poly.squarefree(P)
        want = q_yun(P)
        assert [k for _, k in got] == [k for _, k in want]
        assert [monic(part) for part, _ in got] == [part for part, _ in want]
        rebuilt = (1,)
        for part, k in got:
            assert part == poly.primitive(part) and len(part) > 1
            for _ in range(k):
                rebuilt = poly.mul(rebuilt, part)
        assert monic(rebuilt) == monic(P)

    @given(
        st.integers(-6, 6),
        st.integers(1, 6),
        st.integers(0, 4),
        small_int_polys,
    )
    @settings(max_examples=200)
    def test_multiplicity_of_linear_factors(self, a, b, k, cofactor):
        # b*t - a to the k, times a cofactor that may hold it again
        m = poly.primitive((-a, b))
        P = tuple(cofactor)
        for _ in range(k):
            P = poly.mul(P, (-a, b))
        power, rest = poly.multiplicity(P, m)
        # reference: divide by t - a/b over Q while a/b is a root
        value, want, Q = F(a, b), 0, q_trim(P)
        while sum(c * value**i for i, c in enumerate(Q)) == 0:
            Q, _ = q_divmod(Q, [-value, F(1)])
            want += 1
        assert power == want >= k
        rebuilt = rest
        for _ in range(power):
            rebuilt = poly.mul(rebuilt, m)
        assert rebuilt == tuple(P)
        assert poly.divrem(rest, m) is None or poly.divrem(rest, m)[1]

    def test_multiplicity_needs_a_nonconstant_factor(self):
        with pytest.raises(ValueError):
            poly.multiplicity((1, 1), (2,))
        with pytest.raises(ValueError):
            poly.multiplicity((), (1, 1))


# ---------------------------------------------------------------------------
# Exact orders (zeta.ord_at) on products of 1 - q^k t^j
# ---------------------------------------------------------------------------

_QS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 9: (3, 2), 25: (5, 2)}
_factor = st.tuples(st.integers(0, 3), st.integers(1, 3))  # (k, j): 1 - q^k t^j


def _side(q, factors):
    out = (1,)
    for k, j in factors:
        out = poly.mul(out, (1,) + (0,) * (j - 1) + (-(q**k),))
    return out


def _numeric_multiplicity(side, x0):
    if len(side) < 2:
        return 0
    return sum(m for x, m in polynomial_roots(side, 60) if abs(x - x0) < mpmath.mpf(10) ** -40)


@st.composite
def _points(draw, factors):
    kind = draw(st.sampled_from(["factor", "factor as float", "fraction", "dyadic"]))
    if kind.startswith("factor") and factors:
        k, j = draw(st.sampled_from(factors))
        # k/1 and k/2 are dyadic, so a float holds them exactly
        return k / j if kind == "factor as float" and j != 3 else F(k, j)
    if kind == "dyadic":
        return draw(st.integers(-16, 16)) / 2 ** draw(st.integers(0, 3))
    return F(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))


class TestOrdAtCapelli:
    @given(
        st.sampled_from(sorted(_QS)),
        st.lists(_factor, max_size=3),
        st.lists(_factor, max_size=3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_order_matches_roots_and_hand_count(self, q, num_factors, den_factors, data):
        p, r = _QS[q]
        z = data.draw(_points(num_factors + den_factors))
        Z = RationalFunction(_side(q, num_factors), _side(q, den_factors))
        order = ord_at(Z, PrimePower(p, r), z)
        # by hand: 1 - q^k t^j has the one positive root q^(-k/j), simple
        zf = F(z)
        hand = sum(F(k, j) == zf for k, j in num_factors) - sum(
            F(k, j) == zf for k, j in den_factors
        )
        assert order == hand
        with mpmath.workdps(70):
            x0 = mpmath.power(q, -mpmath.mpf(zf.numerator) / zf.denominator)
            numeric = _numeric_multiplicity(Z.num, x0) - _numeric_multiplicity(Z.den, x0)
        assert order == numeric

    def test_integer_points_by_hand(self):
        # Z = (1 - 9t)^2 / ((1 - t)(1 - 3t)^3) over F_3
        Z = RationalFunction(_side(9, [(1, 1), (1, 1)]), _side(3, [(0, 1), (1, 1), (1, 1), (1, 1)]))
        q = PrimePower(3)
        orders = {z: ord_at(Z, q, z) for z in (-1, 0, 1, 2, 3, 0.5, F(3, 2))}
        assert orders == {-1: 0, 0: -1, 1: -3, 2: 2, 3: 0, 0.5: 0, F(3, 2): 0}

    def test_binomial_not_monic_in_x(self):
        # over F_4 = F_(2^2) at z = 1/4: r z = 1/2, so x0 = 2^(-1/2) is a
        # root of 2 x^2 - 1, which divides 1 - 2 t^2 twice
        Z = RationalFunction(poly.mul((1, 0, -2), (1, 0, -2)), (1, -1))
        assert ord_at(Z, PrimePower(2, 2), F(1, 4)) == 2
        assert ord_at(Z, PrimePower(2, 2), 0.25) == 2
        assert ord_at(Z, PrimePower(2, 2), F(1, 2)) == 0

    @pytest.mark.parametrize("z", [10**6, -(10**6), F(10**6 + 1, 2)])
    def test_far_points_never_build_the_power(self, z):
        Z = RationalFunction((1, -2, 5), (1, -6, 5))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            order = ord_at(Z, PrimePower(5), z)
            best = min(best, time.perf_counter() - start)
        assert order == 0
        assert best < 0.01
