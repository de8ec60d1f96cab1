"""Primality, prime-power descriptors, F_p polynomial helpers, and
extension-field arithmetic on Zech-log tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.arith import (
    DegreeCapError,
    _fp_is_irreducible,
    FiniteField,
    PrimePower,
    is_prime,
    make_extension_field,
    primes_up_to,
)
from zetalab.poly import divrem, fp_degree_pattern, fp_gcd, fp_squarefree_part, mulmod


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimes:
    def test_small_values(self):
        assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_known(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    @given(st.integers(min_value=-10, max_value=20000))
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_division(n)

    def test_primes_up_to(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(100) == [n for n in range(101) if trial_division(n)]
        assert len(primes_up_to(10**4)) == 1229


class TestPrimePower:
    def test_q_value(self):
        assert PrimePower(3).q == 3
        assert PrimePower(2, 4).q == 16

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            PrimePower(6)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PrimePower(3, 0)

    def test_hashable_and_frozen(self):
        assert PrimePower(5) == PrimePower(5, 1)
        assert len({PrimePower(5), PrimePower(5, 1), PrimePower(5, 2)}) == 2


def pmul(a, b, p):
    """Plain convolution mod p, trimmed; independent of module conventions."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestFpPolynomials:
    def test_divmod_roundtrip(self):
        # (x^2 + 1)(x + 2) + 3 over F_7
        f = (5, 1, 2, 1)
        quo, rem = divrem(f, (1, 0, 1), 7)
        assert quo == (2, 1)
        assert rem == (3,)

    def test_gcd_of_shared_factor(self):
        p = 7
        shared = (1, 1)  # x + 1
        a = pmul(shared, (1, 0, 1), p)
        b = pmul(shared, (2, 1), p)
        assert fp_gcd(a, b, p) == shared

    def test_squarefree_part(self):
        # (x+1)^2 (x+2) over F_5 -> squarefree part (x+1)(x+2)
        f = pmul(pmul((1, 1), (1, 1), 5), (2, 1), 5)
        assert fp_squarefree_part(f, 5) == pmul((1, 1), (2, 1), 5)

    def test_degree_pattern_split(self):
        # x^2 + 1 splits over F_5 (roots 2, 3), stays irreducible over F_7
        assert fp_degree_pattern((1, 0, 1), 5) == {1: 2}
        assert fp_degree_pattern((1, 0, 1), 7) == {2: 1}

    def test_degree_pattern_root_counts(self):
        # x^3 - x has all three roots in F_p for every p > 3
        assert fp_degree_pattern((0, -1 % 11, 0, 1), 11) == {1: 3}

    @given(st.integers(min_value=0, max_value=6), st.data())
    @settings(max_examples=40)
    def test_pattern_degrees_sum_to_squarefree_degree(self, seed, data):
        p = [2, 3, 5, 7, 11, 13, 17][seed]
        deg = data.draw(st.integers(min_value=1, max_value=6))
        coeffs = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(deg)]
        f = tuple(coeffs) + (1,)
        pattern = fp_degree_pattern(f, p)
        total = sum(k * count for k, count in pattern.items())
        assert total == len(fp_squarefree_part(f, p)) - 1

    @given(st.sampled_from([2, 3, 5]), st.integers(min_value=2, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_irreducibility_matches_trial_division(self, p, d, data):
        low = tuple(data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(d))
        f = low + (1,)
        has_factor = False
        for k in range(1, d // 2 + 1):
            for idx in range(p**k):
                g = tuple(idx // p**i % p for i in range(k)) + (1,)
                if not divrem(f, g, p)[1]:
                    has_factor = True
        assert _fp_is_irreducible(f, p) == (not has_factor)


def digits(a, p, k):
    return tuple(a // p**i % p for i in range(k))


def encode(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def direct_mul(field, a, b):
    p, k = field.p, field.degree
    return encode(mulmod(digits(a, p, k), digits(b, p, k), field.modulus, p), p)


def direct_add(field, a, b):
    p, k = field.p, field.degree
    return encode([(x + y) % p for x, y in zip(digits(a, p, k), digits(b, p, k))], p)


def table_mul(tables, a, b):
    if a == 0 or b == 0:
        return 0
    return tables.exp[(tables.log[a] + tables.log[b]) % len(tables.exp)]


def table_add(tables, a, b):
    if a == 0 or b == 0:
        return a + b
    m = len(tables.exp)
    z = tables.zech[(tables.log[b] - tables.log[a]) % m]
    return 0 if z < 0 else tables.exp[(tables.log[a] + z) % m]


def table_pow(tables, a, e):
    return 0 if a == 0 else tables.exp[tables.log[a] * e % len(tables.exp)]


small_fields = st.tuples(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=3))


class TestFiniteField:
    def test_cardinality(self):
        field = FiniteField(2, 4)
        tables = field.log_tables()
        assert field.order == 16 and len(tables.log) == 16
        assert sorted(tables.exp) == list(range(1, 16))

    def test_deterministic_modulus(self):
        assert FiniteField(3, 5).modulus == FiniteField(3, 5).modulus

    def test_extension_degree_cap(self):
        with pytest.raises(DegreeCapError):
            make_extension_field(PrimePower(2), 30)
        make_extension_field(PrimePower(2), 30, cap=30)

    def test_prime_field_is_mod_p(self):
        field = make_extension_field(PrimePower(7), 1)
        tables = field.log_tables()
        assert table_mul(tables, 4, 5) == 6
        assert tables.exp == [pow(3, i, 7) for i in range(6)]  # 3: least primitive root
        for a in range(7):
            for b in range(7):
                assert table_add(tables, a, b) == (a + b) % 7
                assert table_mul(tables, a, b) == a * b % 7

    @given(small_fields, st.data())
    @settings(max_examples=60)
    def test_field_axioms(self, pk, data):
        p, deg = pk
        field = FiniteField(p, deg)
        tables = field.log_tables()
        element = st.integers(min_value=0, max_value=field.order - 1)
        a, b, c = data.draw(element), data.draw(element), data.draw(element)
        assert table_mul(tables, a, b) == direct_mul(field, a, b)
        assert table_add(tables, a, b) == direct_add(field, a, b)
        mul, add = (lambda x, y: table_mul(tables, x, y)), (lambda x, y: table_add(tables, x, y))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert table_pow(tables, a, field.order) == a

    @given(small_fields)
    def test_exp_and_log_are_inverse(self, pk):
        field = FiniteField(*pk)
        tables = field.log_tables()
        m = field.order - 1
        assert len(tables.exp) == len(tables.zech) == m and tables.log[0] == -1
        assert [tables.exp[tables.log[a]] for a in range(1, field.order)] == list(
            range(1, field.order)
        )
        assert [tables.log[tables.exp[i]] for i in range(m)] == list(range(m))

    @given(small_fields)
    def test_generator_is_least_primitive_element(self, pk):
        field = FiniteField(*pk)
        exp = field.log_tables().exp
        g = exp[1 % len(exp)]
        for a in range(1, g):
            power, order = a, 1
            while power != 1:
                power, order = direct_mul(field, power, a), order + 1
            assert order < len(exp)
        power = 1
        for want in exp:
            assert power == want
            power = direct_mul(field, power, g)
        assert power == 1

    @given(small_fields)
    def test_zech_matches_direct_addition(self, pk):
        field = FiniteField(*pk)
        tables = field.log_tables()
        for n, a in enumerate(tables.exp):
            one_plus = direct_add(field, 1, a)
            assert tables.zech[n] == tables.log[one_plus]
            assert (tables.zech[n] < 0) == (one_plus == 0)
