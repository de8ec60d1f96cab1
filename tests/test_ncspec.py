"""Even/odd eigenvalue spectra, noncommutative zeta assembly, the
functional-equation checker (whose coefficient_symmetry rows are the
reciprocity verdict), duality of pairings, and the multiplicity-vs-rank
comparisons."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import poly, series
from zetalab.arith import PrimePower
from zetalab.counting import count_series, parse_variety
from zetalab.ncspec import (
    EigenvalueBlock,
    NcSpectrum,
    euler_pairing_kernel,
    graded_shift_check,
    nc_functional_check,
    nc_l_adic_check,
    nc_spectrum_from_weights,
    nc_weil_check,
    nc_zeta,
    order_additivity_check,
    pairing_duality_check,
    semisimplicity_criterion,
    spectrum_direct_sum,
    spectrum_strip_exceptional,
    strong_tate_check,
    weight_normalization_check,
)
from zetalab.series import RationalFunction, functional_witnesses, mat_mul, mat_rref
from zetalab.zeta import (
    WeightDecomposition,
    WeightFactor,
    hasse_weil_functional_check,
    weight_factorize,
    zeta_rational,
)

from conftest import int_exactly_when_integral


def _symmetry(spec):
    """{parity: verdict} of nc_functional_check's coefficient_symmetry
    rows, which decide closure under mu -> Q/mu."""
    return {
        c.name.split(".")[1]: c.verdict
        for c in nc_functional_check(spec)
        if c.name.endswith(".coefficient_symmetry")
    }


@pytest.fixture(scope="module")
def e5():
    q = PrimePower(5)
    Z = zeta_rational([4, 32, 148, 640], (1, 2, 1))
    dec = weight_factorize(Z, q, 1, (1, 2, 1))
    return dec, nc_spectrum_from_weights(dec)


@pytest.fixture(scope="module")
def p2():
    q = PrimePower(3)
    Z = (
        RationalFunction((1,), (1, -1))
        * RationalFunction((1,), (1, -3))
        * RationalFunction((1,), (1, -9))
    )
    dec = weight_factorize(Z, q, 2, (1, 0, 1, 0, 1))
    return dec, nc_spectrum_from_weights(dec)


class TestSpectrumConstruction:
    def test_elliptic_blocks(self, e5):
        _, spec = e5
        assert spec.chi0 == 2 and spec.chi1 == 2
        # both even weights rescale to eigenvalue 1
        assert all(b.poly == (-1, 1) for b in spec.even)
        # the odd weight keeps its untouched eigenvalue pair
        assert spec.odd[0].poly == (5, -2, 1)
        assert spec.det("even") == 1
        assert spec.det("odd") == 5
        assert spec.multiplicity_of(1, "even") == 2

    def test_projective_plane_blocks(self, p2):
        _, spec = p2
        assert spec.chi0 == 3 and spec.chi1 == 0
        assert all(b.poly == (-1, 1) for b in spec.even)

    def test_zeta_assembly(self, e5, p2):
        _, spec = e5
        assert nc_zeta(spec, "even").den == (F(1), F(-2), F(1))
        assert nc_zeta(spec, "odd").den == (F(1), F(-2), F(5))
        _, spec2 = p2
        assert nc_zeta(spec2, "even").den == (F(1), F(-3), F(3), F(-1))

    def test_serialization(self, e5):
        _, spec = e5
        doc = spec.to_json_dict()
        assert doc["chi0"] == 2
        assert doc["even"][0]["poly"] == ["-1", "1"]
        json.dumps(doc)


class TestSpectrumChecks:
    def test_weil(self, e5):
        _, spec = e5
        assert all(c.verdict == "PASS" for c in nc_weil_check(spec))

    def test_weil_fail_names_the_worst_eigenvalue(self):
        # x^2 - 7x + 5 over F_5: roots (7 +- 29^(1/2))/2, far off |x| = 5^(1/2)
        bad = NcSpectrum(q=PrimePower(5), odd=(EigenvalueBlock(poly=(5, -7, 1)),))
        odd = next(c for c in nc_weil_check(bad) if c.name == "nc_weil.odd")
        assert odd.verdict == "FAIL"
        assert odd.data["max_rel_deviation"] > 0.5
        assert abs(odd.data["worst_eigenvalue"] - (7 + 29**0.5) / 2) < 1e-9

    def test_l_adic(self, e5):
        _, spec = e5
        assert all(c.verdict == "PASS" for c in nc_l_adic_check(spec))

    def test_l_adic_foreign_constant_fails(self):
        bad = NcSpectrum(q=PrimePower(5), even=(EigenvalueBlock(poly=(6, 1)),))
        checks = nc_l_adic_check(bad, C=0)
        assert checks[0].verdict == "FAIL"

    def test_functional_dual_routes(self, e5, p2):
        for _, spec in (e5, p2):
            checks = nc_functional_check(spec)
            assert all(c.verdict == "PASS" for c in checks)
        reduced = next(
            c
            for c in nc_functional_check(e5[1])
            if c.name == "nc_functional.reduced_constants"
        )
        assert reduced.data["reduced_sign_even"] == 1
        assert reduced.data["reduced_sign_odd"] == 1

    def test_reciprocity(self, e5):
        # E over F_5 has odd eigenvalues closed under mu -> 5/mu and even
        # ones under mu -> 1/mu: both coefficient_symmetry rows pass
        _, spec = e5
        assert _symmetry(spec) == {"even": "PASS", "odd": "PASS"}

    def test_reciprocity_open_odd_multiset_fails(self):
        open_spec = NcSpectrum(q=PrimePower(5), odd=(EigenvalueBlock(poly=(-1, 1)),))
        assert _symmetry(open_spec) == {"even": "PASS", "odd": "FAIL"}

    def test_functional_open_odd_multiset_fails(self):
        # odd {1} over F_5 is not closed under mu -> 5/mu: with
        # R = 1/(1 - x) and C Q^chi = -det F1 = -1, M_1(D) = -1 + 5x
        # against -(1 - x)
        open_spec = NcSpectrum(q=PrimePower(5), odd=(EigenvalueBlock(poly=(-1, 1)),))
        checks = {c.name.removeprefix("nc_functional."): c for c in nc_functional_check(open_spec)}
        assert {name: c.verdict for name, c in checks.items()} == {
            "even.pointwise": "PASS",
            "even.coefficient_symmetry": "PASS",
            "odd.pointwise": "FAIL",
            "odd.coefficient_symmetry": "FAIL",
        }
        witness = [{"k": 1, "lhs": "5", "rhs": "1"}]
        assert checks["odd.coefficient_symmetry"].data["witnesses"] == witness
        pointwise = checks["odd.pointwise"].data["witnesses"]
        assert len(pointwise) == 4 and pointwise[0] == {"k": 1, "lhs": "5", "rhs": "1"}

    def test_pointwise_verdict_is_the_exact_identity(self):
        # y^2 = x^3 + x over F_7: at tol 1e-40 two samples per parity
        # miss by rounding, as the Hasse-Weil ones do; both equations
        # hold exactly, so every check passes and lists those samples
        q = PrimePower(7)
        Z = zeta_rational(count_series(parse_variety("elliptic a=[0,0,0,1,0]"), q, 4), (1, 2, 1))
        dec = weight_factorize(Z, q, 1, (1, 2, 1))
        classical = hasse_weil_functional_check(dec, tol=1e-40)
        assert classical.verdict == "PASS" and len(classical.data["witnesses"]) == 3
        checks = nc_functional_check(nc_spectrum_from_weights(dec), tol=1e-40)
        assert all(c.verdict == "PASS" for c in checks)
        for parity in ("even", "odd"):
            pointwise = next(c for c in checks if c.name == f"nc_functional.{parity}.pointwise")
            assert len(pointwise.data["witnesses"]) == 2
            assert all(set(w) == {"s", "lhs", "rhs"} for w in pointwise.data["witnesses"])

    @pytest.mark.parametrize(
        "text, p, betti",
        [("elliptic a=[0,0,0,1,0]", 7, (1, 2, 1)), ("projective 2; vars x, y, z", 3, (1, 0, 1, 0, 1))],
    )
    def test_default_tol_samples_settle_in_doubles(self, monkeypatch, text, p, betti):
        # at the default tol the double pass proves every sample used, so
        # the 30-digit loop (the only mpmath.power caller) never runs and
        # the reports are unchanged
        q = PrimePower(p)
        Z = zeta_rational(count_series(parse_variety(text), q, sum(betti)), betti)
        dec = weight_factorize(Z, q, (len(betti) - 1) // 2, betti)

        def checks():
            found = [hasse_weil_functional_check(dec)] + nc_functional_check(nc_spectrum_from_weights(dec))
            return [c.as_dict() for c in found]

        expected = checks()

        def refuse(*args):
            raise AssertionError("the 30-digit loop ran")

        monkeypatch.setattr(series.mpmath, "power", refuse)
        assert checks() == expected
        assert all(c["verdict"] == "PASS" for c in expected)
        assert len(expected[0]["data"]["points_used"]) == 3

    def test_pointwise_fail_carries_the_exact_witness(self):
        # an open multiset fails pointwise though every sample is in tol;
        # the exact witness leads the pointwise witnesses, as it does on
        # the coefficient_symmetry check, so the FAIL is not bare
        open_spec = NcSpectrum(q=PrimePower(5), odd=(EigenvalueBlock(poly=(-1, 1)),))
        checks = {c.name: c for c in nc_functional_check(open_spec, tol=1e30)}
        odd = checks["nc_functional.odd.pointwise"]
        assert odd.verdict == "FAIL" and len(odd.data["points_used"]) == 3
        witness = [{"k": 1, "lhs": "5", "rhs": "1"}]
        assert odd.data["witnesses"] == witness
        assert checks["nc_functional.odd.coefficient_symmetry"].data["witnesses"] == witness

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reciprocity_is_the_functional_equation(self, p, data):
        # random integer eigenvalues, each closed up with its partner
        # Q/mu or not: the coefficient_symmetry verdict is the multiset's
        # closure on each parity, and the constant C Q^chi read off
        # nc_zeta is (-1)^chi det F, zero eigenvalues and non-monic
        # blocks included
        mus = st.lists(st.integers(-6, 6), max_size=3)
        blocks, roots = {}, {}
        for parity, Q in (("even", 1), ("odd", p)):
            blocks[parity], roots[parity] = [], []
            for mu in data.draw(mus):
                mult = data.draw(st.integers(1, 2))
                pair = [(-mu, 1)]
                if mu and data.draw(st.booleans()):
                    pair.append((-Q, mu))  # the root Q/mu
                for coeffs in pair:
                    blocks[parity].append(EigenvalueBlock.from_coeffs(coeffs, mult=mult))
                    roots[parity] += [F(-coeffs[0], coeffs[1])] * mult
        spec = NcSpectrum(q=PrimePower(p), even=tuple(blocks["even"]), odd=tuple(blocks["odd"]))
        symmetry = _symmetry(spec)
        for parity, Q in (("even", 1), ("odd", p)):
            mu = roots[parity]
            closed = 0 not in mu and sorted(mu) == sorted(Q / m for m in mu)
            assert symmetry[parity] == ("PASS" if closed else "FAIL")
            chi = spec.chi(parity)
            CQ = functional_witnesses(nc_zeta(spec, parity), Q, chi)[0]
            assert CQ == (-1) ** chi * spec.det(parity)

    def test_graded_shifts(self, e5):
        _, spec = e5
        assert all(c.verdict == "PASS" for c in graded_shift_check(spec))

    def test_weight_normalization(self, e5, p2):
        for dec, _ in (e5, p2):
            assert all(c.verdict == "PASS" for c in weight_normalization_check(dec))

    def test_order_additivity(self, e5, p2):
        for dec, _ in (e5, p2):
            assert all(c.verdict == "PASS" for c in order_additivity_check(dec))


def _fraction_nc_zeta_den(spec, parity):
    """det(1 - x F) by the per-block Fraction loop nc_zeta replaced."""
    den = (F(1),)
    for b in spec.blocks(parity):
        rev = tuple(F(c, b.poly[-1]) for c in reversed(b.poly))
        for _ in range(b.mult):
            den = poly.mul(den, rev)
    return poly.trim(den)


def _shifted_weight_den(dec, parity):
    """det(1 - x F) as the product of the P_w(x / q^(w//2)), by the
    shift loop lfun's local entries used before nc_zeta built them."""
    out = (1,)
    for f in dec.factors:
        if ("even", "odd")[f.w % 2] == parity:
            scale = [dec.q.q ** (f.w // 2 * i) for i in range(len(f.poly))]
            shifted = [c // s if c % s == 0 else F(c, s) for c, s in zip(f.poly, scale)]
            out = poly.mul(out, shifted)
    return out


class TestIntegerZeta:
    @given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_loop(self, q, data):
        # non-monic blocks, zero eigenvalues (a zero constant term) and
        # mult <= 3 on both parities
        coeffs = st.lists(st.integers(-7, 7), min_size=1, max_size=3).flatmap(
            lambda low: st.integers(1, 4).map(lambda lead: low + [lead])
        )
        blocks = st.lists(
            st.builds(EigenvalueBlock.from_coeffs, coeffs, mult=st.integers(1, 3)), max_size=3
        )
        even, odd = tuple(data.draw(blocks)), tuple(data.draw(blocks))
        spec = NcSpectrum(q=PrimePower(*q), even=even, odd=odd)
        for parity in ("even", "odd"):
            den = nc_zeta(spec, parity).den
            assert den == _fraction_nc_zeta_den(spec, parity)
            assert int_exactly_when_integral(den)

    @given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), st.integers(1, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_weight_shift_loop(self, q, d, data):
        # random weight factors, weights 2 and 3 included, whose
        # coefficients q^(w//2) need not divide, so Fraction entries occur
        factors = []
        for w in range(2 * d + 1):
            tail = data.draw(st.lists(st.integers(-9, 9), max_size=3))
            while tail and tail[-1] == 0:
                tail.pop()
            factors.append(WeightFactor(w, (1, *tail)))
        dec = WeightDecomposition(d, PrimePower(*q), tuple(factors))
        spec = nc_spectrum_from_weights(dec)
        for parity in ("even", "odd"):
            den = nc_zeta(spec, parity).den
            assert den == _shifted_weight_den(dec, parity)
            assert int_exactly_when_integral(den)


class TestStrongTate:
    def test_ranks_match(self, e5, p2):
        assert strong_tate_check(p2[1], 3)[0].verdict == "PASS"
        assert strong_tate_check(e5[1], 2)[0].verdict == "PASS"

    def test_wrong_rank_fails(self, e5):
        assert strong_tate_check(e5[1], 1)[0].verdict == "FAIL"

    def test_identity_matrix_semisimple(self, p2):
        checks = strong_tate_check(
            p2[1], 3, F0_matrix=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert checks[1].verdict == "PASS"
        assert checks[1].data["semisimple_at_1"] is True

    def test_jordan_block_detected(self):
        spec = NcSpectrum(
            q=PrimePower(3), even=(EigenvalueBlock(poly=(-1, 1), mult=2),)
        )
        checks = strong_tate_check(spec, 2, F0_matrix=[[1, 1], [0, 1]])
        assert checks[1].verdict == "PASS"
        assert checks[1].data["semisimple_at_1"] is False

    def test_criterion_counts_multiplicities(self):
        crit = semisimplicity_criterion([[1, 1], [0, 1]])
        assert crit.data["algebraic"] == 2
        assert crit.data["geometric"] == 1


def transpose(M):
    return [list(r) for r in zip(*M)]


def invert(M):
    n = len(M)
    aug = [list(M[i]) + [F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    red, piv = mat_rref(aug)
    if len(piv) != n:
        raise ValueError("singular")
    return [row[n:] for row in red[:n]]


def random_invertible(rng, n):
    while True:
        M = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        _, piv = mat_rref(M)
        if len(piv) == n:
            return M


def dual_operator(theta, f, lam):
    """The unique g with g^T theta f = lam theta."""
    g = mat_mul(mat_mul(transpose(invert(theta)), transpose(invert(f))), transpose(theta))
    return [[lam * x for x in row] for row in g]


class TestPairingDuality:
    def test_orthogonal_rotation(self):
        theta = [[1, 0], [0, 1]]
        f = [[0, -1], [1, 0]]
        assert pairing_duality_check(theta, f, f, 1).verdict == "PASS"

    def test_scalar_case(self):
        assert pairing_duality_check([[1]], [[5]], [[1]], 5).verdict == "PASS"

    def test_random_triples(self):
        rng = random.Random(7)
        for lam in (F(1), F(5), F(2, 3)):
            theta = random_invertible(rng, 3)
            f = random_invertible(rng, 3)
            g = dual_operator(theta, f, lam)
            assert pairing_duality_check(theta, f, g, lam).verdict == "PASS"

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(ValueError):
            pairing_duality_check([[0]], [[1]], [[1]], 1)

    def test_failed_commutation_rejected(self):
        with pytest.raises(ValueError):
            pairing_duality_check([[1]], [[2]], [[3]], 1)

    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_duality_property(self, seed, n):
        rng = random.Random(seed)
        lam = F(rng.randint(1, 6), rng.randint(1, 3))
        theta = random_invertible(rng, n)
        f = random_invertible(rng, n)
        g = dual_operator(theta, f, lam)
        assert pairing_duality_check(theta, f, g, lam).verdict == "PASS"


class TestEulerPairing:
    def test_rank_and_kernels(self):
        G = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
        rep = euler_pairing_kernel(G)
        assert rep.rank == 2
        assert len(rep.right_kernel) == 1
        assert rep.kernels_agree

    def test_asymmetric_kernels_detected(self):
        rep = euler_pairing_kernel([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert not rep.kernels_agree


class TestSpectrumAlgebra:
    def test_direct_sum_multiplies_zeta(self, e5):
        _, spec = e5
        double = spectrum_direct_sum(spec, spec)
        assert double.chi0 == 4 and double.chi1 == 4
        assert nc_zeta(double, "odd") == nc_zeta(spec, "odd") * nc_zeta(spec, "odd")

    def test_direct_sum_requires_common_base(self, e5, p2):
        with pytest.raises(ValueError):
            spectrum_direct_sum(e5[1], p2[1])

    def test_strip_exceptional(self, e5, p2):
        stripped = spectrum_strip_exceptional(p2[1], 3)
        assert stripped.chi0 == 0
        assert nc_zeta(stripped, "even").den == (F(1),)
        once = spectrum_strip_exceptional(e5[1], 1)
        assert once.chi0 == 1
        assert nc_zeta(once, "even").den == (F(1), F(-1))
        # a block whose copies each carry (t - 1)^2, stripped part-way
        square = NcSpectrum(q=PrimePower(5), even=(EigenvalueBlock(poly=(1, -2, 1), mult=2),))
        partial = spectrum_strip_exceptional(square, 3)
        assert [(b.poly, b.mult) for b in partial.even] == [((-1, 1), 1)]

    def test_strip_beyond_multiplicity_raises(self, e5):
        with pytest.raises(ValueError):
            spectrum_strip_exceptional(e5[1], 3)
