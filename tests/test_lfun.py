"""Global L-functions: local spectra per prime, Euler products with tail
bounds, Dirichlet expansions, trace-bound certificates, analytic
continuation, and the order dashboard."""

import collections
import functools
import math
import random
from unittest import mock
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import lfun
from zetalab.arith import PrimePower
from zetalab.counting import VarietySpec, count_series
from zetalab.lfun import (
    ArithmeticModel,
    BadPrimeError,
    PoleError,
    _block_power_sums,
    _local_decomposition,
    bounds_certificate,
    dirichlet_beta,
    dirichlet_expand,
    euler_product_value,
    ktheory_decomposition_table,
    load_model,
    local_spectrum,
    order_dashboard,
    serre_bounds_certificate,
    winding_order,
    zeta_continuation,
)
from zetalab.ncspec import EigenvalueBlock, NcSpectrum
from zetalab.series import power_sums_inverse_roots
from zetalab.zeta import SeparationError

from conftest import fixture_path

ZETA2 = 1.6449340668482264
CATALAN = 0.915965594177219015


@pytest.fixture(scope="module")
def specq():
    return load_model(fixture_path("specq.json"))


@pytest.fixture(scope="module")
def p1():
    return load_model(fixture_path("p1.json"))


@pytest.fixture(scope="module")
def zi():
    return load_model(fixture_path("speczi.json"))


@pytest.fixture(scope="module")
def ell():
    return load_model(fixture_path("elliptic.json"))


class TestModelLoading:
    def test_fields(self, zi):
        assert zi.name == "Spec Z[i]"
        assert zi.betti == (2,)
        assert zi.bad_prime_map()[2] is not None
        assert zi.ranks["k3"] == 1

    def test_closed_form_tags(self, specq, p1, zi, ell):
        assert specq.closed_form == ("mixed_tate", (0,))
        assert p1.closed_form == ("mixed_tate", (0, 0))
        assert zi.closed_form == ("dedekind_qi",)
        assert ell.closed_form is None


class TestLocalSpectra:
    def test_projective_line(self, p1):
        spec = local_spectrum(p1, 7)
        assert spec.chi0 == 2 and spec.chi1 == 0
        assert all(b.poly == (-1, 1) for b in spec.even)

    def test_split_prime(self, zi):
        spec = local_spectrum(zi, 13)
        assert spec.chi0 == 2
        assert spec.multiplicity_of(1, "even") == 2

    def test_inert_prime(self, zi):
        spec = local_spectrum(zi, 7)
        polys = sorted(b.poly for b in spec.even)
        assert polys in ([(-1, 1), (1, 1)], [(-1, 0, 1)])

    def test_replacement_fiber(self, zi):
        spec = local_spectrum(zi, 2)
        assert spec.chi0 == 1
        assert spec.even[0].poly == (-1, 1)

    def test_elliptic_good_prime(self, ell):
        spec = local_spectrum(ell, 5)
        assert spec.chi1 == 2
        assert spec.odd[0].poly == (5, -2, 1)
        assert spec.provenance["weil"] == "PASS"

    def test_bad_prime_without_replacement(self, ell):
        with pytest.raises(BadPrimeError, match="excluded factor"):
            local_spectrum(ell, 2)

    def test_cached_spectrum_depends_on_betti(self):
        # the (2,0,2) model shares the fiber, p and degree count of the
        # (1,2,1) one; it must fail the same way whichever ran first
        family = "elliptic a=[0,0,1,-1,0]"
        wrong = ArithmeticModel.from_dict({"family": family, "betti": [2, 0, 2]})
        right = ArithmeticModel.from_dict({"family": family, "betti": [1, 2, 1]})
        with pytest.raises(SeparationError):
            local_spectrum(wrong, 5)
        assert local_spectrum(right, 5).chi1 == 2
        with pytest.raises(SeparationError):
            local_spectrum(wrong, 5)
        with pytest.raises(SeparationError):
            _local_decomposition(wrong, 5)

    def test_returned_spectrum_does_not_edit_the_cache(self, ell):
        spec = local_spectrum(ell, 5)
        spec.provenance["weil"] = "EDITED"
        assert local_spectrum(ell, 5).provenance["weil"] == "PASS"

    def test_equal_models_share_one_entry(self, monkeypatch):
        # the key is the value-equal fiber spec, so a separately parsed
        # copy of a model hits the first one's entry without recounting
        # or hashing the fiber's text
        monkeypatch.setattr(lfun, "_LOCAL_CACHE", collections.OrderedDict())
        first, second = (load_model(fixture_path("elliptic.json")) for _ in range(2))
        assert first.family == second.family and first.family is not second.family
        counted = []
        count_series = lfun.count_series
        monkeypatch.setattr(
            lfun, "count_series", lambda *a: counted.append(a) or count_series(*a)
        )
        spectrum = local_spectrum(first, 7)
        monkeypatch.setattr(
            VarietySpec, "fingerprint", lambda self: pytest.fail("fingerprint on a hit")
        )
        assert local_spectrum(second, 7) == spectrum
        assert len(counted) == 1 and len(lfun._LOCAL_CACHE) == 1

    def test_recomputed_after_eviction_equals_original(self, ell, monkeypatch):
        monkeypatch.setattr(lfun, "_LOCAL_CACHE", collections.OrderedDict())
        monkeypatch.setattr(lfun, "LOCAL_CACHE_SIZE", 2)
        first = local_spectrum(ell, 7)
        for p in (11, 13, 17):
            local_spectrum(ell, p)
        assert len(lfun._LOCAL_CACHE) == 2
        assert local_spectrum(ell, 7) == first

    def test_singular_fiber_at_undeclared_prime_raises(self):
        # y^2 = x^3 + 5 has discriminant -10800 = -2^4 3^3 5^2: a cusp at
        # 5, where #E(F_{5^n}) = 5^n + 1 and no weight-1 factor exists
        model = ArithmeticModel.from_dict(
            {
                "family": "elliptic a=[0,0,0,0,5]",
                "bad_primes": [{"p": 2}, {"p": 3}],
                "betti": [1, 2, 1],
            }
        )
        assert count_series(model.family, PrimePower(5), 4).counts == (6, 26, 126, 626)
        with pytest.raises(SeparationError, match="fiber at p=5: "):
            local_spectrum(model, 5)


# Models that share fibers: Spec Q's family is Z[i]'s replacement fiber
# at 2, and Spec Q and the elliptic curve come twice, the second time
# with other Betti numbers (as `--betti` would give them).
_SHARED_FIBER_MODELS = [
    ArithmeticModel.from_dict(data)
    for data in (
        {"family": "zerodim x", "betti": [1]},
        {"family": "zerodim x", "betti": [2]},
        {
            "family": "zerodim x^2 + 1",
            "bad_primes": [{"p": 2, "replacement": "zerodim x"}],
            "betti": [2],
        },
        {"family": "elliptic a=[0,0,0,1,0]", "bad_primes": [{"p": 2}], "betti": [1, 2, 1]},
        {"family": "elliptic a=[0,0,0,1,0]", "bad_primes": [{"p": 2}], "betti": [2, 0, 2]},
    )
]
_SHARED_FIBER_CALLS = [(m, p) for m in _SHARED_FIBER_MODELS for p in (2, 3, 5)]


def _spectrum_or_error(model, p):
    try:
        return local_spectrum(model, p)
    except (BadPrimeError, SeparationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@functools.lru_cache(maxsize=None)
def _fresh_outcomes():
    """Each call's outcome computed with an empty cache."""
    out = []
    for model, p in _SHARED_FIBER_CALLS:
        with mock.patch.object(lfun, "_LOCAL_CACHE", collections.OrderedDict()):
            out.append(_spectrum_or_error(model, p))
    return out


class TestLocalCacheCallOrder:
    @given(
        st.permutations(range(len(_SHARED_FIBER_CALLS))),
        st.integers(min_value=0, max_value=len(_SHARED_FIBER_CALLS)),
        st.sampled_from([1, 3, 2048]),
    )
    @settings(max_examples=30)
    def test_any_call_order_gives_fresh_outcomes(self, order, repeats, size):
        # a cache of 1 or 3 entries evicts along the way, 2048 never does
        fresh = _fresh_outcomes()
        with mock.patch.object(lfun, "_LOCAL_CACHE", collections.OrderedDict()), \
                mock.patch.object(lfun, "LOCAL_CACHE_SIZE", size):
            for k in order + order[:repeats]:
                assert _spectrum_or_error(*_SHARED_FIBER_CALLS[k]) == fresh[k]

    def test_replacement_fiber_does_not_answer_for_a_family(self):
        # Spec Q with Betti numbers (2) fails at 2, also after Z[i] has
        # cached its replacement fiber "zerodim x" at 2
        fresh = _fresh_outcomes()
        wrong, zi_at_2 = _SHARED_FIBER_CALLS[3], _SHARED_FIBER_CALLS[6]
        assert fresh[3][0] == "SeparationError"
        with mock.patch.object(lfun, "_LOCAL_CACHE", collections.OrderedDict()):
            assert _spectrum_or_error(*zi_at_2) == fresh[6]
            assert _spectrum_or_error(*wrong) == fresh[3]


class TestEulerProducts:
    def test_riemann_zeta_at_two(self, specq):
        r = euler_product_value(specq, "even", 2.0, 1000)
        assert abs(r.value - ZETA2) < 1e-2
        assert abs(r.value - ZETA2) <= r.tail_bound + 1e-12

    def test_projective_line_squares_zeta(self, p1):
        r = euler_product_value(p1, "even", 2.0, 2000)
        assert abs(r.value - ZETA2**2) < 1e-2
        assert abs(r.value - ZETA2**2) <= r.tail_bound

    def test_odd_product_trivial(self, p1):
        r = euler_product_value(p1, "odd", 2.5, 500)
        assert r.value == 1.0 and r.tail_bound == 0.0

    def test_half_plane_rejection(self, p1):
        with pytest.raises(ValueError):
            euler_product_value(p1, "even", 1.01, 100)

    def test_bad_primes_reported_excluded(self, ell):
        r = euler_product_value(ell, "odd", 2.5, 200)
        assert r.excluded == (2,)


class TestDirichletExpansion:
    def test_riemann_coefficients_all_one(self, specq):
        d = dirichlet_expand(specq, "even", 200)
        assert all(b == 1 for b in d.coeffs)

    def test_divisor_counts(self, p1):
        d = dirichlet_expand(p1, "even", 200)
        assert d[1] == 1 and d[4] == 3 and d[12] == 6 and d[36] == 9

    def test_gaussian_ideal_counts(self, zi):
        d = dirichlet_expand(zi, "even", 200)
        assert d[2] == 1 and d[3] == 0 and d[5] == 2 and d[9] == 1 and d[25] == 3
        lattice = collections.Counter()
        for a in range(-20, 21):
            for b in range(-20, 21):
                n = a * a + b * b
                if 1 <= n <= 200:
                    lattice[n] += 1
        for n in range(1, 201):
            assert d[n] == F(lattice.get(n, 0), 4)

    def test_series_head_consistent_with_product(self, p1):
        # Rankin-style tail: sum_{n>N} b_n n^-2 <= N^-1/2 zeta(3/2)^C
        product = euler_product_value(p1, "even", 2.0, 2000)
        head = dirichlet_expand(p1, "even", 200).partial_sum(2.0)
        series_tail = 200**-0.5 * 2.612375348685488**2
        gap = abs(head - product.value)
        assert gap < series_tail + product.tail_bound
        assert gap > 0.01  # the truncation gap is real; the bound is not vacuous


class TestBoundsCertificates:
    def test_even_bound(self, p1):
        cert = bounds_certificate(p1, "even", 500, 6)
        assert cert.ok and cert.C == 2

    def test_odd_bound_with_excluded_prime(self, ell):
        cert = bounds_certificate(ell, "odd", 300, 6)
        assert cert.ok and cert.C == 2
        assert cert.excluded == (2,)

    def test_quadratic_ring_bound(self, zi):
        cert = bounds_certificate(zi, "even", 500, 6)
        assert cert.ok and cert.C == 2

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
                st.sampled_from([1, 2, 3, 5, 25]),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=3,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_block_traces_match_rational_route(self, shapes, m):
        # the integer route against Newton's identities on each block's
        # reversal over Q, summed with multiplicity
        blocks = tuple(EigenvalueBlock(poly=tuple(low) + (lead,), mult=mult) for low, lead, mult in shapes)
        spec = NcSpectrum(q=PrimePower(5), even=blocks)
        want = [F(0)] * m
        for b in blocks:
            rev = tuple(F(c, b.poly[-1]) for c in reversed(b.poly))
            for i, t in enumerate(power_sums_inverse_roots(rev, m)):
                want[i] += b.mult * t
        assert _block_power_sums(spec, "even", m) == want

    def test_serre_per_weight(self, p1, ell):
        top = serre_bounds_certificate(p1, 2, 300, 5)
        assert top.ok and top.C == 1
        middle = serre_bounds_certificate(ell, 1, 200, 5)
        assert middle.ok and middle.C == 2

    @pytest.mark.parametrize("w", [-1, -2])
    def test_serre_rejects_negative_weight(self, ell, w):
        # a negative index would pick another weight's factor
        with pytest.raises(ValueError, match="non-negative"):
            serre_bounds_certificate(ell, w, 30, 2)


class TestContinuation:
    def test_riemann_oracles(self):
        assert abs(zeta_continuation(2) - ZETA2) < 1e-10
        assert abs(zeta_continuation(0) - (-0.5)) < 1e-10
        assert abs(zeta_continuation(-1) - (-1 / 12)) < 1e-10
        assert abs(zeta_continuation(-2)) < 1e-10

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            zeta_continuation(1)

    def test_functional_equation_on_strip(self):
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        rng = random.Random(3)
        for _ in range(10):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-8, 8))
            with mpmath.workdps(40):
                factor = complex(
                    mpmath.power(2, s)
                    * mpmath.power(mpmath.pi, s - 1)
                    * mpmath.sin(mpmath.pi * s / 2)
                    * mpmath.gamma(1 - s)
                )
            assert abs(zeta_continuation(s) - factor * zeta_continuation(1 - s)) < 1e-8

    def test_beta_oracles(self):
        assert abs(dirichlet_beta(1) - math.pi / 4) < 1e-10
        assert abs(dirichlet_beta(0) - 0.5) < 1e-10
        assert abs(dirichlet_beta(2) - CATALAN) < 1e-10
        assert abs(dirichlet_beta(-1)) < 1e-10


class TestWindingOrder:
    def test_zeta_pole(self):
        order, residual = winding_order(zeta_continuation, 1.0)
        assert order == -1 and residual < 0.1

    def test_regular_point(self):
        order, _ = winding_order(zeta_continuation, 0.0)
        assert order == 0

    def test_engineered_triple_zero(self):
        order, _ = winding_order(lambda z: (z - 2.0) ** 3, 2.0)
        assert order == 3


class TestOrderDashboard:
    def test_riemann_rows(self, specq):
        by = {(r["j"], r["parity"]): r for r in order_dashboard(specq, 1)}
        assert by[(1, "even")]["verdict"] == "PASS"
        assert by[(1, "even")]["ord_computed"] == -1
        assert by[(1, "odd")]["verdict"] == "PASS"
        assert by[(1, "odd")]["ord_computed"] == 0

        by0 = {(r["j"], r["parity"]): r for r in order_dashboard(specq, 0)}
        assert by0[(0, "even")]["verdict"] == "PASS"
        assert by0[(0, "even")]["ord_computed"] == 0

        bym1 = {(r["j"], r["parity"]): r for r in order_dashboard(specq, -1)}
        assert bym1[(-1, "even")]["verdict"] == "PASS"
        assert bym1[(-1, "odd")]["verdict"] == "INFO"

    def test_no_closed_form_is_unsupported(self, ell):
        rows = order_dashboard(ell, 1)
        assert rows
        assert all(r["verdict"] in ("UNSUPPORTED", "INFO") for r in rows)

    def test_projective_line_double_pole(self, p1):
        by = {(r["j"], r["parity"]): r for r in order_dashboard(p1, 1)}
        assert by[(1, "even")]["ord_computed"] == -2
        assert by[(1, "even")]["verdict"] == "PASS"

    def test_gaussian_trivial_zero(self, zi):
        by = {(r["j"], r["parity"]): r for r in order_dashboard(zi, -1)}
        assert by[(-1, "even")]["ord_computed"] == 1
        assert by[(-1, "even")]["verdict"] == "PASS"


class TestKTheoryTable:
    def test_top_index_occupied(self):
        t = ktheory_decomposition_table(0, 1, {(1, 1): 1})
        assert t["rank"] == 1
        assert t["reduced_rank"] == 0
        assert not t["windows_agree"]

    def test_empty_ranks(self):
        t = ktheory_decomposition_table(2, 4, {})
        assert t["rank"] == 0 and t["windows_agree"]

    def test_interior_rank_only(self):
        t = ktheory_decomposition_table(1, 2, {(2, 2): 1, (0, 1): 0, (2, 3): 0})
        assert t["rank"] == 1 and t["windows_agree"]

    def test_nonzero_top_rank_flagged(self):
        t = ktheory_decomposition_table(1, 2, {(2, 2): 1, (4, 3): 2})
        assert t["rank"] == 3 and not t["windows_agree"]

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            ktheory_decomposition_table(1, 0, {})
