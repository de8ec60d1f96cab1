"""Global L-functions: local spectra per prime, Euler products with tail
bounds, Dirichlet expansions, trace-bound certificates, analytic
continuation, and the order dashboard."""

import cmath
import collections
import functools
import math
import random
from unittest import mock
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from zetalab import lfun, poly, zeta
from zetalab.arith import PrimePower, primes_up_to
from zetalab.counting import VarietySpec, count_series, parse_variety
from zetalab.lfun import (
    WINDING_RADIUS,
    WINDING_SAMPLES,
    ArithmeticModel,
    BadPrimeError,
    BoundsCertificate,
    EulerProductResult,
    PoleError,
    _local_entry,
    bounds_certificate,
    closed_form_l_function,
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
from zetalab.ncspec import EigenvalueBlock, NcSpectrum, nc_zeta
from zetalab.series import power_sums_inverse_roots
from zetalab.zeta import SeparationError, WeightDecomposition, WeightFactor

from conftest import fixture_path

ZETA2 = 1.6449340668482264
CATALAN = 0.915965594177219015


def _fresh_local_cache(size=lfun.LOCAL_CACHE_SIZE):
    """lfun's memoised fiber entries with an empty cache of size entries,
    to patch in over lfun._fiber_entry."""
    return functools.lru_cache(maxsize=size)(lfun._fiber_entry.__wrapped__)


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
def p2():
    return ArithmeticModel.from_dict(
        {
            "name": "P2 over Q",
            "family": "projective 2; vars x, y, z",
            "betti": [1, 0, 1, 0, 1],
            "closed_form": {"MixedTate": [0, 0, 0]},
        }
    )


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

    def test_replacement_fiber_must_be_zero_dimensional(self):
        # a curve standing in for a bad fiber has no polar zeta; the five
        # counts of a quintic field's model are enough to see it
        model = ArithmeticModel.from_dict(
            {
                "family": "zerodim x^5 + 2",
                "bad_primes": [{"p": 2, "replacement": "elliptic a=[0,0,1,0,0]"}],
                "betti": [5],
            }
        )
        with pytest.raises(ValueError, match="polar zeta"):
            local_spectrum(model, 2)

    def test_replacement_fiber_off_the_unit_circle(self):
        # P^1 standing in for Z[i]'s fiber at 2 has zeta 1/((1 - t)(1 - 2t)):
        # numerator 1, but the inverse root 2 is off |x| = 1, so neither
        # the local spectrum nor an Euler product may take it as a factor
        model = ArithmeticModel.from_dict(
            {
                "family": "zerodim x^2 + 1",
                "bad_primes": [{"p": 2, "replacement": "projective 1; vars x, y"}],
                "betti": [2],
            }
        )
        with pytest.raises(ValueError, match="polar zeta"):
            local_spectrum(model, 2)
        with pytest.raises(ValueError, match="polar zeta"):
            euler_product_value(model, "even", 2.0, 50)

    def test_closed_replacement_skips_the_circle_check(self, monkeypatch):
        # a zero-dimensional replacement reads its factor off the closed
        # form, whose inverse roots are roots of unity by construction
        def refuse(*args):
            raise AssertionError("closed-form replacement paid the circle check")

        monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache())
        fiber = parse_variety("zerodim x")
        with monkeypatch.context() as patched:
            patched.setattr(zeta, "roots_on_circle", refuse)
            dec = zeta.fiber_decomposition(fiber, PrimePower(2), None, degrees=2)
        assert [f.poly for f in dec.factors] == [(1, -1)]
        # lfun's own route reads that closed form too, counting nothing
        model = ArithmeticModel.from_dict(
            {"family": "zerodim x^2 + 1", "bad_primes": [{"p": 2, "replacement": "zerodim x"}], "betti": [2]}
        )
        monkeypatch.setattr(zeta, "count_series", lambda *a, **k: pytest.fail("counted"))
        assert local_spectrum(model, 2).even[0].poly == (-1, 1)

    def test_counted_replacement_is_not_shared_across_betti(self, monkeypatch):
        # a replacement without a closed form is reconstructed from
        # max(2, sum(betti)) counts: two counts of x^3 + x + 1 over F_2
        # see no point, four see its degree-3 point, so models with other
        # Betti numbers must not share its entry
        fiber = "affine 1; vars x; eq x^3 + x + 1"
        models = [
            ArithmeticModel.from_dict(
                {"family": family, "bad_primes": [{"p": 2, "replacement": fiber}], "betti": betti}
            )
            for family, betti in (("zerodim x^2 + 1", [2]), ("zerodim x^4 + 2", [4]))
        ]
        fresh = []
        for model in models:
            monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache())
            fresh.append(local_spectrum(model, 2))
        assert [s.chi0 for s in fresh] == [0, 3]
        monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache())
        assert [local_spectrum(model, 2) for model in models] == fresh

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
            _local_entry(wrong, 5)[0]

    def test_returned_spectrum_does_not_edit_the_cache(self, ell):
        spec = local_spectrum(ell, 5)
        spec.provenance["weil"] = "EDITED"
        assert local_spectrum(ell, 5).provenance["weil"] == "PASS"

    def test_equal_models_share_one_entry(self, monkeypatch):
        # the key is the value-equal fiber spec, so a separately parsed
        # copy of a model hits the first one's entry without recomputing
        # the fiber's weight factors or hashing the fiber's text
        monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache())
        first, second = (load_model(fixture_path("elliptic.json")) for _ in range(2))
        assert first.family == second.family and first.family is not second.family
        computed = []
        local_weights = zeta.local_weights
        monkeypatch.setattr(
            zeta, "local_weights", lambda *a, **k: computed.append(a) or local_weights(*a, **k)
        )
        spectrum = local_spectrum(first, 7)
        monkeypatch.setattr(
            VarietySpec, "fingerprint", lambda self: pytest.fail("fingerprint on a hit")
        )
        assert local_spectrum(second, 7) == spectrum
        assert len(computed) == 1 and lfun._fiber_entry.cache_info().currsize == 1

    def test_equal_closed_form_fibers_share_one_entry(self):
        # a closed form counts nothing, so its entry is keyed without
        # degrees: zerodim x, the replacement fiber at 2 of two models
        # whose Betti sums (and so counting degrees) differ, is one entry
        lfun._fiber_entry.cache_clear()
        for family, betti in (("zerodim x^2 + 1", [2]), ("zerodim x^3 - 2", [3])):
            model = ArithmeticModel.from_dict(
                {"family": family, "bad_primes": [{"p": 2, "replacement": "zerodim x"}], "betti": betti}
            )
            local_spectrum(model, 2)
        info = lfun._fiber_entry.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_recomputed_after_eviction_equals_original(self, ell, monkeypatch):
        monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache(2))
        first = local_spectrum(ell, 7)
        for p in (11, 13, 17):
            local_spectrum(ell, p)
        assert lfun._fiber_entry.cache_info().currsize == 2
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


# Number fields with replacement fibers and elliptic curves with
# excluded primes: x^3 - 2 reduces to x^3 at 2 and (x + 1)^3 at 3, and
# y^2 + y = x^3 - x has conductor 37.
_ROUTE_MODELS = {
    "zi": load_model(fixture_path("speczi.json")),
    "cubic": ArithmeticModel.from_dict(
        {
            "family": "zerodim x^3 - 2",
            "bad_primes": [
                {"p": 2, "replacement": "zerodim x"},
                {"p": 3, "replacement": "zerodim x + 1"},
            ],
            "betti": [3],
        }
    ),
    "ell": load_model(fixture_path("elliptic.json")),
    "e37": ArithmeticModel.from_dict(
        {"family": "elliptic a=[0,0,1,-1,0]", "bad_primes": [{"p": 37}], "betti": [1, 2, 1]}
    ),
}


@pytest.mark.parametrize("name", sorted(_ROUTE_MODELS))
def test_closed_route_matches_pade_route(name, monkeypatch):
    # every local entry and every kind's factors at p <= 300, read off the
    # closed-form weight factors and then by counting, rational
    # reconstruction and the gcd peel, each from an empty cache; the
    # counted route needs lfun to see no closed form either, so that it
    # passes the counting degrees
    model = _ROUTE_MODELS[name]
    kinds = ("even", "odd", 0, 1, 2, 3)

    def scan():
        monkeypatch.setattr(lfun, "_fiber_entry", _fresh_local_cache())
        entries = [_outcome(_local_entry, model, p) for p in primes_up_to(300)]
        return entries, [lfun._local_factors(model, kind, 300) for kind in kinds]

    closed = scan()
    calls = []
    monkeypatch.setattr(zeta, "local_weights", lambda spec, q, **k: calls.append(q) and None)
    monkeypatch.setattr(lfun, "has_closed_form", lambda spec: False)
    assert scan() == closed
    assert len(calls) == len(primes_up_to(300)) - sum(
        p <= 300 and fiber is None for p, fiber in model.bad_primes
    )


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
        with mock.patch.object(lfun, "_fiber_entry", _fresh_local_cache()):
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
        with mock.patch.object(lfun, "_fiber_entry", _fresh_local_cache(size)):
            for k in order + order[:repeats]:
                assert _spectrum_or_error(*_SHARED_FIBER_CALLS[k]) == fresh[k]

    def test_replacement_fiber_does_not_answer_for_a_family(self):
        # Spec Q with Betti numbers (2) fails at 2, also after Z[i] has
        # cached its replacement fiber "zerodim x" at 2
        fresh = _fresh_outcomes()
        wrong, zi_at_2 = _SHARED_FIBER_CALLS[3], _SHARED_FIBER_CALLS[6]
        assert fresh[3][0] == "SeparationError"
        with mock.patch.object(lfun, "_fiber_entry", _fresh_local_cache()):
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

    @pytest.mark.parametrize(
        "model, parity, s, cutoff", [("specq", "even", 2.0, 1), ("ell", "odd", 2.5, 2)]
    )
    def test_no_local_factor_raises(self, request, model, parity, s, cutoff):
        # no prime up to the cutoff, or only the excluded p = 2: a value
        # of 1 with a zero tail would be a wrong claim
        with pytest.raises(ValueError, match=f"no prime p <= {cutoff} contributes"):
            euler_product_value(request.getfixturevalue(model), parity, s, cutoff)


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
        # the library's traces, power sums of the parity's local factor,
        # against the per-block integer route they replaced and against
        # Newton's identities on each block's reversal over Q, summed
        # with multiplicity
        blocks = tuple(EigenvalueBlock(poly=tuple(low) + (lead,), mult=mult) for low, lead, mult in shapes)
        spec = NcSpectrum(q=PrimePower(5), even=blocks)
        want = [F(0)] * m
        for b in blocks:
            rev = tuple(F(c, b.poly[-1]) for c in reversed(b.poly))
            for i, t in enumerate(power_sums_inverse_roots(rev, m)):
                want[i] += b.mult * t
        got = power_sums_inverse_roots(nc_zeta(spec, "even").den, m)
        assert got == _block_power_sums(spec, "even", m) == want

    @given(
        st.lists(
            st.tuples(
                # no zero eigenvalue, as in every spectrum built from weights
                st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3).filter(
                    lambda c: c[0]
                ),
                st.sampled_from([1, 2, 5]),
                st.integers(min_value=1, max_value=2),
                st.booleans(),
            ),
            max_size=3,
        ),
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), max_size=3).filter(lambda c: not c or c[-1]),
            min_size=3,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_violations_match_reference_loops(self, specq, shapes, weight_polys, m):
        # one made-up local entry at every prime, most of it off its
        # circle, so the trace check reports violations
        blocks = {"even": [], "odd": []}
        for low, lead, mult, odd in shapes:
            blocks["odd" if odd else "even"].append(EigenvalueBlock(tuple(low) + (lead,), mult))
        spec = NcSpectrum(q=PrimePower(5), even=tuple(blocks["even"]), odd=tuple(blocks["odd"]))
        factors = tuple(WeightFactor(w, (1,) + tuple(c)) for w, c in enumerate(weight_polys))
        dec = WeightDecomposition(d=1, q=PrimePower(5), factors=factors)
        entry = (dec, spec, {parity: nc_zeta(spec, parity).den for parity in ("even", "odd")})
        with mock.patch.object(lfun, "_local_entry", lambda model, p: entry):
            for parity in ("even", "odd"):
                got = bounds_certificate(specq, parity, 30, m)
                assert got.as_dict() == _reference_bounds(specq, parity, 30, m).as_dict()
            for w in range(4):
                # an off-circle factor may vanish at the sample point
                got = _outcome(serre_bounds_certificate, specq, w, 30, m)
                assert got == _outcome(_reference_serre, specq, w, 30, m)

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

    @pytest.mark.parametrize("model, cutoff", [("specq", 1), ("ell", 2)])
    def test_serre_without_local_factor_raises(self, request, model, cutoff):
        with pytest.raises(ValueError, match=f"no prime p <= {cutoff} contributes"):
            serre_bounds_certificate(request.getfixturevalue(model), 0, cutoff, 3)

    def test_serre_above_top_weight_is_trivial(self, ell):
        # a curve has no weight-3 factor: every local factor is 1
        cert = serre_bounds_certificate(ell, 3, 200, 5)
        assert cert.ok and cert.C == 0
        assert cert.per_prime_chi and set(cert.per_prime_chi.values()) == {0}
        assert cert.sample_value == 1 and cert.sample_tail == 0


# The per-consumer prime loops that lfun._local_factors replaced, kept
# as references: each scans the primes itself, reads the spectrum or
# weight decomposition, and takes traces from the eigenvalue blocks.


def _block_power_sums(spec, parity, m):
    """trace(F^n) for n = 1..m, exact, from the block polynomials.

    A block B of degree d with leading coefficient L has eigenvalues mu
    whose multiples L*mu are the inverse roots of the integer polynomial
    1 + sum_k B_{d-k} L^{k-1} t^k, so Newton's identities give their
    power sums in integers.  With D the lcm of the leading coefficients,
    trace(F^n) = (sum of mult * (D/L)^n * p_n(L*mu)) / D^n.
    """
    blocks = spec.blocks(parity)
    D = math.lcm(*(b.poly[-1] for b in blocks))
    sums = [0] * m
    for b in blocks:
        d, L = b.degree, b.poly[-1]
        P = (1,) + tuple(b.poly[d - k] * L ** (k - 1) for k in range(1, d + 1))
        ratio = D // L
        for i, ps in enumerate(power_sums_inverse_roots(P, m)):
            sums[i] += b.mult * ps * ratio ** (i + 1)
    return [F(x, D ** (i + 1)) for i, x in enumerate(sums)]


def _reference_euler(model, parity, s, prime_cutoff, dps=lfun.EULER_DPS):
    s = complex(s)
    excluded, constant, used = [], 0, 0
    with mpmath.workdps(dps):
        s_mp = mpmath.mpc(s)
        total = mpmath.mpf(1)
        for p in primes_up_to(prime_cutoff):
            try:
                spec = local_spectrum(model, p)
            except BadPrimeError as exc:
                excluded.append(exc.p)
                continue
            chi = spec.chi(parity)
            constant = max(constant, chi)
            used += 1
            if chi:
                total = total / poly.evaluate(nc_zeta(spec, parity).den, mpmath.power(p, -s_mp))
        z_eff = s.real if parity == "even" else s.real - 0.5
        log_tail = lfun._tail_bound(constant, prime_cutoff, z_eff)
        tail = float(abs(total) * mpmath.expm1(log_tail)) if constant else 0.0
        value = complex(total)
    return EulerProductResult(parity, s, prime_cutoff, value, tail, constant, used, tuple(excluded))


def _reference_dirichlet(model, parity, N):
    spf = lfun._smallest_prime_factors(N)
    local, unhandled = {}, []
    for p in primes_up_to(N):
        k_max, pk = 0, p
        while pk <= N:
            k_max += 1
            pk *= p
        try:
            spec = local_spectrum(model, p)
        except BadPrimeError:
            unhandled.append(p)
            continue
        local[p] = nc_zeta(spec, parity).expand(k_max).coeffs
    if unhandled:
        raise ValueError(
            "bad primes without replacement inside the expansion range: "
            + ", ".join(str(p) for p in unhandled)
        )
    b = [F(0)] * (N + 1)
    b[1] = F(1)
    for n in range(2, N + 1):
        p, m, k = spf[n], n, 0
        while m % p == 0:
            m //= p
            k += 1
        b[n] = b[m] * local[p][k]
    return tuple(b[1:])


def _reference_bounds(model, parity, prime_cutoff, n_cutoff):
    per_prime, violations, excluded = {}, [], []
    for p in primes_up_to(prime_cutoff):
        try:
            spec = local_spectrum(model, p)
        except BadPrimeError:
            excluded.append(p)
            continue
        chi = spec.chi(parity)
        per_prime[p] = chi
        for n, t in enumerate(_block_power_sums(spec, parity, n_cutoff), start=1):
            ok = abs(t) <= chi if parity == "even" else t * t <= chi * chi * p**n
            if not ok:
                violations.append({"p": p, "n": n, "trace": str(t), "chi": chi})
    return BoundsCertificate(
        parity, max(per_prime.values(), default=0), None, prime_cutoff, n_cutoff,
        per_prime, len(per_prime), tuple(excluded), tuple(violations),
    )


def _reference_serre(model, w, prime_cutoff, n_cutoff, dps=lfun.EULER_DPS):
    per_prime, violations, excluded, factors = {}, [], [], {}
    for p in primes_up_to(prime_cutoff):
        try:
            dec = lfun._local_entry(model, p)[0]
        except BadPrimeError:
            excluded.append(p)
            continue
        factor = (1,) if w > 2 * dec.d else dec.factor(w).poly
        beta = len(factor) - 1
        per_prime[p] = beta
        factors[p] = factor
        if beta == 0:
            continue
        for n, t in enumerate(power_sums_inverse_roots(factor, n_cutoff), start=1):
            if t * t > F(beta * beta) * F(p) ** (w * n):
                violations.append({"p": p, "n": n, "trace": str(t), "chi": beta})
    C = max(per_prime.values(), default=0)
    sample_s = complex(w / 2 + 1.5)
    with mpmath.workdps(dps):
        s_mp = mpmath.mpc(sample_s)
        total = mpmath.mpf(1)
        for p, factor in factors.items():
            if len(factor) > 1:
                total = total / poly.evaluate(factor, mpmath.power(p, -s_mp))
        log_tail = lfun._tail_bound(C, prime_cutoff, sample_s.real - w / 2) if C else 0.0
        tail = float(abs(total) * mpmath.expm1(log_tail)) if C else 0.0
        value = complex(total)
    return BoundsCertificate(
        "weight", C, w, prime_cutoff, n_cutoff, per_prime, len(per_prime),
        tuple(excluded), tuple(violations), sample_s, value, tail,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", ["specq", "p1", "zi", "ell"])
class TestOneLocalFactorScan:
    """Each consumer of lfun._local_factors against the loop it replaced."""

    def test_parity_certificates(self, request, name):
        model = request.getfixturevalue(name)
        for parity in ("even", "odd"):
            got = bounds_certificate(model, parity, 300, 6)
            want = _reference_bounds(model, parity, 300, 6)
            assert got.as_dict() == want.as_dict()
            assert got.per_prime_chi == want.per_prime_chi

    def test_serre_certificates(self, request, name):
        model = request.getfixturevalue(name)
        for w in range(2 * model.d + 2):
            got = serre_bounds_certificate(model, w, 300, 6)
            want = _reference_serre(model, w, 300, 6)
            assert got.as_dict() == want.as_dict()
            assert got.per_prime_chi == want.per_prime_chi

    def test_euler_products(self, request, name):
        model = request.getfixturevalue(name)
        for parity, s in (("even", 2.0), ("odd", 2.5), ("even", 1.5 + 2j), ("odd", 3.0 - 1j)):
            assert euler_product_value(model, parity, s, 300) == _reference_euler(model, parity, s, 300)

    def test_dirichlet_expansions(self, request, name):
        model = request.getfixturevalue(name)
        for parity in ("even", "odd"):
            got = _outcome(dirichlet_expand, model, parity, 200)
            want = _outcome(_reference_dirichlet, model, parity, 200)
            assert (got.coeffs if isinstance(got, lfun.DirichletSeries) else got) == want


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


def _mpmath_zeta(s):
    with mpmath.workdps(40):
        return mpmath.zeta(mpmath.mpc(s))


def _mpmath_beta(s):
    # the mod-4 character through mpmath's Hurwitz-zeta L-series, a
    # route independent of lfun's own acceleration and reflection.  For
    # Re s < 0 mpmath reflects each Hurwitz zeta at 1 - s, where their
    # poles at s = 0 cancel: that costs about log10(1/|s|) digits (at
    # |s| = 1e-38, 40 digits leave 9), which the working precision adds
    extra = math.ceil(-math.log10(abs(s))) if 0 < abs(s) < 1 else 0
    with mpmath.workdps(40 + extra):
        return mpmath.dirichlet(mpmath.mpc(s), [0, 1, 0, -1])


# disks |s - j| <= 1/2 around j = -3..3, and the critical strip to |Im s| <= 8
_CONTINUATION_POINTS = st.one_of(
    st.builds(
        lambda j, r, a: j + cmath.rect(r, a),
        st.integers(-3, 3),
        st.floats(0, 0.5),
        st.floats(0, 2 * math.pi),
    ),
    st.builds(
        complex,
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.floats(-8, 8),
    ),
)


_CHARACTERS = [
    pytest.param("zeta", False, zeta_continuation, _mpmath_zeta, id="zeta"),
    pytest.param("beta", True, dirichlet_beta, _mpmath_beta, id="beta"),
]


class TestDoubleRoute:
    @pytest.mark.parametrize("name, odd, continuation, oracle", _CHARACTERS)
    @given(s=_CONTINUATION_POINTS)
    @settings(max_examples=150, deadline=None)
    def test_value_within_claimed_bound(self, name, odd, continuation, oracle, s):
        # a settled point is within its claimed relative bound of the
        # 40-digit value, and that bound is at most DOUBLE_TOL; any other
        # point is an mpmath fallback
        settled = lfun._double_route(s, odd)
        if settled is None:
            event(f"{name}: mpmath fallback")
            return
        value, rel = settled
        exact = oracle(s)
        assert rel <= lfun.DOUBLE_TOL
        assert abs(value - exact) <= rel * abs(exact), (s, value, exact, rel)

    @given(
        start=st.integers(1, 3),
        z=st.builds(complex, st.floats(-4, 5), st.floats(-8, 8)),
    )
    @settings(max_examples=300, deadline=None)
    def test_log_gamma_within_claimed_bound(self, start, z):
        # with Stirling's series started at Re x >= 1..3 instead of 9, its
        # remainder, not rounding, dominates the claimed error: L must
        # still be within err of the 40-digit log Gamma(x), and the shift
        # P within rel of the rising factorial z (z + 1) ... (z + m - 1),
        # which claims no bound (rel inf) at a pole of Gamma
        with mock.patch.object(lfun, "_STIRLING_FROM", start):
            P, L, rel, err = lfun._log_gamma(z)
        m = max(0, math.ceil(start - z.real))
        with mpmath.workdps(40):
            x = mpmath.mpc(z) + m
            assert abs(L - mpmath.loggamma(x)) <= err, (z, start)
            rising = mpmath.rf(mpmath.mpc(z), m)
            if rising == 0:
                assert rel == math.inf, (z, start)
            else:
                assert abs(P - rising) <= rel * abs(rising), (z, start)

    def test_analytic_dashboards_make_no_mpmath_call(self, specq, zi, p1, p2):
        # the 16 (model, j) dashboards evaluate nothing, and every contour
        # point of their second route, a winding count per distinct
        # factor, is settled in doubles
        counted = {name: _counted(getattr(mpmath, name)) for name in ("zeta", "gamma", "rgamma")}
        with mock.patch.multiple(mpmath, **counted):
            for model in (specq, zi, p1, p2):
                for j in (1, 0, -1, -2):
                    assert order_dashboard(model, j)
                    for fn, _ in _factor_functions(model):
                        assert winding_order(fn, j)[0] is not None
        assert {name: fn.calls for name, fn in counted.items()} == dict.fromkeys(counted, 0)

    def test_near_pole_takes_mpmath(self):
        s = 1 + 1e-14
        assert lfun._double_route(complex(s), odd=False) is None
        zeta_mp = _counted(mpmath.zeta)
        with mock.patch.object(mpmath, "zeta", zeta_mp):
            value = zeta_continuation(s)
        assert zeta_mp.calls == 1
        assert abs(value - complex(_mpmath_zeta(s))) <= 1e-12 * abs(value)

    def test_trivial_zero_of_beta_takes_mpmath(self):
        # the reflection's cos(pi s/2) vanishes at s = -1: the double
        # route claims no bound there, and the mpmath route returns the
        # zero finite
        assert lfun._double_route(-1 + 0j, odd=True) is None
        assert abs(dirichlet_beta(-1)) < 1e-30

    @pytest.mark.parametrize("name, odd, continuation, oracle", _CHARACTERS)
    @given(s=_CONTINUATION_POINTS)
    @settings(max_examples=150, deadline=None)
    def test_mpmath_route_matches_oracle(self, name, odd, continuation, oracle, s):
        # with the double route off every point takes the mpmath route,
        # which must agree with the 40-digit oracle (absolutely at an
        # exact zero)
        if name == "zeta" and s == 1:
            return
        with mock.patch.object(lfun, "_double_route", lambda s, odd: None):
            value = continuation(s)
        exact = complex(oracle(s))
        assert abs(value - exact) <= 1e-12 * (abs(exact) or 1), (s, value, exact)


class TestClosedForm:
    def test_product_of_factors(self, specq, p1, p2, zi, ell):
        assert abs(closed_form_l_function(specq, "even")(2.0) - ZETA2) < 1e-12
        assert abs(closed_form_l_function(p1, "even")(2.0) - ZETA2**2) < 1e-12
        assert abs(closed_form_l_function(p2, "even")(2.0) - ZETA2**3) < 1e-12
        assert abs(closed_form_l_function(zi, "even")(2.0) - ZETA2 * CATALAN) < 1e-12
        assert closed_form_l_function(zi, "odd")(2.0) == 1
        assert closed_form_l_function(ell, "even") is None

    def test_matches_40_digit_product(self, specq, p1, p2, zi):
        # euler_within_tail in the benchmark compares an Euler product with
        # the closed form at s in [2.5, 4] to its tail plus 1e-12
        rng = random.Random(18)
        points = [rng.uniform(2.5, 4.0) for _ in range(10)]
        points += [complex(rng.uniform(2.5, 4.0), rng.uniform(-10, 10)) for _ in range(10)]
        # (model, power of zeta, power of beta)
        models = ((specq, 1, 0), (p1, 2, 0), (p2, 3, 0), (zi, 1, 1))
        for s in points:
            z, b = _mpmath_zeta(s), _mpmath_beta(s)
            for model, zeta_power, beta_power in models:
                with mpmath.workdps(40):
                    want = complex(z**zeta_power * b**beta_power)
                got = closed_form_l_function(model, "even")(s)
                assert abs(got - want) <= 1e-13 * abs(want), (model.name, s)

    def test_factors_grouped_by_shift(self, p2, zi):
        # ((odd, shift), multiplicity) for L(s - shift), L = beta or zeta
        assert lfun._closed_form_factors(p2, "even") == (((False, 0), 3),)
        assert lfun._closed_form_factors(zi, "even") == (((False, 0), 1), ((True, 0), 1))
        assert lfun._closed_form_factors(p2, "odd") == ()
        mixed = ArithmeticModel.from_dict(
            {
                "name": "mixed",
                "family": "zerodim x",
                "betti": [1],
                "closed_form": {"MixedTate": [1, 0, 1]},
            }
        )
        assert lfun._closed_form_factors(mixed, "even") == (((False, 0), 1), ((False, 1), 2))
        zeta3 = complex(_mpmath_zeta(3))
        value = closed_form_l_function(mixed, "even")(3.0)
        assert abs(value - zeta3 * ZETA2**2) < 1e-12


def _counted(fn):
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


def _fixed_contour_order(fn, center, samples=256):
    """The fixed-contour count the adaptive contour replaced: wrapped
    phase steps between equally spaced samples, rounded.  Returns the
    order and the largest wrapped step."""
    total, largest, prev = 0.0, 0.0, None
    for k in range(samples + 1):
        theta = 2 * math.pi * (k % samples) / samples
        ang = cmath.phase(fn(center + WINDING_RADIUS * complex(math.cos(theta), math.sin(theta))))
        if prev is not None:
            step = (ang - prev + math.pi) % (2 * math.pi) - math.pi
            total += step
            largest = max(largest, abs(step))
        prev = ang
    return round(total / (2 * math.pi)), largest


_MULTIPLICITY = st.sampled_from((-2, -1, 1, 2, 3))
_GAP = st.floats(0.01, 0.2)


@st.composite
def _zeros_and_poles(draw):
    """(center, [(point, multiplicity)]): one to five zeros and poles
    0.01-0.2 inside or outside the contour, some with a dipole partner
    of opposite multiplicity at a nearby angle."""
    center = draw(st.sampled_from((0.0, 1.0, -2.0)))
    points = []

    def place(angle, m):
        gap = draw(_GAP)
        modulus = WINDING_RADIUS - gap if draw(st.booleans()) else WINDING_RADIUS + gap
        points.append((center + cmath.rect(modulus, angle), m))

    for _ in range(draw(st.integers(1, 5))):
        angle, m = draw(st.floats(0, 2 * math.pi)), draw(_MULTIPLICITY)
        place(angle, m)
        if draw(st.booleans()):
            place(angle + draw(st.floats(-0.05, 0.05)), -m)
    return center, points


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

    def test_contour_through_pole_is_indeterminate(self):
        # the sample at theta = pi lands 3e-17 from the pole at s = 1
        assert winding_order(zeta_continuation, 1.25) == (None, math.inf)

    def test_sample_at_pole_is_indeterminate(self):
        # the sample at theta = 0 is s = 1 exactly, where zeta raises
        assert winding_order(zeta_continuation, 0.75) == (None, math.inf)

    def test_refinement_floor_bounds_the_work(self):
        # a zero 1e-9 outside the contour would need arcs far below
        # 1/1024 of the starting step
        fn = _counted(lambda z: z - (WINDING_RADIUS + 1e-9))
        assert winding_order(fn, 0.0) == (None, math.inf)
        assert fn.calls <= 2 * WINDING_SAMPLES

    @pytest.mark.parametrize("bad", [0j, complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_zero_or_nonfinite_sample_is_indeterminate(self, bad):
        def fn(z):
            return bad if z == WINDING_RADIUS else z

        assert winding_order(fn, 0.0) == (None, math.inf)

    @given(_zeros_and_poles())
    @settings(max_examples=200)
    def test_matches_true_order_and_fixed_contour(self, case):
        center, points = case

        def fn(z):
            out = complex(1.0)
            for a, m in points:
                out *= (z - a) ** m
            return out

        true = sum(m for a, m in points if abs(a - center) < WINDING_RADIUS)
        order, residual = winding_order(fn, center)
        assert order == true
        assert residual < 1e-9
        # The fixed route aliases when stacked zeros or poles turn the
        # phase by more than pi between two of its samples (three double
        # poles 0.01 outside do); where every step it took stays below
        # pi/2 it resolved the contour and must agree.
        fixed, largest_step = _fixed_contour_order(fn, center)
        if largest_step < math.pi / 2:
            assert fixed == order

    @pytest.mark.parametrize("j", [1, 0, -1, -2])
    def test_zeta_evaluation_count(self, j):
        fn = _counted(zeta_continuation)
        assert winding_order(fn, j)[0] is not None
        assert fn.calls <= 2 * WINDING_SAMPLES


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

    @pytest.mark.parametrize(
        "name, orders",
        [
            ("specq", (-1, 0, 0, 1, 0)),
            ("zi", (-1, 0, 1, 1, 1)),
            ("p1", (-2, 0, 0, 2, 0)),
            ("p2", (-3, 0, 0, 3, 0)),
        ],
    )
    def test_orders_pinned(self, request, name, orders):
        model = request.getfixturevalue(name)
        for j, expected in zip((1, 0, -1, -2, -3), orders):
            by = {r["parity"]: r for r in order_dashboard(model, j)}
            assert by["even"]["ord_computed"] == expected, j
            assert by["odd"]["ord_computed"] == 0 and by["odd"]["residual"] == 0.0

    @pytest.mark.parametrize("name", ["specq", "zi", "p1", "p2"])
    def test_orders_match_winding(self, request, name):
        # every analytic (model, j) pair: the exact orders against the
        # winding count of the continued closed form, factor by factor
        model = request.getfixturevalue(name)
        for j in (1, 0, -1, -2):
            by = {r["parity"]: r for r in order_dashboard(model, j)}
            wound = sum(m * winding_order(fn, j)[0] for fn, m in _factor_functions(model))
            assert by["even"]["ord_computed"] == wound, j
            assert by["even"]["residual"] == 0.0

    def test_no_continuation_on_the_dashboard_path(self, specq, zi, p1, p2):
        # orders come from the exact rule alone: with every continuation
        # and the winding count refusing to run, the 16 analytic
        # dashboards still give their pinned orders
        def refuse(*args, **kwargs):
            raise AssertionError("the dashboard evaluated a continuation")

        pinned = {"specq": (-1, 0, 0, 1), "zi": (-1, 0, 1, 1), "p1": (-2, 0, 0, 2), "p2": (-3, 0, 0, 3)}
        names = ("zeta_continuation", "dirichlet_beta", "winding_order", "_l_double")
        with mock.patch.multiple(lfun, **dict.fromkeys(names, refuse)), mock.patch.object(
            mpmath, "zeta", refuse
        ):
            for model, name in ((specq, "specq"), (zi, "zi"), (p1, "p1"), (p2, "p2")):
                for j, expected in zip((1, 0, -1, -2), pinned[name]):
                    by = {r["parity"]: r for r in order_dashboard(model, j)}
                    assert by["even"]["ord_computed"] == expected, (name, j)

    @pytest.mark.parametrize("j", [0.75, 1.0, True, "1", None])
    def test_non_integer_j_raises(self, zi, j):
        # orders are exact at integers only; a non-integer point is a
        # winding_order question (see TestWindingOrder)
        with pytest.raises(ValueError, match="integer j"):
            order_dashboard(zi, j)

    def test_rows_keep_their_keys(self, zi, ell):
        keys = ["j", "parity", "ord_computed", "rank_name", "rank_supplied"]
        for row in order_dashboard(zi, 1)[:2]:
            assert list(row) == keys + ["residual", "verdict", "note"]
        for row in order_dashboard(ell, 1)[:2]:
            assert list(row) == keys + ["verdict", "note"]


def _factor_functions(model):
    """(callable, multiplicity) for each distinct factor of the even closed
    form, built as closed_form_l_function builds them: L(s - shift)."""
    out = []
    for (odd, shift), m in lfun._closed_form_factors(model, "even"):
        fn = dirichlet_beta if odd else zeta_continuation
        out.append(((lambda s, fn=fn, shift=shift: fn(complex(s) - shift)), m))
    return out


class TestExactOrder:
    @pytest.mark.parametrize("n", range(-6, 4))
    @pytest.mark.parametrize(
        "odd, fn",
        [pytest.param(False, zeta_continuation, id="zeta"), pytest.param(True, dirichlet_beta, id="beta")],
    )
    def test_matches_winding(self, odd, fn, n):
        order, residual = winding_order(fn, n)
        assert lfun._exact_order(odd, n) == order
        assert residual < 1e-9

    def test_known_orders(self):
        # the pole of zeta, its trivial zeros at negative even integers,
        # beta's at negative odd ones, and nonzero values elsewhere
        zeta_orders = [lfun._exact_order(False, n) for n in range(-6, 4)]
        beta_orders = [lfun._exact_order(True, n) for n in range(-6, 4)]
        assert zeta_orders == [1, 0, 1, 0, 1, 0, 0, -1, 0, 0]
        assert beta_orders == [0, 1, 0, 1, 0, 1, 0, 0, 0, 0]

    @given(
        shifts=st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        j=st.integers(-6, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_tate_matches_winding(self, shifts, j):
        # any mixed-Tate closed form: the dashboard's exact order against
        # the winding count of each distinct shifted zeta
        model = ArithmeticModel.from_dict(
            {"family": "zerodim x", "betti": [1], "closed_form": {"MixedTate": shifts}}
        )
        by = {r["parity"]: r for r in order_dashboard(model, j)}
        wound = sum(m * winding_order(fn, j)[0] for fn, m in _factor_functions(model))
        assert by["even"]["ord_computed"] == wound


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
