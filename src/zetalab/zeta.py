"""From point counts to the zeta function, its weight factorization, and
the classical checks.

Pipeline: exact series from counts, rational reconstruction (degrees
bounded by the Betti numbers when supplied, otherwise the least total
degree, which the number of counts bounds), separation of
numerator/denominator roots along the modulus ladder q^{w/2} into
integer weight factors, then the per-weight checks: inverse-root
moduli, algebraic-integrality certificates, the functional equation
relating s and d-s, and exact pole/zero orders at every real point.

fiber_decomposition is the one route from a fiber to its weight
factors, for the CLI and lfun alike: a closed form
(counting.local_weights) is read, and only other shapes are counted
(and, given a cache_dir, cached by counting.count_series).

The factorization uses no floats: each weight factor is an integer gcd
of a side with its q^w-mirror, certified on its circle by
series.roots_on_circle and divided out exactly, and the exact product
must reproduce the input rational function, otherwise the factorization
fails loudly.  The moduli check takes its verdict from the same
certificate; numeric roots are computed only to give a failing factor
its witness.  Orders need no roots either: the minimal polynomial of
q^{-z} over Q is a binomial (Capelli), and its exact power in each side
of Z is the order (ord_at).  The functional equation is Weil's exact
coefficient identity between Z(1/(q^d t)) and t^chi Z(t), which decides
the verdict and the sign; its complex sample points are only reported.
So no float decides a verdict here, and this module does not import
mpmath.  All polynomial arithmetic is zetalab.poly's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .arith import DEFAULT_DEGREE_CAP, PrimePower
from .counting import DEFAULT_BUDGET, VarietySpec, count_series, local_weights
from .report import FAIL, PASS, Check
from .series import (
    DEFAULT_PRECISION,
    DEFAULT_SAMPLE_TOL,
    PowerSeries,
    RationalFunction,
    functional_samples,
    functional_witnesses,
    power_sums_inverse_roots,
    rational_reconstruct,
    roots_on_circle,
    worst_modulus,
)

__all__ = [
    "HypothesisWarning",
    "ReconstructionError",
    "SeparationError",
    "WeightDecomposition",
    "WeightFactor",
    "default_degrees",
    "fiber_decomposition",
    "hasse_weil_functional_check",
    "l_adic_check",
    "lefschetz_counts",
    "ord_at",
    "weight_factorize",
    "weil_check",
    "zeta_from_counts",
    "zeta_rational",
]

DEFAULT_SAMPLE_POINTS = (0.3, 1.2 + 0.7j, -0.4)


class HypothesisWarning(UserWarning):
    """A mathematical side condition looks violated (for example
    non-integer or negative zeta coefficients); the computation proceeds
    because the input may still be deliberate."""


class ReconstructionError(ValueError):
    """Counts are inconsistent with a rational zeta at the stated degrees."""


class SeparationError(RuntimeError):
    """Weil-type separation failed: possible non-smooth input."""


# ---------------------------------------------------------------------------
# Weight data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFactor:
    """One weight-w factor: an integer polynomial with constant term 1
    whose inverse roots should have modulus q^{w/2}."""

    w: int
    poly: tuple  # integer coefficients, low degree first, poly[0] == 1

    def __post_init__(self):
        if not self.poly or self.poly[0] != 1:
            raise ValueError("weight factor must have constant term 1")
        if any(not isinstance(c, int) for c in self.poly):
            raise ValueError("weight factor must have integer coefficients")

    @property
    def beta(self):
        return len(self.poly) - 1

    def eigenvalue_polynomial(self):
        """Monic integer polynomial with the inverse roots as roots
        (coefficients low degree first)."""
        return tuple(reversed(self.poly))


@dataclass(frozen=True)
class WeightDecomposition:
    """Weight factors P_0..P_{2d} with numerator = odd weights and
    denominator = even weights of the zeta rational function."""

    d: int
    q: PrimePower
    factors: tuple  # WeightFactor for w = 0..2d

    def __post_init__(self):
        if len(self.factors) != 2 * self.d + 1:
            raise ValueError("need one factor per weight 0..2d")
        for w, f in enumerate(self.factors):
            if f.w != w:
                raise ValueError("factors must be indexed by weight")

    @property
    def betti(self):
        return tuple(f.beta for f in self.factors)

    @property
    def euler_characteristic(self):
        return sum((-1) ** w * f.beta for w, f in enumerate(self.factors))

    def factor(self, w) -> WeightFactor:
        return self.factors[w]

    def to_rational(self) -> RationalFunction:
        num, den = (1,), (1,)
        for w, f in enumerate(self.factors):
            if w % 2 == 1:
                num = poly.mul(num, f.poly)
            else:
                den = poly.mul(den, f.poly)
        return RationalFunction(num, den, reduce=False)


# ---------------------------------------------------------------------------
# Counts -> series -> rational function
# ---------------------------------------------------------------------------


def _counts_list(counts):
    values = list(counts.counts) if hasattr(counts, "counts") else list(counts)
    if not values:
        raise ValueError("need at least one point count")
    return values


def zeta_from_counts(counts) -> PowerSeries:
    """exp of sum N_n t^n / n, exactly, to the order the counts allow,
    by Newton's recurrence n z_n = sum_(k=1..n) N_k z_(n-k) in integers
    (a Fraction only where n does not divide).

    Genuine varieties give non-negative integer coefficients; a
    violation raises HypothesisWarning (not an error) since the caller
    may be probing synthetic data.
    """
    values = _counts_list(counts)
    z = [1]
    for n in range(1, len(values) + 1):
        acc = sum(values[k - 1] * z[n - k] for k in range(1, n + 1))
        z.append(acc // n if isinstance(acc, int) and acc % n == 0 else Fraction(acc, n))
    z = PowerSeries(z)
    bad = [(i, c) for i, c in enumerate(z.coeffs) if c.denominator != 1 or c < 0]
    if bad:
        warnings.warn(
            f"zeta coefficients are not non-negative integers "
            f"(first offender: t^{bad[0][0]} -> {bad[0][1]}); "
            f"the input may not come from a variety",
            HypothesisWarning,
            stacklevel=2,
        )
    return z


def zeta_rational(counts, betti=None) -> RationalFunction:
    """Rational zeta from counts, by series.rational_reconstruct, which
    matches every supplied count.

    With Betti numbers the degrees are bounded: numerator by the sum of
    odd Betti numbers, denominator by the sum of even ones.  Without
    them the answer is the function of least total degree, which the
    number of counts bounds.
    """
    values = _counts_list(counts)
    series = zeta_from_counts(values)
    if betti is None:
        return rational_reconstruct(series)
    betti = tuple(int(b) for b in betti)
    dn = sum(b for w, b in enumerate(betti) if w % 2 == 1)
    dd = sum(b for w, b in enumerate(betti) if w % 2 == 0)
    if len(values) < dn + dd:
        raise ReconstructionError(
            f"insufficient counts for the stated Betti numbers: "
            f"need {dn + dd}, have {len(values)}"
        )
    Z = rational_reconstruct(series, (dn, dd))
    if Z is None:
        raise ReconstructionError(
            "reconstruction mismatch: counts are inconsistent with the "
            "stated Betti numbers"
        )
    return Z


# ---------------------------------------------------------------------------
# Weight factorization
# ---------------------------------------------------------------------------


def _factor_side(side, rungs, q):
    """Split one side (numerator or denominator) into per-weight integer
    factors.  rungs: [(w, beta)] in ascending w, beta > 0, one parity.

    A single rung takes the whole side, uncertified, so a non-Weil side
    still reaches weil_check as a FAIL with a witness.  Otherwise, with
    E the monic eigenvalue polynomial of the side (degree n), the rung-w
    part is gcd(E, x^n E(q^w/x)): a root x on |x| = q^{w/2} has its
    conjugate q^w/x among the roots too, and once the lower rungs are
    divided out no higher rung pairs down into q^w.  Each part must be certified
    on its circle (roots_on_circle) with degree beta and is divided out
    exactly; the last rung takes the rest, certified the same way.
    """
    deg = len(side) - 1
    total = sum(b for _, b in rungs)
    if total != deg:
        raise SeparationError(
            f"Weil-type separation failed: side degree {deg} against "
            f"betti total {total}"
        )
    if len(rungs) <= 1:
        return {w: side for w, _ in rungs}
    E = side[::-1]
    out = {}
    for i, (w, beta) in enumerate(rungs):
        Q = q.q**w
        part = E
        if i < len(rungs) - 1:
            n = len(E) - 1
            part = poly.gcd(E, [E[n - k] * Q ** (n - k) for k in range(n + 1)])
            E = poly.divrem(E, part)[0]
        if len(part) - 1 != beta or not roots_on_circle(part, Q):
            raise SeparationError(
                f"Weil-type separation failed: possible non-smooth input "
                f"(the weight-{w} part has degree {len(part) - 1} against "
                f"beta {beta}, or roots off |x| = q^{{{w}/2}})"
            )
        out[w] = tuple(part[::-1])
    return out


def weight_factorize(Z: RationalFunction, q: PrimePower, d: int, betti) -> WeightDecomposition:
    """Separate Z into weight factors along the ladder q^{w/2}, exactly.

    Odd weights live in the numerator, even weights in the denominator.
    The returned factors are integer polynomials whose exact alternating
    product reproduces Z; anything short of that exact identity raises,
    and so does a side spread over several weights whose parts are not
    on their circles with their Betti degrees (SeparationError).
    """
    betti = tuple(betti)
    if len(betti) != 2 * d + 1:
        raise ValueError(f"need Betti numbers for weights 0..{2 * d}")
    if any(c.denominator != 1 for c in Z.num + Z.den):
        raise SeparationError(
            "Weil-type separation failed: the zeta function has non-integer coefficients"
        )
    odd_rungs = [(w, b) for w, b in enumerate(betti) if w % 2 == 1 and b > 0]
    even_rungs = [(w, b) for w, b in enumerate(betti) if w % 2 == 0 and b > 0]
    odd_factors = _factor_side(Z.num, odd_rungs, q)
    even_factors = _factor_side(Z.den, even_rungs, q)
    factors = []
    for w in range(2 * d + 1):
        src = odd_factors if w % 2 == 1 else even_factors
        factors.append(WeightFactor(w=w, poly=src.get(w, (1,))))
    dec = WeightDecomposition(d=d, q=q, factors=tuple(factors))
    rebuilt = dec.to_rational()
    if rebuilt.num != Z.num or rebuilt.den != Z.den:
        raise SeparationError(
            "Weil-type separation failed: the exact product of the "
            "factors does not reproduce the zeta function"
        )
    return dec


_NOT_POLAR = "replacement fibers must have a polar zeta (dimension 0)"


def default_degrees(betti) -> int:
    """Extension degrees counted when none are given: max(2, sum(betti))."""
    return max(2, sum(betti))


def fiber_decomposition(
    spec: VarietySpec,
    q: PrimePower,
    betti,
    *,
    degrees=None,
    cache_dir=None,
    budget: int = DEFAULT_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> WeightDecomposition:
    """The weight factors P_0..P_2d of the variety spec over F_q; their
    degrees must be betti, or SeparationError.  A closed form
    (counting.local_weights) is read off: nothing is counted, rebuilt or
    cached, and degrees is unused.  Any other shape is counted over
    F_{q^n}, n <= degrees (default_degrees(betti) by default; through
    cache_dir when given), reconstructed and separated.
    betti None means a zero-dimensional replacement fiber (degrees then
    required): a closed form must have one weight, and a counted zeta,
    reconstructed at its least total degree, must be polar, numerator 1
    and the denominator's inverse roots on |x| = 1 (not P^1's), or
    ValueError."""
    weights = local_weights(spec, q, budget=budget)
    if weights is not None:
        factors = tuple(WeightFactor(w, P) for w, P in enumerate(weights))
        dec = WeightDecomposition(len(weights) // 2, q, factors)
        if betti is None and dec.d > 0:
            raise ValueError(_NOT_POLAR)
        if betti is not None and dec.betti != tuple(betti):
            raise SeparationError(f"weight degrees {dec.betti} against betti {tuple(betti)}")
        return dec
    m = default_degrees(betti) if degrees is None else degrees
    counts = count_series(spec, q, m, cache_dir=cache_dir, budget=budget, degree_cap=degree_cap)
    Z = zeta_rational(counts, betti)
    if betti is None:
        if len(Z.num) > 1 or not roots_on_circle(Z.den[::-1], 1):
            raise ValueError(_NOT_POLAR)
        betti = (len(Z.den) - 1,)
    return weight_factorize(Z, q, (len(betti) - 1) // 2, betti)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def weil_check(dec: WeightDecomposition, *, precision: int = DEFAULT_PRECISION):
    """Per weight: inverse-root moduli against q^{w/2}.  Integrality is
    reported as True: WeightFactor admits integer coefficients only.

    The verdict is exact (series.roots_on_circle), and a PASS reports
    deviation 0.0.  Only a FAIL finds the roots, at the given precision,
    to report the largest relative modulus deviation as its witness.
    """
    checks = []
    for f in dec.factors:
        if f.beta == 0:
            continue
        eig, Q = f.eigenvalue_polynomial(), dec.q.q**f.w
        on_circle = roots_on_circle(eig, Q)
        worst_f = 0.0 if on_circle else worst_modulus(eig, Q, precision)[0]
        checks.append(
            Check(
                name=f"weil.weight{f.w}",
                verdict=PASS if on_circle else FAIL,
                detail=(
                    f"beta={f.beta}, max relative modulus deviation {worst_f:.3e} "
                    f"vs target q^{{{f.w}/2}}"
                ),
                data={
                    "weight": f.w,
                    "beta": f.beta,
                    "max_rel_deviation": worst_f,
                    "integer_coefficients": True,
                },
            )
        )
    return checks


def _strip_prime(n, p):
    n = abs(n)
    while n > 1 and n % p == 0:
        n //= p
    return n


def l_adic_check(dec: WeightDecomposition):
    """Per weight: the constant term of the eigenvalue polynomial is (up
    to sign) the expected power of q with prime support {p}: the
    certificate that all prime-to-p valuations of the inverse roots
    vanish.  The polynomial is integer monic by construction (WeightFactor
    requires integer coefficients and P(0) = 1), reported as True."""
    checks = []
    p = dec.q.p
    for f in dec.factors:
        if f.beta == 0:
            continue
        eig = f.eigenvalue_polynomial()
        const = eig[0]
        q_power_ok = const * const == dec.q.q ** (f.w * f.beta)
        support_ok = _strip_prime(const, p) == 1
        ok = q_power_ok and support_ok
        checks.append(
            Check(
                name=f"ladic.weight{f.w}",
                verdict=PASS if ok else FAIL,
                detail=(
                    f"eigenvalue polynomial constant {const}; "
                    f"expected magnitude q^{{{f.w}*{f.beta}/2}}"
                ),
                data={
                    "weight": f.w,
                    "constant_term": const,
                    "monic_integer": True,
                    "constant_matches_q_power": q_power_ok,
                    "prime_support_only_p": support_ok,
                },
            )
        )
    return checks


def hasse_weil_functional_check(
    dec: WeightDecomposition, sample_points=DEFAULT_SAMPLE_POINTS, tol: float = DEFAULT_SAMPLE_TOL
):
    """Weil's functional equation Z(1/(q^d t)) = sign q^{d chi/2} t^chi Z(t),
    that is zeta(s) = sign q^{chi s - chi d/2} zeta(d - s).

    The verdict and the sign are exact: series.functional_witnesses
    checks Z(x) = C x^{-chi} Z(1/(q^d x)) coefficient by coefficient, and
    on success C^2 q^{chi d} = 1, so C = sign q^{-chi d/2} with the sign
    of C.  The sample points are the reported second route
    (series.functional_samples, tol only classifies them); witnesses
    lists the exact ones {"k", "lhs", "rhs"}, then the sampled ones
    {"s", "lhs", "rhs"}.
    """
    Z = dec.to_rational()
    chi, d, q = dec.euler_characteristic, dec.d, dec.q.q
    CQ, bad = functional_witnesses(Z, q**d, chi)
    sign = None if bad else (1 if CQ > 0 else -1)
    used, skipped, sampled = functional_samples(Z, q, q**d, chi, CQ, sample_points, tol)
    witnesses = bad + sampled
    ok = sign is not None
    return Check(
        name="functional.hasse_weil",
        verdict=PASS if ok else FAIL,
        detail=(
            f"sign {sign:+d} on {len(used)} sample points"
            if ok
            else f"{len(bad)} coefficients off the exact identity, "
            f"{len(sampled)} sample points off it"
        ),
        data={
            "sign": sign,
            "euler_characteristic": chi,
            "points_used": used,
            "points_skipped_at_poles": skipped,
            "witnesses": witnesses,
        },
    )


# ---------------------------------------------------------------------------
# Exact orders at real points
# ---------------------------------------------------------------------------


def ord_at(Z: RationalFunction, q: PrimePower, z) -> int:
    """ord_{s=z} of Z(q^{-s}) at a real z (int, Fraction or float; a
    float is the dyadic rational it stores): positive at zeros, negative
    at poles, always exact.

    Write q = p^r and r*z = A/B in lowest terms.  Then x0 = q^{-z} =
    p^{-A/B} is a root of the primitive m = p^A x^B - 1 (x^B - p^{-A}
    when A < 0), which is irreducible over Q by Capelli's theorem (Lang,
    Algebra, VI 9.1): p^{-A} is positive and, as gcd(A, B) = 1, no l-th
    power for any prime l dividing B.  A rational polynomial vanishes to
    the same order at every root of an irreducible factor, so the order
    at z is the exact power of m dividing the numerator minus the power
    dividing the denominator.  Without building m the order is 0 when B
    exceeds the degree of both sides, or when x0 lies outside the Cauchy
    bounds 1/(1 + H) < |x| < 1 + H on the nonzero roots (H the largest
    coefficient of the primitive sides): |A| (bitlen(p) - 1) >
    B bitlen(1 + H) gives p^|A| > (1 + H)^B, so p^|A| is never built for
    a far-off z.
    """
    num, den = poly.primitive(Z.num), poly.primitive(Z.den)
    rz = q.r * Fraction(z)
    A, B = rz.numerator, rz.denominator
    height = max(map(abs, num + den))
    far = abs(A) * (q.p.bit_length() - 1) > B * (1 + height).bit_length()
    if far or B >= max(len(num), len(den)):
        return 0
    gap = (0,) * (B - 1)
    m = (-1,) + gap + (q.p**A,) if A >= 0 else (-(q.p**-A),) + gap + (1,)
    return poly.multiplicity(num, m)[0] - poly.multiplicity(den, m)[0]


# ---------------------------------------------------------------------------
# Lefschetz roundtrip
# ---------------------------------------------------------------------------


def lefschetz_counts(dec: WeightDecomposition, m: int):
    """Recover N_n = sum_w (-1)^w (power sums of inverse roots of P_w)
    for n = 1..m, exactly, from the factor polynomials alone."""
    totals = [0] * m
    for f in dec.factors:
        if f.beta == 0:
            continue
        sums = power_sums_inverse_roots(f.poly, m)
        sign = (-1) ** f.w
        for i in range(m):
            totals[i] += sign * sums[i]
    return totals
