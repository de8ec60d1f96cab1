"""From point counts to the zeta function, its weight factorization, and
the classical checks.

Pipeline: exact series from counts, rational reconstruction (degrees
from Betti numbers when supplied, scanned otherwise), separation of
numerator/denominator roots along the modulus ladder q^{w/2} into
integer weight factors, then the per-weight checks: inverse-root
moduli, algebraic-integrality certificates, the functional equation
relating s and d-s, and exact pole/zero orders.

The factorization uses no floats: each weight factor is an integer gcd
of a side with its q^w-mirror, certified on its circle by
series.roots_on_circle and divided out exactly, and the exact product
must reproduce the input rational function, otherwise the factorization
fails loudly.  The moduli check takes its verdict from the same
certificate; numeric roots are computed only to give a failing factor
its witness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .arith import PrimePower
from .report import FAIL, PASS, Check
from .series import (
    DEFAULT_PRECISION,
    PadeError,
    PowerSeries,
    RationalFunction,
    _int_poly_divmod_monic,
    _int_poly_gcd,
    exp_series,
    pade_reconstruct,
    poly_deg,
    poly_eval,
    poly_mul,
    poly_trim,
    polynomial_roots,
    power_sums_inverse_roots,
    root_multiplicity,
    roots_on_circle,
)

__all__ = [
    "HypothesisWarning",
    "OrdResult",
    "ReconstructionError",
    "SeparationError",
    "WeightDecomposition",
    "WeightFactor",
    "DEGREE_SCAN_CAP",
    "hasse_weil_functional_check",
    "l_adic_check",
    "lefschetz_counts",
    "ord_at",
    "weight_factorize",
    "weil_check",
    "zeta_from_counts",
    "zeta_rational",
]

DEGREE_SCAN_CAP = 24
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
                num = poly_mul(num, f.poly)
            else:
                den = poly_mul(den, f.poly)
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
    """exp of sum N_n t^n / n, exactly, to the order the counts allow.

    Genuine varieties give non-negative integer coefficients; a
    violation raises HypothesisWarning (not an error) since the caller
    may be probing synthetic data.
    """
    values = _counts_list(counts)
    log_z = PowerSeries([Fraction(0)] + [Fraction(v, n + 1) for n, v in enumerate(values)])
    z = exp_series(log_z)
    bad = [
        (i, c)
        for i, c in enumerate(z.coeffs)
        if c.denominator != 1 or c < 0
    ]
    if bad:
        warnings.warn(
            f"zeta coefficients are not non-negative integers "
            f"(first offender: t^{bad[0][0]} -> {bad[0][1]}); "
            f"the input may not come from a variety",
            HypothesisWarning,
            stacklevel=2,
        )
    return z


def zeta_rational(counts, betti=None, *, degree_cap=DEGREE_SCAN_CAP) -> RationalFunction:
    """Rational zeta from counts.

    With Betti numbers the degrees are fixed: numerator = sum of odd
    Betti numbers, denominator = sum of even ones.  Without them, total
    degree is scanned upward; every candidate must re-verify against all
    supplied counts before being accepted.
    """
    values = _counts_list(counts)
    m = len(values)
    series = zeta_from_counts(values)

    def verify(cand, dn, dd):
        # pade_reconstruct has matched the series up to t^(dn + dd)
        return dn + dd >= m or cand.expand(m).coeffs == series.coeffs

    if betti is not None:
        betti = tuple(int(b) for b in betti)
        dn = sum(b for w, b in enumerate(betti) if w % 2 == 1)
        dd = sum(b for w, b in enumerate(betti) if w % 2 == 0)
        if m < dn + dd:
            raise ReconstructionError(
                f"insufficient counts for the stated Betti numbers: "
                f"need {dn + dd}, have {m}"
            )
        try:
            cand = pade_reconstruct(series, dn, dd)
        except PadeError as exc:
            raise ReconstructionError(f"reconstruction failed: {exc}") from exc
        if not verify(cand, dn, dd):
            raise ReconstructionError(
                "reconstruction mismatch: counts are inconsistent with the "
                "stated Betti numbers"
            )
        return cand
    for total in range(0, min(degree_cap, m) + 1):
        for dn in range(total + 1):
            dd = total - dn
            try:
                cand = pade_reconstruct(series, dn, dd)
            except PadeError:
                continue
            if verify(cand, dn, dd):
                return cand
    raise ReconstructionError(
        f"no rational function of total degree <= {min(degree_cap, m)} "
        f"matches the supplied counts; supply Betti numbers or more counts"
    )


# ---------------------------------------------------------------------------
# Weight factorization
# ---------------------------------------------------------------------------


def _side_int(coeffs, what):
    out = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise SeparationError(
                f"Weil-type separation failed: {what} has non-integer "
                f"coefficient {c}"
            )
        out.append(int(c))
    return tuple(out)


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
    deg = poly_deg(side)
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
            part = _int_poly_gcd(E, [E[n - k] * Q ** (n - k) for k in range(n + 1)])
            E = _int_poly_divmod_monic(E, part)[0]
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
    betti = tuple(int(b) for b in betti)
    if len(betti) != 2 * d + 1:
        raise ValueError(f"need Betti numbers for weights 0..{2 * d}")
    num = _side_int(Z.num, "numerator")
    den = _side_int(Z.den, "denominator")
    odd_rungs = [(w, b) for w, b in enumerate(betti) if w % 2 == 1 and b > 0]
    even_rungs = [(w, b) for w, b in enumerate(betti) if w % 2 == 0 and b > 0]
    odd_factors = _factor_side(num, odd_rungs, q)
    even_factors = _factor_side(den, even_rungs, q)
    factors = []
    for w in range(2 * d + 1):
        src = odd_factors if w % 2 == 1 else even_factors
        factors.append(WeightFactor(w=w, poly=src.get(w, (1,))))
    dec = WeightDecomposition(d=d, q=q, factors=tuple(factors))
    rebuilt = dec.to_rational()
    if poly_trim(rebuilt.num) != poly_trim(Z.num) or poly_trim(rebuilt.den) != poly_trim(Z.den):
        raise SeparationError(
            "Weil-type separation failed: the exact product of the "
            "factors does not reproduce the zeta function"
        )
    return dec


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def weil_check(dec: WeightDecomposition, *, precision: int = DEFAULT_PRECISION):
    """Per weight: inverse-root moduli against q^{w/2}, and exact
    integrality of the factor.

    The verdict is exact (series.roots_on_circle), and a PASS reports
    deviation 0.0.  Only a FAIL finds the roots, at the given precision,
    to report the largest relative modulus deviation as its witness.
    """
    checks = []
    for f in dec.factors:
        if f.beta == 0:
            continue
        integral = all(isinstance(c, int) for c in f.poly)
        on_circle = roots_on_circle(f.eigenvalue_polynomial(), dec.q.q**f.w)
        worst_f = 0.0 if on_circle else _max_modulus_deviation(f, dec.q, precision)
        ok = integral and on_circle
        checks.append(
            Check(
                name=f"weil.weight{f.w}",
                verdict=PASS if ok else FAIL,
                detail=(
                    f"beta={f.beta}, max relative modulus deviation {worst_f:.3e} "
                    f"vs target q^{{{f.w}/2}}"
                ),
                data={
                    "weight": f.w,
                    "beta": f.beta,
                    "max_rel_deviation": worst_f,
                    "integer_coefficients": integral,
                },
            )
        )
    return checks


def _max_modulus_deviation(f: WeightFactor, q: PrimePower, precision):
    """max |(|inverse root| / q^{w/2}) - 1| over the factor, numerically."""
    roots = polynomial_roots(f.poly, precision)
    with mpmath.workdps(precision + 10):
        target = mpmath.power(q.q, mpmath.mpf(f.w) / 2)
        return float(max(abs(1 / abs(x) / target - 1) for x, _ in roots))


def _strip_prime(n, p):
    n = abs(n)
    while n > 1 and n % p == 0:
        n //= p
    return n


def l_adic_check(dec: WeightDecomposition):
    """Per weight: the eigenvalue polynomial is integer monic, and its
    constant term is (up to sign) the expected power of q with prime
    support {p}: the certificate that all prime-to-p valuations of the
    inverse roots vanish."""
    checks = []
    p = dec.q.p
    for f in dec.factors:
        if f.beta == 0:
            continue
        eig = f.eigenvalue_polynomial()
        monic_integer = eig[-1] == 1 and all(isinstance(c, int) for c in eig)
        const = eig[0]
        q_power_ok = const * const == dec.q.q ** (f.w * f.beta)
        support_ok = _strip_prime(const, p) == 1
        ok = monic_integer and q_power_ok and support_ok
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
                    "monic_integer": monic_integer,
                    "constant_matches_q_power": q_power_ok,
                    "prime_support_only_p": support_ok,
                },
            )
        )
    return checks


def hasse_weil_functional_check(
    dec: WeightDecomposition,
    sample_points=DEFAULT_SAMPLE_POINTS,
    tol: float = 1e-9,
    *,
    dps: int = 30,
):
    """Check zeta(s) = sign * q^{chi*s} * q^{-chi*d/2} * zeta(d-s) at the
    sample points; the sign must be one constant from {+1, -1}."""
    Z = dec.to_rational()
    chi = dec.euler_characteristic
    d = dec.d
    q = dec.q.q
    sign = None
    used, skipped, witnesses = [], [], []
    with mpmath.workdps(dps):
        for s in sample_points:
            s = mpmath.mpc(s)
            x1 = mpmath.power(q, -s)
            x2 = mpmath.power(q, -(d - s))
            den1 = poly_eval(Z.den, x1)
            den2 = poly_eval(Z.den, x2)
            num2 = poly_eval(Z.num, x2)
            if abs(den1) < mpmath.mpf("1e-20") or abs(den2) < mpmath.mpf("1e-20") or abs(num2) < mpmath.mpf("1e-20"):
                skipped.append(str(s))
                continue
            lhs = poly_eval(Z.num, x1) / den1
            rhs = mpmath.power(q, chi * s - mpmath.mpf(chi * d) / 2) * num2 / den2
            ratio = lhs / rhs
            point_sign = None
            if abs(ratio - 1) < tol:
                point_sign = 1
            elif abs(ratio + 1) < tol:
                point_sign = -1
            if point_sign is None:
                witnesses.append({"s": str(s), "ratio": str(ratio)})
            elif sign is None:
                sign = point_sign
                used.append(str(s))
            elif sign != point_sign:
                witnesses.append({"s": str(s), "ratio": str(ratio), "conflict": True})
            else:
                used.append(str(s))
    ok = not witnesses and sign is not None
    return Check(
        name="functional.hasse_weil",
        verdict=PASS if ok else FAIL,
        detail=(
            f"sign {sign:+d} on {len(used)} sample points"
            if ok
            else f"{len(witnesses)} sample points off the two-sided identity"
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
# Orders at ladder points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrdResult:
    """Order of the zeta rational function (in x = q^{-s}) at s = z.

    order: multiplicity (negative at poles), None when indeterminate.
    exact: whether the multiplicity came from exact division.
    """

    z: object
    order: object
    exact: bool
    indeterminate: bool
    note: str

    def __int__(self):
        if self.order is None:
            raise ValueError("indeterminate order")
        return self.order


def _rational_point(q: PrimePower, z):
    """q^{-z} as an exact Fraction when that is possible.

    Only z that is exactly k/2 qualifies (ints, Fractions, and floats
    with that exact value); a float merely close to k/2 goes the numeric
    route, so an exact claim never rests on snapping.
    """
    two_z = 2 * Fraction(z)
    if two_z.denominator != 1:
        return None
    k = int(two_z)  # z = k/2
    if k % 2 == 0:
        base, expo = q.q, k // 2
    else:
        root = math.isqrt(q.q)
        if root * root != q.q:
            return None
        base, expo = root, k
    return Fraction(1, base**expo) if expo >= 0 else Fraction(base ** (-expo))


def _numeric_multiplicity(poly, x0, precision, match_tol):
    if poly_deg(poly) < 1:
        return 0, False
    roots = polynomial_roots(poly, precision)
    mult = 0
    marginal = False
    with mpmath.workdps(precision + 10):
        for root, m in roots:
            dist = abs(root - x0) / max(1, abs(x0))
            if dist < match_tol:
                mult += m
            elif dist < 10 * match_tol:
                marginal = True
    return mult, marginal


def ord_at(
    Z: RationalFunction,
    q: PrimePower,
    z,
    *,
    precision: int = DEFAULT_PRECISION,
    match_tol: float = 1e-9,
) -> OrdResult:
    """ord_{s=z} of Z(q^{-s}): positive at zeros, negative at poles.

    Exact (repeated division) whenever q^{-z} is rational: z integer,
    or half-integer with q a perfect square.  Otherwise numeric root
    matching with an indeterminate band: a root within 10x of the match
    tolerance but not inside it yields no silent 0.
    """
    note = (
        f"orders repeat along s -> s + 2*pi*i*k/log({q.q}); reported on the real axis"
    )
    x0 = _rational_point(q, z)
    if x0 is not None:
        order = root_multiplicity(Z.num, x0)[0] - root_multiplicity(Z.den, x0)[0]
        return OrdResult(z=z, order=order, exact=True, indeterminate=False, note=note)
    with mpmath.workdps(precision + 10):
        if isinstance(z, Fraction):
            zf = mpmath.mpf(z.numerator) / z.denominator
        else:
            zf = mpmath.mpf(z)
        x0f = mpmath.power(q.q, -zf)
    mult_num, marg_num = _numeric_multiplicity(Z.num, x0f, precision, match_tol)
    mult_den, marg_den = _numeric_multiplicity(Z.den, x0f, precision, match_tol)
    if marg_num or marg_den:
        return OrdResult(
            z=z,
            order=None,
            exact=False,
            indeterminate=True,
            note=note + "; a root sits in the marginal band around q^{-z}",
        )
    return OrdResult(
        z=z,
        order=mult_num - mult_den,
        exact=False,
        indeterminate=False,
        note=note,
    )


# ---------------------------------------------------------------------------
# Lefschetz roundtrip
# ---------------------------------------------------------------------------


def lefschetz_counts(dec: WeightDecomposition, m: int):
    """Recover N_n = sum_w (-1)^w (power sums of inverse roots of P_w)
    for n = 1..m, exactly, from the factor polynomials alone."""
    totals = [Fraction(0)] * m
    for f in dec.factors:
        if f.beta == 0:
            continue
        sums = power_sums_inverse_roots(f.poly, m)
        sign = (-1) ** f.w
        for i in range(m):
            totals[i] += sign * sums[i]
    out = []
    for v in totals:
        out.append(int(v) if v.denominator == 1 else v)
    return out
