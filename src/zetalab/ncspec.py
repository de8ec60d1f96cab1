"""Even/odd Frobenius spectra and their zeta functions.

The periodic-cyclotomic picture replaces the weight tower by two
operators: an even one whose eigenvalues should sit on the unit circle
and an odd one whose eigenvalues should have modulus q^{1/2}.  Starting
from a weight decomposition the eigenvalues are the inverse roots of
the weight factors rescaled by exact integer powers of q, so everything
here stays at the level of integer polynomials: a spectrum is a
multiset of primitive polynomial blocks, and all structural verdicts
(multiplicities, determinants, functional-equation symmetry, closure
under reciprocity, root moduli) are exact, on zetalab.poly's integer
arithmetic (an eigenvalue's multiplicity is the exact power of its
primitive linear factor).  The functional equations are one exact
identity, series.functional_witnesses, which decides every verdict;
closure under mu -> Q/mu is that identity again, so reciprocity is
nc_functional_check's coefficient_symmetry row and has no check of its
own.  The pointwise checks report series.functional_samples beside
the identity, as the Hasse-Weil check does, and tol only classifies
them.  So floats appear only through zetalab.series, in those samples,
approximate roots for reports, and the witness of a failed modulus
check, and this module does not import mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import poly
from .arith import PrimePower
from .report import FAIL, PASS, Check
from .series import (
    DEFAULT_SAMPLE_TOL,
    RationalFunction,
    det_identity_minus_t,
    functional_samples,
    functional_witnesses,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    polynomial_roots,
    roots_on_circle,
    worst_modulus,
)
from .zeta import WeightDecomposition, _strip_prime, ord_at

__all__ = [
    "EigenvalueBlock",
    "KernelReport",
    "NcSpectrum",
    "euler_pairing_kernel",
    "nc_functional_check",
    "nc_l_adic_check",
    "nc_spectrum_from_weights",
    "nc_weil_check",
    "nc_zeta",
    "order_additivity_check",
    "pairing_duality_check",
    "semisimplicity_criterion",
    "spectrum_direct_sum",
    "spectrum_strip_exceptional",
    "strong_tate_check",
    "weight_normalization_check",
]

DEFAULT_NC_SAMPLE_POINTS = (0.8, 1.3 + 0.2j, -0.6)


@dataclass(frozen=True)
class EigenvalueBlock:
    """A conjugacy block of eigenvalues: the roots of one primitive
    integer polynomial, taken mult times.

    Repeated eigenvalues inside a block are expressed by repeated roots
    of the polynomial; mult repeats the whole root set.  weight records
    which cohomological weight produced the block, when known.
    """

    poly: tuple
    mult: int = 1
    weight: object = None

    def __post_init__(self):
        if self.mult < 1:
            raise ValueError("multiplicity must be >= 1")
        if poly.deg(self.poly) < 1:
            raise ValueError("a block needs at least one eigenvalue")
        if any(not isinstance(c, int) for c in self.poly):
            raise ValueError("block polynomials are exact integer polynomials")

    @classmethod
    def from_coeffs(cls, coeffs, mult=1, weight=None):
        return cls(poly=poly.primitive(coeffs), mult=mult, weight=weight)

    @property
    def degree(self):
        return poly.deg(self.poly)

    def dimension(self):
        return self.degree * self.mult

    def eigenvalue_product(self):
        """Product of the block's eigenvalues (with multiplicity), exact."""
        d = self.degree
        single = Fraction((-1) ** d * self.poly[0], self.poly[-1])
        return single**self.mult

    def multiplicity_of(self, value):
        """Multiplicity of the rational eigenvalue value, exact."""
        return self.mult * poly.multiplicity(self.poly, poly.primitive((-value, 1)))[0]

    def approximate_roots(self):
        """[(root approximation, total multiplicity)] including mult, at
        16 digits."""
        return [(x, m * self.mult) for x, m in polynomial_roots(self.poly, 16)]


@dataclass
class NcSpectrum:
    """Even and odd eigenvalue multisets over F_q.

    chi0 and chi1 are the dimensions (eigenvalue counts with
    multiplicity).  provenance records how the spectrum was built; a
    spectrum built from a weight decomposition carries d and the shift
    exponents, which the functional-equation and l-adic checks use.
    """

    q: PrimePower
    even: tuple = ()
    odd: tuple = ()
    provenance: dict = field(default_factory=dict)

    def blocks(self, parity):
        if parity == "even":
            return self.even
        if parity == "odd":
            return self.odd
        raise ValueError("parity must be 'even' or 'odd'")

    @property
    def chi0(self):
        return sum(b.dimension() for b in self.even)

    @property
    def chi1(self):
        return sum(b.dimension() for b in self.odd)

    def chi(self, parity):
        return self.chi0 if parity == "even" else self.chi1

    def det(self, parity):
        """det of the parity operator = product of its eigenvalues."""
        out = Fraction(1)
        for b in self.blocks(parity):
            out *= b.eigenvalue_product()
        return out

    def multiplicity_of(self, value, parity):
        return sum(b.multiplicity_of(value) for b in self.blocks(parity))

    def is_weight_built(self):
        return self.provenance.get("kind") == "weights"

    def to_json_dict(self):
        def side(blocks):
            out = []
            for b in blocks:
                roots = [
                    {"re": float(x.real), "im": float(x.imag), "mult": m}
                    for x, m in b.approximate_roots()
                ]
                out.append(
                    {
                        "poly": [str(c) for c in b.poly],
                        "mult": b.mult,
                        "weight": b.weight,
                        "approx_roots": roots,
                    }
                )
            return out

        return {
            "q": {"p": self.q.p, "r": self.q.r},
            "even": side(self.even),
            "odd": side(self.odd),
            "chi0": self.chi0,
            "chi1": self.chi1,
            "provenance": dict(self.provenance),
        }


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def nc_spectrum_from_weights(dec: WeightDecomposition) -> NcSpectrum:
    """Shift the weight-w inverse roots onto the two circles.

    Even weights w contribute eigenvalues lambda / q^{w/2} to the even
    part; odd weights contribute lambda / q^{(w-1)/2} to the odd part.
    Both shifts divide by integer powers of q, so the block polynomials
    stay integral: the roots of E_w(q^a t) are the shifted eigenvalues.
    """
    even, odd = [], []
    for f in dec.factors:
        if f.beta == 0:
            continue
        a = f.w // 2
        scale = dec.q.q**a
        eig = f.eigenvalue_polynomial()
        shifted = [c * scale**i for i, c in enumerate(eig)]
        block = EigenvalueBlock.from_coeffs(shifted, mult=1, weight=f.w)
        (even if f.w % 2 == 0 else odd).append(block)
    return NcSpectrum(
        q=dec.q,
        even=tuple(even),
        odd=tuple(odd),
        provenance={"kind": "weights", "d": dec.d, "betti": dec.betti},
    )


def nc_zeta(spec: NcSpectrum, parity: str) -> RationalFunction:
    """1 / prod (1 - eigenvalue * x) over the parity's multiset, exact.

    For a block polynomial B the factor prod(1 - mu x) is the reversal
    of B divided by its leading coefficient, so the integer reversals
    multiply and the constructor divides once, by the constant term
    prod lead^mult.  This is the one builder of det(1 - x F) per parity."""
    den = (1,)
    for b in spec.blocks(parity):
        for _ in range(b.mult):
            den = poly.mul(den, b.poly[::-1])
    return RationalFunction((1,), den, reduce=False)


# ---------------------------------------------------------------------------
# Conjecture checks
# ---------------------------------------------------------------------------


def nc_weil_check(spec: NcSpectrum):
    """Even moduli against 1, odd against q^{1/2}; block polynomials are
    integer by construction, which is the algebraicity certificate.

    The verdict is exact (series.roots_on_circle); a PASS reports
    deviation 0.0 and no witness.  Only a FAIL finds the roots
    (series.worst_modulus, at 50 digits) to name the eigenvalue farthest
    off its circle.
    """
    checks = []
    for parity, Q in (("even", 1), ("odd", spec.q.q)):
        blocks = spec.blocks(parity)
        if not blocks:
            checks.append(
                Check(
                    name=f"nc_weil.{parity}",
                    verdict=PASS,
                    detail="empty eigenvalue multiset",
                    data={"dimension": 0},
                )
            )
            continue
        ok = all(roots_on_circle(b.poly, Q) for b in blocks)
        worst, witness = 0.0, None
        if not ok:
            worst, witness = max((worst_modulus(b.poly, Q) for b in blocks), key=lambda r: r[0])
        checks.append(
            Check(
                name=f"nc_weil.{parity}",
                verdict=PASS if ok else FAIL,
                detail=(
                    f"max relative modulus deviation {worst:.3e} from "
                    f"target {'1' if parity == 'even' else 'sqrt(q)'}"
                ),
                data={
                    "dimension": spec.chi(parity),
                    "max_rel_deviation": worst,
                    "worst_eigenvalue": witness,
                    "integer_polynomials": True,
                },
            )
        )
    return checks


def nc_l_adic_check(spec: NcSpectrum, C: int = None):
    """Clear the q^C denominator from each block and certify that the
    eigenvalue product has prime support {p}.

    q^C * mu is the candidate algebraic integer; the certificate checked
    is that the block's eigenvalue product times q^{C * degree} is, up
    to sign and the leading coefficient, a pure power of p.
    """
    if C is None:
        C = spec.provenance.get("d", 0)
    p = spec.q.p
    checks = []
    for parity in ("even", "odd"):
        offenders = []
        for b in spec.blocks(parity):
            cleared = abs(b.eigenvalue_product() * Fraction(spec.q.q) ** (C * b.degree * b.mult))
            num, den = _strip_prime(cleared.numerator, p), _strip_prime(cleared.denominator, p)
            if num != 1 or den != 1:
                offenders.append({"poly": list(b.poly), "stripped": f"{num}/{den}"})
        checks.append(
            Check(
                name=f"nc_ladic.{parity}",
                verdict=PASS if not offenders else FAIL,
                detail=(
                    f"eigenvalue products are p-powers after clearing q^{C}"
                    if not offenders
                    else f"{len(offenders)} block(s) carry primes other than {p}"
                ),
                data={"C": C, "offenders": offenders},
            )
        )
    return checks


def nc_functional_check(
    spec: NcSpectrum, sample_points=DEFAULT_NC_SAMPLE_POINTS, tol: float = DEFAULT_SAMPLE_TOL
):
    """The even equation relates s and -s, the odd one s and 1-s.

    Two checks per parity, both decided by the exact coefficient
    identity of det(1 - x F) (series.functional_witnesses): the
    pointwise one reports both sides at the sample points
    (series.functional_samples; tol only classifies them), its
    witnesses the identity's own {"k", "lhs", "rhs"}, then the samples
    {"s", "lhs", "rhs"} off by more than tol, as the Hasse-Weil check
    lists them, so a FAIL always carries a witness; the
    coefficient_symmetry one lists the identity's witnesses alone.
    With Q = 1 (even) or q (odd), the identity
    R(x) = C x^{-chi} R(1/(Qx)) for R = nc_zeta holds exactly when the
    multiset is closed under mu -> Q/mu, so coefficient_symmetry is the
    reciprocity verdict too; a multiset holding 0 fails it.  The
    identity also gives det F = (-1)^chi C Q^chi.  For the even part the
    identity reads r_{chi-k} = (-1)^chi det(F0) r_k and for the odd part
    r_{chi-k} = (-1)^chi q^{-k} det(F1) r_k.  For
    weight-built spectra the reduced forms with a bare sign are
    verified as well: det F0 must be a unit and det F1 a square root of
    q^{chi1}, making the constants (-1)^{chi} det F collapse to +-1
    after the exponent rebalancing; note the odd reduced exponent is
    chi1*s - chi1/2.
    """
    checks = []
    det = {}
    for parity, Q in (("even", 1), ("odd", spec.q.q)):
        R, chi = nc_zeta(spec, parity), spec.chi(parity)
        CQ, sym_bad = functional_witnesses(R, Q, chi)
        det[parity] = Fraction((-1) ** chi * CQ)
        used, skipped, sampled = functional_samples(R, spec.q.q, Q, chi, CQ, sample_points, tol)
        checks.append(
            Check(
                name=f"nc_functional.{parity}.pointwise",
                verdict=PASS if not sym_bad else FAIL,
                detail=(
                    f"chi={chi}, det={det[parity]}, "
                    f"{len(used)} points checked, {len(skipped)} skipped at poles"
                ),
                data={
                    "chi": chi,
                    "det": det[parity],
                    "points_used": used,
                    "points_skipped": skipped,
                    "witnesses": sym_bad + sampled,
                },
            )
        )
        checks.append(
            Check(
                name=f"nc_functional.{parity}.coefficient_symmetry",
                verdict=PASS if not sym_bad else FAIL,
                detail="exact palindrome identity on det(1 - x F)",
                data={"witnesses": sym_bad},
            )
        )
    if spec.is_weight_built():
        det0, det1 = det["even"], det["odd"]
        unit0 = abs(det0) == 1
        square1 = det1 * det1 == Fraction(spec.q.q) ** spec.chi1
        sign_even = (-1) ** spec.chi0 * (1 if det0 > 0 else -1)
        sign_odd = (-1) ** spec.chi1 * (1 if det1 > 0 else -1) if square1 else None
        checks.append(
            Check(
                name="nc_functional.reduced_constants",
                verdict=PASS if unit0 and square1 else FAIL,
                detail=(
                    f"|det F0| = {abs(det0)} (want 1), "
                    f"det F1^2 = q^chi1: {square1}; reduced signs "
                    f"even {sign_even}, odd {sign_odd}; odd exponent chi1*(s - 1/2)"
                ),
                data={
                    "det_even_is_unit": unit0,
                    "det_odd_squared_is_q_power": square1,
                    "reduced_sign_even": sign_even,
                    "reduced_sign_odd": sign_odd,
                },
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def pairing_duality_check(theta, f, g, lam):
    """Exact determinant duality for a pairing scaled by lam.

    Hypotheses (errors, not verdicts): theta invertible and
    g^T theta f = lam * theta.  Then the characteristic polynomial of g
    is verified to be the exact mirror of the one of f:
    coefficient-wise, det(1 - t g) has d_k = (-1)^n c_{n-k} lam^k / det f
    where det(1 - t f) = sum c_i t^i.
    """
    n = len(theta)
    theta = [[Fraction(x) for x in row] for row in theta]
    f = [[Fraction(x) for x in row] for row in f]
    g = [[Fraction(x) for x in row] for row in g]
    lam = Fraction(lam)
    if any(len(row) != n for row in theta) or len(f) != n or len(g) != n:
        raise ValueError("theta, f, g must be square of one common size")
    if mat_rank(theta) != n:
        raise ValueError("theta is not a perfect pairing (not invertible)")
    gt = [[g[j][i] for j in range(n)] for i in range(n)]
    lhs = mat_mul(mat_mul(gt, theta), f)
    if lhs != [[lam * theta[i][j] for j in range(n)] for i in range(n)]:
        raise ValueError("commutation hypothesis g^T theta f = lam theta fails")
    cf = list(det_identity_minus_t(f)) + [Fraction(0)] * (n + 1)
    cf = cf[: n + 1]
    cg = list(det_identity_minus_t(g)) + [Fraction(0)] * (n + 1)
    cg = cg[: n + 1]
    det_f = (-1) ** n * cf[n]
    if det_f == 0:
        raise ValueError("f is singular; the duality statement needs det f != 0")
    bad = []
    for k in range(n + 1):
        want = (-1) ** n * cf[n - k] * lam**k / det_f
        if cg[k] != want:
            bad.append({"k": k, "got": str(cg[k]), "want": str(want)})
    return Check(
        name="pairing.determinant_identity",
        verdict=PASS if not bad else FAIL,
        detail=f"dimension {n}, lam = {lam}",
        data={"witnesses": bad, "det_f": det_f},
    )


# ---------------------------------------------------------------------------
# Graded pieces
# ---------------------------------------------------------------------------


def weight_normalization_check(dec: WeightDecomposition):
    """The parity zeta as a product of argument-shifted weight zetas.

    Even: zeta_even(s) = prod_{w even} zeta_w(s + w/2); odd likewise
    with shift (w-1)/2.  The left side is assembled from the shifted
    eigenvalue blocks, the right side by substituting x -> q^{-a} x into
    each classical weight zeta 1/P_w; equality is exact.
    """
    spec = nc_spectrum_from_weights(dec)
    q = dec.q.q
    checks = []
    for parity, rem in (("even", 0), ("odd", 1)):
        assembled = nc_zeta(spec, parity)
        product = RationalFunction.one()
        shifts = []
        for f in dec.factors:
            if f.w % 2 != rem or f.beta == 0:
                continue
            a = f.w // 2
            shifts.append({"w": f.w, "shift": a})
            classical = RationalFunction((1,), f.poly, reduce=False)
            product = product * classical.substitute_scaled(Fraction(1, q) ** a)
        ok = assembled == product
        checks.append(
            Check(
                name=f"weight_normalization.{parity}",
                verdict=PASS if ok else FAIL,
                detail=(
                    f"spectrum assembly {'==' if ok else '!='} product of "
                    f"{len(shifts)} shifted weight zetas"
                ),
                data={
                    "shifts": shifts,
                    "assembled_den": [str(c) for c in assembled.den],
                    "product_den": [str(c) for c in product.den],
                },
            )
        )
    return checks


def order_additivity_check(dec: WeightDecomposition, window=None):
    """ord of the parity zeta at integer s-points versus the sum of the
    shifted classical orders.

    The left route takes the order of the assembled parity zeta at s=z;
    the right route sums, over the parity's weights, the order of the
    classical 1/P_w at s = z + shift(w).  All evaluation points q^{-z}
    and q^{-(z+shift)} are exact rationals, so both routes are exact.
    """
    if window is None:
        window = range(-2, dec.d + 3)
    spec = nc_spectrum_from_weights(dec)
    checks = []
    for parity, rem in (("even", 0), ("odd", 1)):
        assembled = nc_zeta(spec, parity)
        bad = []
        table = []
        for z in window:
            left = ord_at(assembled, dec.q, z)
            total = 0
            for f in dec.factors:
                if f.w % 2 != rem or f.beta == 0:
                    continue
                a = f.w // 2
                total += ord_at(RationalFunction((1,), f.poly, reduce=False), dec.q, z + a)
            table.append({"z": z, "assembled": left, "summed": total})
            if left != total:
                bad.append({"z": z, "assembled": left, "summed": total})
        checks.append(
            Check(
                name=f"order_additivity.{parity}",
                verdict=PASS if not bad else FAIL,
                detail=f"orders at integer points {list(window)} (exact)",
                data={"table": table, "witnesses": bad},
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Euler pairing and the strong Tate criterion
# ---------------------------------------------------------------------------


@dataclass
class KernelReport:
    rank: int
    left_kernel: list
    right_kernel: list
    kernels_agree: bool


def _span_canonical(vectors):
    if not vectors:
        return ()
    red, _ = mat_rref(vectors)
    return tuple(tuple(row) for row in red if any(x != 0 for x in row))


def euler_pairing_kernel(G) -> KernelReport:
    """Exact rank and kernels of an integer pairing matrix.

    The rank is the dimension of the quotient by the pairing's kernel;
    left and right kernels are compared as subspaces (the expected
    symmetry of an Euler pairing is reported, never assumed).
    """
    n = len(G)
    if any(len(row) != n for row in G):
        raise ValueError("pairing matrix must be square")
    rows = [[Fraction(x) for x in row] for row in G]
    rank = mat_rank(rows)
    right = mat_nullspace(rows)
    transpose = [[rows[j][i] for j in range(n)] for i in range(n)]
    left = mat_nullspace(transpose)
    agree = _span_canonical(right) == _span_canonical(left)
    return KernelReport(rank=rank, left_kernel=left, right_kernel=right, kernels_agree=agree)


def strong_tate_check(spec: NcSpectrum, k0_num_rank: int, F0_matrix=None):
    """Pole order of the even zeta at s=0 against the supplied rank.

    The order is computed two ways, both exact: the algebraic
    multiplicity of eigenvalue 1 in the even multiset, and the order of
    the assembled rational function at x = 1.  The rank input is a
    supplied fixture, and the report says so.  With an explicit matrix
    realization of the even operator, the geometric-vs-algebraic
    comparison and its rank criterion are verified as well.
    """
    mult_blocks = spec.multiplicity_of(1, "even")
    R = nc_zeta(spec, "even")
    mult_order = -ord_at(R, spec.q, 0)
    routes_agree = mult_order == mult_blocks
    ok = routes_agree and mult_blocks == k0_num_rank
    checks = [
        Check(
            name="strong_tate.multiplicity",
            verdict=PASS if ok else FAIL,
            detail=(
                f"algebraic multiplicity of eigenvalue 1 = {mult_blocks}, "
                f"-ord_(s=0) zeta_even = {mult_order}, supplied rank = {k0_num_rank}"
            ),
            data={
                "eigenvalue_one_multiplicity": mult_blocks,
                "neg_order_at_zero": mult_order,
                "supplied": {"k0_num_rank": k0_num_rank},
                "routes_agree": routes_agree,
            },
        )
    ]
    if F0_matrix is not None:
        checks.append(semisimplicity_criterion(F0_matrix))
    return checks


def semisimplicity_criterion(M) -> Check:
    """Geometric versus algebraic multiplicity of the eigenvalue 1.

    The two multiplicities agree exactly when the fixed subspace injects
    into the coinvariants, which for a matrix is the exact rank
    condition rank(I - M) = rank((I - M)^2).  Both sides of the
    equivalence are computed independently: multiplicities from the
    characteristic polynomial and the kernel dimension, ranks by row
    reduction.  The verdict is whether the equivalence itself holds.
    """
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    char = det_identity_minus_t(M)
    alg = poly.multiplicity(poly.primitive(char), (-1, 1))[0]
    diff = [
        [(Fraction(1) if i == j else Fraction(0)) - M[i][j] for j in range(n)]
        for i in range(n)
    ]
    r1 = mat_rank(diff)
    r2 = mat_rank(mat_mul(diff, diff))
    geo = n - r1
    equivalence_holds = (geo == alg) == (r1 == r2)
    return Check(
        name="strong_tate.semisimple_criterion",
        verdict=PASS if equivalence_holds else FAIL,
        detail=(
            f"geometric {geo} vs algebraic {alg} multiplicity of 1; "
            f"rank(I-F) = {r1}, rank((I-F)^2) = {r2}"
        ),
        data={
            "geometric": geo,
            "algebraic": alg,
            "rank_once": r1,
            "rank_twice": r2,
            "semisimple_at_1": geo == alg,
        },
    )


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def spectrum_direct_sum(a: NcSpectrum, b: NcSpectrum) -> NcSpectrum:
    """Union of multisets per parity; zeta functions multiply."""
    if a.q != b.q:
        raise ValueError("direct sums need a common base field")
    prov = {"kind": "sum"}
    if a.is_weight_built() and b.is_weight_built():
        prov = {"kind": "weights", "d": max(a.provenance.get("d", 0), b.provenance.get("d", 0))}
    return NcSpectrum(q=a.q, even=a.even + b.even, odd=a.odd + b.odd, provenance=prov)


def spectrum_strip_exceptional(spec: NcSpectrum, count: int) -> NcSpectrum:
    """Remove count copies of the exact eigenvalue 1 from the even part.

    Models cutting an exceptional sequence out of a semi-orthogonal
    decomposition: each removed object accounts for one factor (1 - x)
    in the even zeta denominator.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    available = spec.multiplicity_of(1, "even")
    if available < count:
        raise ValueError(
            f"insufficient eigenvalue-1 multiplicity: need {count}, have "
            f"{available}; the decomposition hypothesis fails"
        )
    need = count
    new_blocks = []
    for b in spec.even:
        per_copy, cofactor = poly.multiplicity(b.poly, (-1, 1))
        for _ in range(b.mult):
            take = min(need, per_copy)
            if take == 0:
                new_blocks.append(EigenvalueBlock(poly=b.poly, mult=1, weight=b.weight))
                continue
            need -= take
            # keep the per_copy - take factors (t - 1) not stripped
            reduced = cofactor
            for _ in range(per_copy - take):
                reduced = poly.mul(reduced, (-1, 1))
            if poly.deg(reduced) >= 1:
                new_blocks.append(
                    EigenvalueBlock.from_coeffs(reduced, mult=1, weight=b.weight)
                )
    merged = []
    for b in new_blocks:
        for m in merged:
            if m.poly == b.poly and m.weight == b.weight:
                merged[merged.index(m)] = EigenvalueBlock(
                    poly=m.poly, mult=m.mult + b.mult, weight=m.weight
                )
                break
        else:
            merged.append(b)
    return NcSpectrum(
        q=spec.q,
        even=tuple(merged),
        odd=spec.odd,
        provenance={"kind": "stripped", "removed": count, "from": dict(spec.provenance)},
    )
