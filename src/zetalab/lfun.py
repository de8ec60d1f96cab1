"""Global L-functions from local spectra at every prime.

An arithmetic model is a variety presentation with integral
coefficients.  The weight factors of its fiber at each prime p come
from zeta.fiber_decomposition (read off a closed form where the fiber
has one, counted, reconstructed and separated otherwise), memoised by
functools.lru_cache on exactly that function's arguments; shifted onto
the two circles they give even/odd eigenvalue multisets per prime.
The global objects, all read from one scan of local factors over
primes, are Euler products, their multiplicative Dirichlet expansions,
trace-bound certificates for convergence, and, for models whose
L-function has a closed form in shifted Riemann zetas (or the Gaussian
Dedekind zeta), an honest analytic continuation and its orders at
integers.  The continuation of zeta and beta runs in complex doubles
with a proven error bound first, one evaluator and one reflection for
both, and mpmath where the bound cannot settle a point.  The order
dashboard evaluates none of it: the Euler product and that reflection
give every order at an integer exactly, and argument-principle winding
on the continuation (winding_order) counts the same orders a second way.
Everything without a closed form reports UNSUPPORTED rather than a
fabricated continuation.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache

import mpmath

from . import poly
from .arith import PrimePower, primes_up_to
from .counting import VarietySpec, has_closed_form, parse_variety
from .ncspec import NcSpectrum, nc_spectrum_from_weights, nc_zeta
from .report import FAIL, INFO, PASS, UNSUPPORTED, Check
from .series import _U, RationalFunction, power_sums_inverse_roots
from .zeta import SeparationError, default_degrees, fiber_decomposition, weil_check

__all__ = [
    "ArithmeticModel",
    "BadPrimeError",
    "BoundsCertificate",
    "DirichletSeries",
    "EulerProductResult",
    "PoleError",
    "bounds_certificate",
    "dirichlet_beta",
    "dirichlet_expand",
    "euler_product_value",
    "load_model",
    "local_spectrum",
    "order_dashboard",
    "serre_bounds_certificate",
    "winding_order",
    "zeta_continuation",
]

# Euler products (refused within HALF_PLANE_MARGIN of their half-plane)
# and Dirichlet partial sums run at EULER_DPS digits.  Continuations run
# in complex doubles with a proven bound first (_l_double, DOUBLE_TERMS
# terms of the accelerated series), and in mpmath where the bound cannot
# settle a point (a relative error above DOUBLE_TOL, or overflow): at
# CONTINUATION_DPS digits, where beta's accelerated series takes
# BETA_TERMS terms.
HALF_PLANE_MARGIN = 0.05
EULER_DPS = 30
CONTINUATION_DPS = 40
BETA_TERMS = 90
DOUBLE_TERMS = 32
DOUBLE_TOL = 1e-11
WINDING_RADIUS = 0.25
WINDING_SAMPLES = 64
# An arc of the contour is bisected while its end values f(z0), f(z1)
# have |f(z1)/f(z0) - 1| above WINDING_STEP, and at most WINDING_DEPTH
# times: an arc still too coarse at 1/1024 of the starting step runs
# through a zero or pole.
WINDING_STEP = 0.25
WINDING_DEPTH = 10


class PoleError(ValueError):
    """Evaluation requested exactly at a pole."""


class BadPrimeError(ValueError):
    """A bad-reduction prime with no replacement fiber: the local factor
    is excluded, and products over primes must say so."""

    def __init__(self, p):
        self.p = p
        super().__init__(f"excluded factor at p={p} (bad reduction, no replacement)")


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# What a value in a model's JSON must be, and the test for it.
_JSON_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer": _is_int,
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an object of integers": lambda v: isinstance(v, dict) and all(map(_is_int, v.values())),
}
_REQUIRED = object()


def _json_value(entry, key, where, kind, default=_REQUIRED):
    """entry[key] when it is the JSON kind, default when the key is
    absent; a missing required key or a value of another kind is a
    ValueError that names the key."""
    if key not in entry:
        if default is _REQUIRED:
            raise ValueError(f"{where} has no {key!r}")
        return default
    if not _JSON_KINDS[kind](entry[key]):
        raise ValueError(f"{where}'s {key!r} is not {kind}")
    return entry[key]


def _parse_closed_form(tag):
    """Normalize the closed-form tag.

    Accepted: "RiemannZeta", "DedekindQi", or {"MixedTate": [shifts]}.
    RiemannZeta is the one-factor mixed-Tate case kept as its own tag
    for readability.
    """
    if tag is None:
        return None
    if tag == "RiemannZeta":
        return ("mixed_tate", (0,))
    if tag == "DedekindQi":
        return ("dedekind_qi",)
    if isinstance(tag, dict) and set(tag) == {"MixedTate"}:
        shifts = _json_value(tag, "MixedTate", "closed_form", "a list of integers")
        return ("mixed_tate", tuple(shifts))
    raise ValueError(f"unknown closed-form tag: {tag!r}")


@dataclass(frozen=True)
class ArithmeticModel:
    """A variety with integral coefficients plus its global bookkeeping.

    bad_primes maps each bad-reduction prime to a replacement fiber
    presentation (a variety over F_p) or to None when the factor is
    simply excluded.  betti lists the generic-fiber Betti numbers,
    which drive the per-prime weight separation.  ranks supplies the
    K-theory rank fixtures used by the order dashboard; they are inputs,
    never computed here.
    """

    name: str
    family: VarietySpec
    bad_primes: tuple = ()
    betti: tuple = (1,)
    closed_form: object = None
    ranks: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ps = [p for p, _ in self.bad_primes]
        if len(ps) != len(set(ps)):
            raise ValueError("bad primes must be distinct")

    @property
    def d(self):
        return (len(self.betti) - 1) // 2

    def bad_prime_map(self):
        return dict(self.bad_primes)

    @classmethod
    def from_dict(cls, data: dict) -> "ArithmeticModel":
        """The model a JSON object describes; a missing required key, or a
        value of the wrong JSON type, is a ValueError that names the key."""
        if not isinstance(data, dict):
            raise ValueError("model is not a JSON object")
        text = _json_value(data, "family", "model", "a string")
        bad = []
        for entry in _json_value(data, "bad_primes", "model", "a list", []):
            if not isinstance(entry, dict):
                raise ValueError("bad_primes entry is not an object")
            p = _json_value(entry, "p", "bad_primes entry", "an integer")
            repl = _json_value(entry, "replacement", "bad_primes entry", "a string or null", None)
            bad.append((p, parse_variety(repl) if repl is not None else None))
        return cls(
            name=_json_value(data, "name", "model", "a string", text),
            family=parse_variety(text),
            bad_primes=tuple(bad),
            betti=tuple(_json_value(data, "betti", "model", "a list of integers")),
            closed_form=_parse_closed_form(data.get("closed_form")),
            ranks=dict(_json_value(data, "ranks", "model", "an object of integers", {})),
        )


def load_model(path) -> ArithmeticModel:
    with open(path, "r", encoding="utf-8") as fh:
        return ArithmeticModel.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Local spectra
# ---------------------------------------------------------------------------


def _fiber_spec(model: ArithmeticModel, p: int) -> VarietySpec:
    bad = model.bad_prime_map()
    if p in bad:
        if bad[p] is None:
            raise BadPrimeError(p)
        return bad[p]
    return model.family


def _local_entry(model: ArithmeticModel, p: int):
    """(weight decomposition, spectrum, {parity: P_p}) of the fiber at p.
    It only chooses _fiber_entry's arguments: a family fiber has the
    model's Betti numbers, a replacement fiber is zero-dimensional (betti
    None), and either is counted to default_degrees(model.betti) where it
    must be.  A closed form is counted nowhere, so its degrees are None
    and equal closed-form fibers of different models share one entry."""
    fiber = _fiber_spec(model, p)
    betti = model.betti if fiber is model.family else None
    degrees = None if has_closed_form(fiber) else default_degrees(model.betti)
    return _fiber_entry(fiber, p, betti, degrees)


# The bound holds several global models of a few hundred primes each.
LOCAL_CACHE_SIZE = 2048


@lru_cache(maxsize=LOCAL_CACHE_SIZE)
def _fiber_entry(fiber: VarietySpec, p: int, betti, degrees):
    """_local_entry's value, memoised on exactly fiber_decomposition's
    arguments, so a cached entry equals a fresh one; P_p = det(1 - t F)
    over the parity's eigenvalues, from nc_zeta."""
    try:
        dec = fiber_decomposition(fiber, PrimePower(p), betti, degrees=degrees)
    except SeparationError as exc:
        # a singular fiber at a prime the model does not declare bad
        # lands here, so name the prime
        raise SeparationError(f"fiber at p={p}: {exc}") from exc
    spectrum = nc_spectrum_from_weights(dec)
    weil = FAIL if any(c.verdict == FAIL for c in weil_check(dec)) else PASS
    spectrum.provenance["p"] = p
    spectrum.provenance["weil"] = weil
    parity = {kind: nc_zeta(spectrum, kind).den for kind in ("even", "odd")}
    return dec, spectrum, parity


def local_spectrum(model: ArithmeticModel, p: int) -> NcSpectrum:
    """Even/odd eigenvalue multisets of the fiber at p.

    The weight factors come from zeta.fiber_decomposition, the one route
    from a fiber to them.  Shifted onto the two circles, they pass the
    root-modulus check, whose verdict the provenance records.  Bad
    primes without a replacement raise BadPrimeError.  Each call returns
    the cached spectrum with a provenance of its own (whose values are
    immutable), so editing one result leaves the next unchanged.
    """
    spectrum = _local_entry(model, p)[1]
    return replace(spectrum, provenance=dict(spectrum.provenance))


# ---------------------------------------------------------------------------
# Local factors
# ---------------------------------------------------------------------------


def _weight(kind):
    """The weight e of a kind's local factors, whose inverse roots have
    modulus p^{e/2}: 0 for "even", 1 for "odd", w for weight w."""
    return kind if isinstance(kind, int) else int(kind != "even")


def _local_factors(model: ArithmeticModel, kind, prime_cutoff: int):
    """({p: P_p}, excluded primes) over p <= prime_cutoff, with P_p(0) = 1.

    For kind "even" or "odd", P_p = det(1 - t F) over the parity's
    eigenvalues; for an integer kind w >= 0 it is the unshifted weight-w
    factor, (1,) when w exceeds twice the fiber's dimension.  This is
    the module's one scan over primes: every Euler product, Dirichlet
    expansion and trace certificate reads its local factors here, and
    bad primes without a replacement fiber land in the excluded list.
    """
    factors, excluded = {}, []
    for p in primes_up_to(prime_cutoff):
        try:
            dec, _, parity = _local_entry(model, p)
        except BadPrimeError:
            excluded.append(p)
            continue
        if isinstance(kind, str):
            factors[p] = parity[kind]
        else:
            factors[p] = dec.factor(kind).poly if kind <= 2 * dec.d else (1,)
    return factors, tuple(excluded)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerProductResult:
    parity: str
    s: complex
    prime_cutoff: int
    value: complex
    tail_bound: float
    constant: int
    primes_used: int
    excluded: tuple

    def as_dict(self):
        return {
            "parity": self.parity,
            "s": {"re": self.s.real, "im": self.s.imag},
            "prime_cutoff": self.prime_cutoff,
            "value": {"re": self.value.real, "im": self.value.imag},
            "tail_bound": self.tail_bound,
            "constant": self.constant,
            "primes_used": self.primes_used,
            "excluded": list(self.excluded),
        }


def _tail_bound(C, P, z_eff):
    """Absolute log-scale tail of the product over primes > P.

    Each local factor has at most C inverse roots, of modulus p^{e/2}
    for weight e; on Re(s) = e/2 + z_eff the log of one factor is then
    at most C*p^{-z_eff}/(1 - p^{-z_eff}), and the sum over p > P is at
    most the integral C/(1 - P^{-z_eff}) * P^{1 - z_eff}/(z_eff - 1).
    Infinite for z_eff <= 1, outside the half-plane of convergence.
    """
    if z_eff <= 1:
        return math.inf
    lead = C / (1 - P ** (-z_eff))
    return lead * P ** (1 - z_eff) / (z_eff - 1)


def _euler_product(factors: dict, s: complex, e: int, prime_cutoff: int):
    """(value, tail, C) of the partial product prod_p 1/P_p(p^{-s}) over
    local factors of weight e: C is the largest degree, and the tail
    bounds |L(s) - value| through _tail_bound at Re(s) - e/2.  With no
    local factor at all the product says nothing: ValueError."""
    if not factors:
        raise ValueError(f"no prime p <= {prime_cutoff} contributes a local factor")
    C = max(len(P) - 1 for P in factors.values())
    with mpmath.workdps(EULER_DPS):
        s_mp = mpmath.mpc(s)
        total = mpmath.mpf(1)
        for p, P in factors.items():
            if len(P) > 1:
                total = total / poly.evaluate(P, mpmath.power(p, -s_mp))
        log_tail = _tail_bound(C, prime_cutoff, s.real - e / 2) if C else 0.0
        tail = float(abs(total) * mpmath.expm1(log_tail)) if C else 0.0
        return complex(total), tail, C


def euler_product_value(
    model: ArithmeticModel, parity: str, s, prime_cutoff: int
) -> EulerProductResult:
    """Partial Euler product over p <= prime_cutoff plus a tail bound.

    The even product converges for Re(s) > 1, the odd one for
    Re(s) > 3/2; requests inside the critical region (up to
    HALF_PLANE_MARGIN) are rejected since the partial product would not
    estimate anything there.  Excluded bad primes are listed in the result;
    a range where every prime is excluded, or that holds none, raises
    ValueError rather than return 1 with a zero tail.
    """
    s = complex(s)
    e = _weight(parity)
    threshold = 1 + e / 2
    if s.real <= threshold + HALF_PLANE_MARGIN:
        raise ValueError(
            f"Re(s)={s.real} is outside the guaranteed {parity} half-plane "
            f"Re(s) > {threshold} (margin {HALF_PLANE_MARGIN}); use the continuation path"
        )
    factors, excluded = _local_factors(model, parity, prime_cutoff)
    value, tail, constant = _euler_product(factors, s, e, prime_cutoff)
    return EulerProductResult(
        parity=parity,
        s=s,
        prime_cutoff=prime_cutoff,
        value=value,
        tail_bound=tail,
        constant=constant,
        primes_used=len(factors),
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Dirichlet expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletSeries:
    """Coefficients b_1..b_N of a multiplicative Dirichlet series."""

    parity: str
    coeffs: tuple
    N: int

    def __post_init__(self):
        if len(self.coeffs) != self.N:
            raise ValueError("coefficient count must equal the completeness bound")
        if self.N >= 1 and self.coeffs[0] != 1:
            raise ValueError("b_1 must be 1")

    def __getitem__(self, n):
        if not 1 <= n <= self.N:
            raise IndexError(f"coefficient index {n} outside 1..{self.N}")
        return self.coeffs[n - 1]

    def partial_sum(self, s):
        """sum_{n <= N} b_n n^{-s}, evaluated in mpmath."""
        with mpmath.workdps(EULER_DPS):
            s_mp = mpmath.mpc(complex(s))
            total = mpmath.mpf(0)
            for n in range(1, self.N + 1):
                b = self.coeffs[n - 1]
                if b == 0:
                    continue
                total = total + mpmath.mpf(b.numerator) / b.denominator * mpmath.power(n, -s_mp)
            return complex(total)


def _smallest_prime_factors(N):
    spf = list(range(N + 1))
    for i in range(2, int(math.isqrt(N)) + 1):
        if spf[i] == i:
            for j in range(i * i, N + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def dirichlet_expand(model: ArithmeticModel, parity: str, N: int) -> DirichletSeries:
    """b_n for n <= N, exactly, by multiplicativity from local factors.

    Prime-power coefficients are the Taylor coefficients of the local
    zeta 1/det(1 - t F) at p; a general b_n is the product over the
    prime factorization of n.  Every prime <= N must be good or carry a
    replacement fiber; anything else is an error naming the primes.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    factors, excluded = _local_factors(model, parity, N)
    if excluded:
        raise ValueError(
            "bad primes without replacement inside the expansion range: "
            + ", ".join(str(p) for p in excluded)
        )
    local = {}
    for p, P in factors.items():
        k_max = 0
        pk = p
        while pk <= N:
            k_max += 1
            pk *= p
        local[p] = RationalFunction((1,), P, reduce=False).expand(k_max).coeffs
    spf = _smallest_prime_factors(N)
    b = [0] * (N + 1)
    b[1] = 1
    for n in range(2, N + 1):
        p = spf[n]
        m = n
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        b[n] = b[m] * local[p][k]
    return DirichletSeries(parity=parity, coeffs=tuple(b[1:]), N=N)


# ---------------------------------------------------------------------------
# Trace bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsCertificate:
    """Observed trace bounds over a prime range.

    kind is "even", "odd", or "weight"; for kind "weight" the weight w
    is recorded and the certified inequality is |trace_n| <= C*p^{wn/2},
    for "even" it is |trace_n| <= C, for "odd" |trace_n| <= C*p^{n/2}.
    per_prime_chi records the observed dimension at each covered prime;
    C is their maximum.  All comparisons are exact (squared where the
    bound involves p^{n/2}).
    """

    kind: str
    C: int
    weight: object
    prime_cutoff: int
    n_cutoff: int
    per_prime_chi: dict
    primes_covered: int
    excluded: tuple
    violations: tuple
    sample_s: object = None
    sample_value: object = None
    sample_tail: object = None

    @property
    def ok(self):
        return not self.violations

    def as_dict(self):
        out = {
            "kind": self.kind,
            "C": self.C,
            "weight": self.weight,
            "prime_cutoff": self.prime_cutoff,
            "n_cutoff": self.n_cutoff,
            "primes_covered": self.primes_covered,
            "max_chi": self.C,
            "excluded": list(self.excluded),
            "violations": [dict(v) for v in self.violations],
            "ok": self.ok,
        }
        if self.sample_s is not None:
            out["sample"] = {
                "s": {"re": self.sample_s.real, "im": self.sample_s.imag},
                "value": {"re": self.sample_value.real, "im": self.sample_value.imag},
                "tail_bound": self.sample_tail,
            }
        return out


def _trace_certificate(model: ArithmeticModel, kind, prime_cutoff: int, n_cutoff: int):
    """(local factors, certificate) of the trace check for one kind.

    The traces at p are the power sums of the inverse roots of P_p
    (Newton's identities, exact), and trace_n violates the bound when
    trace_n^2 > (deg P_p)^2 * p^{e n}, compared exactly for weight e.
    """
    factors, excluded = _local_factors(model, kind, prime_cutoff)
    e = _weight(kind)
    per_prime = {p: len(P) - 1 for p, P in factors.items()}
    violations = []
    for p, P in factors.items():
        chi = per_prime[p]
        if chi == 0:
            continue
        for n, t in enumerate(power_sums_inverse_roots(P, n_cutoff), start=1):
            if t * t > chi * chi * p ** (e * n):
                violations.append({"p": p, "n": n, "trace": str(t), "chi": chi})
    certificate = BoundsCertificate(
        kind=kind if isinstance(kind, str) else "weight",
        C=max(per_prime.values(), default=0),
        weight=None if isinstance(kind, str) else kind,
        prime_cutoff=prime_cutoff,
        n_cutoff=n_cutoff,
        per_prime_chi=per_prime,
        primes_covered=len(factors),
        excluded=excluded,
        violations=tuple(violations),
    )
    return factors, certificate


def bounds_certificate(
    model: ArithmeticModel, parity: str, prime_cutoff: int, n_cutoff: int
) -> BoundsCertificate:
    """Verify |trace(F^n)| against the dimension bound, every good prime.

    Even traces are bounded by the dimension itself (eigenvalues on the
    unit circle); odd traces by dimension * p^{n/2}.  Traces come from
    Newton's identities on the exact local factors, and the
    inequalities are checked exactly, so the certificate never rests on
    float rounding.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    return _trace_certificate(model, parity, prime_cutoff, n_cutoff)[1]


def serre_bounds_certificate(
    model: ArithmeticModel, w: int, prime_cutoff: int, n_cutoff: int
) -> BoundsCertificate:
    """Per-weight trace bounds |sum lambda^n| <= C * p^{wn/2}, plus a
    sample of the weight-w L-function inside its half-plane.

    The traces use the unshifted weight-w inverse roots; C is the
    largest observed weight-w Betti number.  The partial product at the
    sample point s = w/2 + 1.5 carries the same tail bound as the parity
    L-functions.  A negative weight raises ValueError, and so does a
    range with no local factor.
    """
    if w < 0:
        raise ValueError(f"weight must be non-negative, got {w}")
    factors, certificate = _trace_certificate(model, w, prime_cutoff, n_cutoff)
    sample_s = complex(w / 2 + 1.5)
    value, tail, _ = _euler_product(factors, sample_s, w, prime_cutoff)
    return replace(certificate, sample_s=sample_s, sample_value=value, sample_tail=tail)


# ---------------------------------------------------------------------------
# Analytic continuation (closed forms only)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _borwein_coefficients(n):
    """d_0..d_n for the alternating-series acceleration scheme."""
    d = []
    for k in range(n + 1):
        total = 0
        for i in range(k + 1):
            total += (
                math.factorial(n + i - 1)
                * 4**i
                // (math.factorial(n - i) * math.factorial(2 * i))
            )
        d.append(n * total)
    return tuple(d)


def _beta_series(s):
    """beta(s) = sum_{k>=0} (-1)^k (2k + 1)^{-s} for Re(s) > 0, in mpmath,
    by BETA_TERMS Chebyshev-weighted partial sums: the weights converge
    geometrically at rate (3 + sqrt(8))^{-n} for terms that are moments
    of a measure on [0, 1], as (2k + 1)^{-s} are on Re(s) > 0."""
    n = BETA_TERMS
    d = _borwein_coefficients(n)
    acc = mpmath.mpf(0)
    for k in range(n):
        acc += (-1) ** k * (d[k] - d[n]) * mpmath.power(2 * k + 1, -s)
    return -acc / d[n]


# The double route.  Error bounds are relative to the exact value and
# follow series._first_pass: a cmath exp, log or sin of an argument
# computed from a double point with a few roundings, of size A, is
# within 8 u (A + 1) of its exact argument; an arithmetic operation
# costs 8 u relative, and a product of factors with relative errors r_i
# is within 2 sum r_i of the exact product while sum r_i <= 1.  The
# reflection evaluates at 1 - s, one rounding from the exact point,
# which each argument bound covers.
_LN2, _LN_2PI, _LN_HALF_PI = math.log(2), math.log(2 * math.pi), math.log(math.pi / 2)
# B_2k / (2k (2k - 1)) for k = 1..8: Stirling's series for log Gamma,
# taken at x with Re x >= _STIRLING_FROM; the first omitted one (k = 9)
# bounds its remainder.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400
)
_STIRLING_OMITTED = 43867 / 244188
_STIRLING_FROM = 9


@lru_cache(maxsize=2)
def _double_series(odd):
    """(weights, logs, 1/d_n) of DOUBLE_TERMS Borwein terms in doubles:
    sum_k (-1)^k m_k^{-z} ~ sum_k w_k exp(-z log m_k), with
    w_k = (-1)^k (d_n - d_k) / d_n and m_k = 2k + 1 (odd, beta) or
    k + 1 (eta), each rounded once."""
    n = DOUBLE_TERMS
    d = _borwein_coefficients(n)
    weights = tuple((-1) ** k * (d[n] - d[k]) / d[n] for k in range(n))
    logs = tuple(math.log(2 * k + 1 if odd else k + 1) for k in range(n))
    return weights, logs, 1 / d[n]


def _relative(size, err):
    """A relative error bound from an absolute one err on a computed
    value of modulus size: err / (size - err), inf unless size > err."""
    return err / (size - err) if size > err else math.inf


def _alternating_double(z, odd):
    """(eta(z) or beta(z), relative error bound) in complex doubles for
    Re z >= 1/2, by DOUBLE_TERMS terms of _double_series.

    Truncation: for a_k = m_k^{-z}, the moments of a measure mu on [0, 1]
    with int d|mu| / (1 + x) = Gamma(sigma) f(sigma) / |Gamma(z)| (f = eta
    or beta at sigma = Re z, both at most 1), the Chebyshev weights miss
    the sum by at most that integral over d_n = T_n(3) (Cohen, Rodriguez
    Villegas and Zagier, Exp. Math. 9, 2000; P. Borwein, CMS Conf. Proc.
    27, 2000), and Gamma(sigma) / |Gamma(sigma + it)| <= sqrt(cosh(pi t))
    for sigma >= 1/2, the product prod_k (1 + t^2 / (sigma + k)^2) falling
    in sigma to cosh(pi t) at 1/2.  Rounding: each term is within
    8 u (|z| log m_k + 2) of its exact value (exp, the product with
    w_k and the weight's own rounding), and the sum of n terms adds
    (n + 3) u of their moduli (Higham 4.2); the bound doubles both, as
    series._horner does.
    """
    weights, logs, tail = _double_series(odd)
    value, size, spread = 0j, 0.0, 0.0
    for w, lg in zip(weights, logs):
        term = w * cmath.exp(-z * lg)
        value += term
        a = abs(term)
        size += a
        spread += a * lg
    err = 2 * ((len(weights) + 3) * _U * size + 8 * _U * (abs(z) * spread + 2 * size))
    err += math.sqrt(math.cosh(math.pi * z.imag)) * tail
    return value, _relative(abs(value), err)


def _log_gamma(z):
    """(P, L, rel, err) with Gamma(z) = e^L / P in complex doubles, for
    z computed with one rounding.

    P = z (z + 1) ... (z + m - 1) shifts x = z + m to Re x >= _STIRLING_FROM,
    with rel its relative error bound; L is Stirling's series for
    log Gamma(x) with err an absolute bound that covers x's rounding
    (|psi(x)| <= |log x| + 1), the rounding of the series and its
    remainder, at most the first omitted term times
    sec^18(arg(x) / 2) (Olver, Asymptotics and Special Functions, ch. 8;
    DLMF 5.11.ii).  A factor of P within its own error of zero makes rel
    inf, so a Gamma pole is never claimed.
    """
    dz = 2 * _U * abs(z)
    m = max(0, math.ceil(_STIRLING_FROM - z.real))
    P, rel = 1, 0.0
    for i in range(m):
        f = z + i
        P *= f
        rel += _relative(abs(f), dz + _U * abs(f)) + 8 * _U
    x = z + m
    r = abs(x)
    lx = cmath.log(x)
    y = 1 / (x * x)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * y + c
    L = (x - 0.5) * lx - x + _LN_2PI / 2 + series / x
    omitted = _STIRLING_OMITTED / (r**17 * ((1 + x.real / r) / 2) ** 9)
    err = (abs(lx) + 1) * (dz + _U * r) + 16 * _U * (abs(x - 0.5) * abs(lx) + r + 1) + omitted
    return P, L, rel, err


def _exp_error(size, err=0.0):
    """Relative error bound of cmath.exp at an argument of modulus size,
    computed with a few roundings and off by err besides:
    |e^delta - 1| <= 2 |delta| for |delta| <= 1, plus exp's own 8 u."""
    return 2 * (8 * _U * (size + 1) + err) + 8 * _U


def _l_double(s, odd):
    """(L(s), r) in complex doubles for L = beta (odd) or zeta, r the sum
    of its factors' relative error bounds.

    For Re s >= 1/2, _alternating_double, divided by 1 - 2^{1-s} for zeta;
    below that the reflection both characters obey,
    L(s) = m B^{s-1} sin(pi (s + a)/2) Gamma(1-s) L(1-s), with
    (m, B, a) = (2, 2 pi, 0) for zeta (DLMF 25.4.2) and (1, pi/2, 1) for
    beta.  Gamma(1-s) has no pole there, and the trivial zeros are the
    sine's, where its relative bound is infinite.
    """
    if s.real < 0.5:
        value, rel = _l_double(1 - s, odd)
        ln_m, ln_B, a = (0.0, _LN_HALF_PI, 1) if odd else (_LN2, _LN_2PI, 0)
        w = (s + a) * (math.pi / 2)
        sine = cmath.sin(w)
        P, L, rel_P, err_L = _log_gamma(1 - s)
        A = ln_m + (s - 1) * ln_B + L
        size = ln_m + abs(s - 1) * ln_B + abs(L)
        rel += 8 * _U * (abs(w) * math.cosh(w.imag) / abs(sine) + 1)
        rel += rel_P + _exp_error(size, err_L) + 24 * _U
        return value * sine * cmath.exp(A) / P, rel
    value, rel = _alternating_double(s, odd)
    if odd:
        return value, rel
    x = cmath.exp((1 - s) * _LN2)
    den = 1 - x
    rel += _relative(abs(den), _exp_error(abs(1 - s) * _LN2) * abs(x) + _U * abs(den))
    return value / den, rel + 8 * _U


def _double_route(s, odd):
    """(value, relative error bound) of _l_double at the complex double s
    when the bound proves a relative error of at most DOUBLE_TOL, else
    None: the point then takes the mpmath route, as it does on overflow,
    division by zero or a value that is not finite.  The bound is twice
    the sum _l_double returns, which covers the product of its factors."""
    try:
        value, rel = _l_double(s, odd)
    except (ArithmeticError, ValueError):
        return None
    rel *= 2
    if cmath.isfinite(value) and rel <= DOUBLE_TOL:
        return value, rel
    return None


def zeta_continuation(s):
    """The Riemann zeta function anywhere except the pole at s=1.

    Complex doubles with a proven bound first (_l_double: Borwein's
    alternating series for eta on the right, the reflection formula on
    the left), and where the bound cannot settle a point mpmath.zeta at
    CONTINUATION_DPS digits, with whichever algorithm mpmath picks there.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has its pole at s=1")
    double = _double_route(s, odd=False)
    if double is not None:
        return double[0]
    with mpmath.workdps(CONTINUATION_DPS):
        return complex(mpmath.zeta(mpmath.mpc(s)))


def dirichlet_beta(s):
    """The alternating mod-4 L-function, continued everywhere.

    Complex doubles with a proven bound first (_l_double), mpmath at
    CONTINUATION_DPS digits where the bound cannot settle a point: there
    _beta_series for Re(s) > 0, and for Re(s) <= 0 the reflection of
    _l_double, whose cos(pi s/2) (mpmath.cospi) is exactly zero at the
    trivial zeros.
    """
    s = complex(s)
    double = _double_route(s, odd=True)
    if double is not None:
        return double[0]
    with mpmath.workdps(CONTINUATION_DPS):
        s_mp = mpmath.mpc(s)
        if s_mp.real > 0:
            return complex(_beta_series(s_mp))
        factor = mpmath.power(mpmath.pi / 2, s_mp - 1) * mpmath.cospi(s_mp / 2)
        return complex(factor * mpmath.gamma(1 - s_mp) * _beta_series(1 - s_mp))


def _closed_form_factors(model: ArithmeticModel, parity: str):
    """The closed form of a parity's L-function as its distinct factors,
    ((odd, shift), multiplicity) pairs for L(s - shift) with L = beta
    (odd) or zeta, or None without a tag.

    This is the one description of a closed form: closed_form_l_function
    evaluates it and order_dashboard reads its orders off it.  All
    shipped closed forms have trivial odd part, the empty product.  The
    even part is zeta(s - j) over the shifts j of a mixed-Tate tag, one
    factor per distinct shift with its count as multiplicity, or zeta
    times the mod-4 L-function beta for the Gaussian case.
    """
    tag = model.closed_form
    if tag is None:
        return None
    if parity == "odd":
        return ()
    if tag[0] == "mixed_tate":
        return tuple(((False, j), m) for j, m in sorted(Counter(tag[1]).items()))
    if tag[0] == "dedekind_qi":
        return (((False, 0), 1), ((True, 0), 1))
    raise AssertionError(f"unhandled closed form {tag!r}")


def closed_form_l_function(model: ArithmeticModel, parity: str):
    """The continued L-function as a callable, or None without a tag.

    It is the product of `_closed_form_factors`, each to its
    multiplicity; the odd part is the constant 1.
    """
    factors = _closed_form_factors(model, parity)
    if factors is None:
        return None
    terms = [
        (dirichlet_beta if odd else zeta_continuation, shift, m) for (odd, shift), m in factors
    ]
    return lambda s: math.prod(
        (fn(complex(s) - shift) ** m for fn, shift, m in terms), start=complex(1.0)
    )


# ---------------------------------------------------------------------------
# Orders of vanishing
# ---------------------------------------------------------------------------


def winding_order(fn, center):
    """Order of fn at center by the argument principle on the circle of
    radius WINDING_RADIUS.

    The contour starts as WINDING_SAMPLES equally spaced points, and an arc
    is bisected while its end values have |f(z1)/f(z0) - 1| >
    WINDING_STEP (arc refinement after Ying & Katz, "A reliable
    argument principle algorithm...", Numer. Math. 53, 1988).  Each
    accepted arc then turns the phase by less than arcsin(1/4), and a
    dip in |f| between samples shows as a large ratio, so the arc
    phases arg(f(z1)/f(z0)) add up to 2*pi times the winding number.

    Returns (order, residual): the winding number, with the distance of
    the phase sum / 2*pi from it, which is float rounding only.  A zero
    or pole on or near the contour returns (None, inf), not an
    exception and not a made-up integer: an arc still too coarse after
    WINDING_DEPTH bisections, or a sample that is zero, not finite or
    raises PoleError.
    """
    center = complex(center)

    def value(theta):
        z = center + WINDING_RADIUS * complex(math.cos(theta), math.sin(theta))
        try:
            v = complex(fn(z))
        except PoleError:
            return None
        return v if v != 0 and cmath.isfinite(v) else None

    thetas = [2 * math.pi * k / WINDING_SAMPLES for k in range(WINDING_SAMPLES + 1)]
    values = [value(theta) for theta in thetas[:-1]]
    if None in values:
        return None, math.inf
    values.append(values[0])
    total = 0.0
    for k in range(WINDING_SAMPLES):
        arcs = [(thetas[k], values[k], thetas[k + 1], values[k + 1], 0)]
        while arcs:
            t0, v0, t1, v1, depth = arcs.pop()
            ratio = v1 / v0
            if abs(ratio - 1) <= WINDING_STEP:
                total += cmath.phase(ratio)
                continue
            if depth == WINDING_DEPTH:
                return None, math.inf
            tm = (t0 + t1) / 2
            vm = value(tm)
            if vm is None:
                return None, math.inf
            arcs.append((tm, vm, t1, v1, depth + 1))
            arcs.append((t0, v0, tm, vm, depth + 1))
    winding = total / (2 * math.pi)
    order = round(winding)
    return order, abs(winding - order)


_DASHBOARD_EQUALITIES = {
    (1, "even"): ("k0_hom", -1),
    (0, "even"): ("k1", 1),
    (-1, "even"): ("k3", 1),
    (1, "odd"): ("k0_zero", 1),
    (0, "odd"): ("k2", 1),
}


def _exact_order(odd, n):
    """The order of beta (odd) or zeta at the integer n, exactly.

    For n >= 1: the Euler product converges and is nonzero from n = 2 on,
    zeta has its simple pole at 1, and beta(1) = pi/4.  For n <= 0: in the
    reflection of _l_double, L(s) = m B^{s-1} sin(pi (s + a)/2)
    Gamma(1 - s) L(1 - s), Gamma(1 - n) is finite and nonzero and the sine
    has a simple zero exactly when n + a is even, so
    ord_n L = [n + a even] + ord_{1-n} L.
    """
    if n >= 1:
        return -1 if n == 1 and not odd else 0
    return int((n + odd) % 2 == 0) + _exact_order(odd, 1 - n)


def order_dashboard(model: ArithmeticModel, j: int, ranks: dict = None):
    """Orders of the parity L-functions at the integer s=j against
    supplied ranks.

    Orders are exact: the sum over `_closed_form_factors` of multiplicity
    times `_exact_order` of the factor at j - shift, with residual 0.0.
    No continuation is evaluated; winding_order counts the same orders on
    the continued closed form, as the tests' second route.  A j that is
    not an int is a ValueError.  Models without a closed form get
    UNSUPPORTED rows instead of fabricated orders.  Ranks are fixtures
    (from the model file or the ranks argument) and every row says which
    rank was supplied.  The known equalities cover j in {1, 0} for both
    parities and j = -1 for the even part; other combinations are INFO
    rows.  The further variants involving extension groups are reported
    as an INFO row only, since no rank data exists for them.
    """
    if isinstance(j, bool) or not isinstance(j, int):
        raise ValueError(f"the order dashboard needs an integer j, not {j!r}")
    if ranks is None:
        ranks = model.ranks
    rows = []
    for parity in ("even", "odd"):
        factors = _closed_form_factors(model, parity)
        rank_name, sign = _DASHBOARD_EQUALITIES.get((j, parity), (None, None))
        base = {
            "j": j,
            "parity": parity,
            "ord_computed": None,
            "rank_name": rank_name,
            "rank_supplied": ranks.get(rank_name) if rank_name else None,
        }
        if factors is None:
            rows.append(
                dict(base, verdict=UNSUPPORTED, note="no closed-form continuation for this model")
            )
            continue
        order = sum(m * _exact_order(odd, j - shift) for (odd, shift), m in factors)
        base.update(ord_computed=order, residual=0.0)
        if rank_name is None:
            verdict, note = INFO, "no stated equality at this point"
        elif rank_name not in ranks:
            verdict, note = UNSUPPORTED, f"rank fixture {rank_name} not supplied"
        else:
            expected = sign * ranks[rank_name]
            verdict = PASS if order == expected else FAIL
            note = f"conjectural value {expected} (sign {sign})"
        rows.append(dict(base, verdict=verdict, note=note))
    rows.append(
        {
            "j": j,
            "parity": "both",
            "ord_computed": None,
            "rank_name": None,
            "rank_supplied": None,
            "verdict": INFO,
            "note": "extension-group variants carry no known ranks; not evaluated",
        }
    )
    return rows


def dashboard_checks(rows):
    """Wrap dashboard rows as report checks (one per row)."""
    checks = []
    for row in rows:
        name = f"beilinson.j{row['j']}.{row['parity']}"
        detail = row.get("note", "")
        if row.get("ord_computed") is not None:
            detail = (
                f"ord={row['ord_computed']}, supplied {row.get('rank_name')}="
                f"{row.get('rank_supplied')}; {detail}"
            )
        checks.append(Check(name=name, verdict=row["verdict"], detail=detail, data=row))
    return checks
