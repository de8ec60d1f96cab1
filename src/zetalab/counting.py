"""Variety descriptions and exact point counting over finite fields.

The input language is a small line-oriented DSL (statements separated by
`;` or newlines):

    projective <n>; vars <idents>; eq <poly> [; eq <poly>]*
    affine <n>; vars <idents>; eq <poly> [; eq <poly>]*
    elliptic a=[a1,a2,a3,a4,a6]
    zerodim <monic integer polynomial in x>
    product { <spec> } { <spec> }

Polynomials use integer coefficients and the operators + - * ^ with
explicit multiplication only.  Projective equations must be homogeneous;
this is checked at parse time.  Smoothness and properness are NOT
checked anywhere; downstream reports carry a banner saying so.

Counting is exact.  Three shapes have their weight factors P_0..P_2d in
closed form (local_weights) and are counted from them, #X(F_{q^n}) =
sum_w (-1)^w trace_n(P_w): projective space, zero-dimensional schemes
by distinct-degree factorization, and Weierstrass curves by one integer
count of #E(F_p) (a square table over x at odd p, the four (x, y) pairs
at p = 2); default_betti gives the Betti numbers these shapes and
their products fix.  Everything else is counted over the extension
field, fibred over the last coordinate z (_count_zeros).  The other
coordinates are walked on the field's Zech-log tables, one normalized
representative per projective point (first nonzero coordinate = 1) so
no division by the unit group is ever needed: a choice of zero
coordinates plus the logs of the others.  On each fibre an equation is
a polynomial in z whose coefficients take one table lookup per term,
and the fibre holds as many points as the gcd G of its equations has
distinct roots in F_Q, deg gcd(G, z^Q - z), computed on logs in
zetalab.poly.  That walks Q times fewer candidates than the points.
Only such counts and products with such a factor enter the disk cache,
which count_series alone reads and writes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

from . import poly
from .arith import (
    DEFAULT_DEGREE_CAP,
    FiniteField,
    PrimePower,
    make_extension_field,
)
from .series import power_sums_inverse_roots

__all__ = [
    "BudgetError",
    "DEFAULT_BUDGET",
    "ParseError",
    "PointCounts",
    "Polynomial",
    "VarietySpec",
    "count_points",
    "count_series",
    "default_betti",
    "has_closed_form",
    "local_weights",
    "parse_variety",
]

DEFAULT_BUDGET = 10**9


class BudgetError(RuntimeError):
    """Raised before a count whose work exceeds the budget: the points of
    the ambient space for an enumeration, the values of x (the (x, y)
    pairs at p = 2) for a Weierstrass curve's #E(F_p)."""


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Polynomials (multivariate, integer coefficients)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial in named variables.

    terms maps exponent tuples to nonzero coefficients, stored sorted
    for a stable canonical form.
    """

    variables: tuple
    terms: tuple  # ((exponents, coefficient), ...) sorted by exponents

    @classmethod
    def from_dict(cls, variables, term_map):
        items = tuple(
            (exps, c) for exps, c in sorted(term_map.items(), reverse=True) if c != 0
        )
        return cls(tuple(variables), items)

    def total_degrees(self):
        return sorted({sum(exps) for exps, _ in self.terms})

    def is_homogeneous(self):
        return len(self.total_degrees()) <= 1

    def canonical(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.terms:
            bits = [str(c)]
            for v, e in zip(self.variables, exps):
                if e == 1:
                    bits.append(v)
                elif e > 1:
                    bits.append(f"{v}^{e}")
            parts.append("*".join(bits))
        return "+".join(parts)


# ---------------------------------------------------------------------------
# Variety specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarietySpec:
    """A parsed variety description.

    kind is one of projective_space, plane_projective_curve,
    projective_hypersurface, elliptic_curve, zero_dimensional, product,
    raw_system.
    """

    kind: str
    ambient_dim: int = 0
    ambient: str = ""  # "projective" or "affine" for raw_system
    equations: tuple = ()
    a_invariants: tuple = ()
    zero_poly: tuple = ()  # integer coefficients, low degree first, monic
    left: "VarietySpec" = None
    right: "VarietySpec" = None

    def canonical(self):
        k = self.kind
        if k == "projective_space":
            return f"projspace({self.ambient_dim})"
        if k == "plane_projective_curve":
            return f"planecurve({self.equations[0].canonical()})"
        if k == "projective_hypersurface":
            return f"hypersurface({self.ambient_dim};{self.equations[0].canonical()})"
        if k == "elliptic_curve":
            return "elliptic(" + ",".join(str(a) for a in self.a_invariants) + ")"
        if k == "zero_dimensional":
            return "zerodim(" + ",".join(str(c) for c in self.zero_poly) + ")"
        if k == "product":
            return f"product({self.left.canonical()};{self.right.canonical()})"
        if k == "raw_system":
            eqs = ";".join(e.canonical() for e in self.equations)
            return f"rawsystem({self.ambient}{self.ambient_dim};{eqs})"
        raise ValueError(f"unknown kind {k!r}")

    def fingerprint(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PointCounts:
    """Exact counts N_n = #X(F_{q^n}) for n = 1..len(counts)."""

    q: PrimePower
    counts: tuple
    fingerprint: str

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("point counts must be non-negative")

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, n):
        """1-based access: self[n] is the count over F_{q^n}."""
        if not 1 <= n <= len(self.counts):
            raise IndexError(f"no count for degree {n}")
        return self.counts[n - 1]


# ---------------------------------------------------------------------------
# DSL tokenizer / parser
# ---------------------------------------------------------------------------

_PUNCT = set("+-*^();{}[],=")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(("SEP", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":
            tokens.append(("SEP", ";", line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", None, line, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok[1]!r}" if tok[0] != "EOF"
                else f"expected {what or kind}, found end of input",
                tok[2],
                tok[3],
            )
        return self.next()

    def skip_seps(self):
        while self.peek()[0] == "SEP":
            self.next()


def _parse_poly(ts: _TokenStream, variables):
    """Recursive descent; returns {exponent tuple: coefficient}."""
    var_index = {v: i for i, v in enumerate(variables)}
    nvars = len(variables)
    zero_exp = (0,) * nvars

    def add_into(acc, other, sign=1):
        for e, c in other.items():
            acc[e] = acc.get(e, 0) + sign * c
        return acc

    def mul_terms(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return out

    def parse_atom():
        tok = ts.peek()
        if tok[0] == "INT":
            ts.next()
            return {zero_exp: tok[1]}
        if tok[0] == "IDENT":
            ts.next()
            if tok[1] not in var_index:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
            e = list(zero_exp)
            e[var_index[tok[1]]] = 1
            return {tuple(e): 1}
        if tok[0] == "(":
            ts.next()
            inner = parse_expr()
            ts.expect(")", "')'")
            return inner
        if tok[0] == "-":
            ts.next()
            return add_into({}, parse_factor(), -1)
        raise ParseError(f"expected a polynomial term, found {tok[1]!r}", tok[2], tok[3])

    def parse_factor():
        base = parse_atom()
        if ts.peek()[0] == "^":
            ts.next()
            tok = ts.expect("INT", "an integer exponent")
            result = {zero_exp: 1}
            for _ in range(tok[1]):
                result = mul_terms(result, base)
            return result
        return base

    def parse_term():
        acc = parse_factor()
        while ts.peek()[0] == "*":
            ts.next()
            acc = mul_terms(acc, parse_factor())
        return acc

    def parse_expr():
        acc = {}
        add_into(acc, parse_term())
        while ts.peek()[0] in ("+", "-"):
            op = ts.next()
            add_into(acc, parse_term(), 1 if op[0] == "+" else -1)
        return acc

    start = ts.peek()
    terms = parse_expr()
    terms = {e: c for e, c in terms.items() if c != 0}
    if not terms:
        raise ParseError("polynomial is identically zero", start[2], start[3])
    return terms


def _parse_ambient_spec(ts: _TokenStream, ambient_kw, line, col):
    n_tok = ts.expect("INT", "the ambient dimension")
    n = n_tok[1]
    ts.skip_seps()
    kw = ts.expect("IDENT", "'vars'")
    if kw[1] != "vars":
        raise ParseError(f"expected 'vars', found {kw[1]!r}", kw[2], kw[3])
    variables = []
    variables.append(ts.expect("IDENT", "a variable name")[1])
    while ts.peek()[0] == ",":
        ts.next()
        variables.append(ts.expect("IDENT", "a variable name")[1])
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable name", kw[2], kw[3])
    want = n + 1 if ambient_kw == "projective" else n
    if len(variables) != want:
        raise ParseError(
            f"{ambient_kw} {n} needs {want} variables, got {len(variables)}",
            kw[2],
            kw[3],
        )
    equations = []
    while True:
        ts.skip_seps()
        tok = ts.peek()
        if tok[0] != "IDENT" or tok[1] != "eq":
            break
        ts.next()
        eq_start = ts.peek()
        terms = _parse_poly(ts, variables)
        poly = Polynomial.from_dict(variables, terms)
        if ambient_kw == "projective" and not poly.is_homogeneous():
            raise ParseError(
                "non-homogeneous polynomial in projective ambient",
                eq_start[2],
                eq_start[3],
            )
        equations.append(poly)
    if ambient_kw == "projective":
        if not equations:
            return VarietySpec(kind="projective_space", ambient_dim=n)
        if len(equations) == 1 and n == 2:
            return VarietySpec(
                kind="plane_projective_curve", ambient_dim=2, equations=(equations[0],)
            )
        if len(equations) == 1:
            return VarietySpec(
                kind="projective_hypersurface",
                ambient_dim=n,
                equations=(equations[0],),
            )
        return VarietySpec(
            kind="raw_system",
            ambient="projective",
            ambient_dim=n,
            equations=tuple(equations),
        )
    return VarietySpec(
        kind="raw_system",
        ambient="affine",
        ambient_dim=n,
        equations=tuple(equations),
    )


def _parse_spec(ts: _TokenStream):
    ts.skip_seps()
    head = ts.expect("IDENT", "a variety keyword")
    kw = head[1]
    if kw in ("projective", "affine"):
        return _parse_ambient_spec(ts, kw, head[2], head[3])
    if kw == "elliptic":
        a_tok = ts.expect("IDENT", "'a'")
        if a_tok[1] != "a":
            raise ParseError(f"expected 'a', found {a_tok[1]!r}", a_tok[2], a_tok[3])
        ts.expect("=", "'='")
        ts.expect("[", "'['")
        values = []
        while True:
            sign = 1
            if ts.peek()[0] == "-":
                ts.next()
                sign = -1
            values.append(sign * ts.expect("INT", "an integer")[1])
            if ts.peek()[0] == ",":
                ts.next()
                continue
            break
        ts.expect("]", "']'")
        if len(values) != 5:
            raise ParseError(
                f"elliptic needs [a1,a2,a3,a4,a6], got {len(values)} entries",
                head[2],
                head[3],
            )
        return VarietySpec(kind="elliptic_curve", a_invariants=tuple(values))
    if kw == "zerodim":
        start = ts.peek()
        terms = _parse_poly(ts, ("x",))
        deg = max(e[0] for e in terms)
        coeffs = tuple(terms.get((i,), 0) for i in range(deg + 1))
        if deg < 1:
            raise ParseError("zerodim polynomial must be non-constant", start[2], start[3])
        if coeffs[-1] != 1:
            raise ParseError("zerodim polynomial must be monic", start[2], start[3])
        return VarietySpec(kind="zero_dimensional", zero_poly=coeffs)
    if kw == "product":
        ts.expect("{", "'{'")
        left = _parse_spec(ts)
        ts.skip_seps()
        ts.expect("}", "'}'")
        ts.expect("{", "'{'")
        right = _parse_spec(ts)
        ts.skip_seps()
        ts.expect("}", "'}'")
        return VarietySpec(kind="product", left=left, right=right)
    raise ParseError(f"unknown variety keyword {kw!r}", head[2], head[3])


def parse_variety(text: str) -> VarietySpec:
    """Parse DSL text; raises ParseError with line/column on bad input."""
    ts = _TokenStream(_tokenize(text))
    spec = _parse_spec(ts)
    ts.skip_seps()
    tok = ts.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return spec


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _check_budget(total, budget, unit):
    """Charge total units of work (unit names them) against the budget."""
    if total > budget:
        raise BudgetError(f"{total} {unit} exceed the budget of {budget}")


def _count_projective(field: FiniteField, nvars, polys, budget):
    """Count projective solutions, one normalized representative each:
    zero before a leading coordinate equal to 1, anything after it.  A
    leading coordinate before the last leaves the last one free; the
    last one leading is the point [0:...:0:1]."""
    qn = field.order
    _check_budget((qn**nvars - 1) // (qn - 1), budget, "points of the projective ambient space")
    patterns = [
        ((lead,), nonzero)
        for lead in range(nvars)
        for size in range(nvars - lead)
        for nonzero in itertools.combinations(range(lead + 1, nvars - 1), size)
    ]
    return _count_zeros(field, nvars, polys, patterns)


def _count_affine(field: FiniteField, nvars, polys, budget):
    """Count affine solutions: each pattern fixes which of the first
    nvars - 1 coordinates are zero, and the last one is free."""
    _check_budget(field.order**nvars, budget, "points of the affine ambient space")
    patterns = [
        ((), nonzero)
        for size in range(nvars)
        for nonzero in itertools.combinations(range(nvars - 1), size)
    ]
    return _count_zeros(field, nvars, polys, patterns)


def _count_zeros(field: FiniteField, nvars, polys, patterns):
    """Common zeros of polys, fibred over the last coordinate z.

    Each pattern (ones, nonzero) fixes the other coordinates: those in
    ones equal 1, those in nonzero run over F_Q^x by their logs l, and
    the rest are 0; z is 1 when it is in ones and free otherwise.  A term
    c x^e z^k then contributes log c + sum(e_i l_i) to the coefficient of
    z^k, or nothing when c = 0 mod p or it meets a zero coordinate, and
    the terms of one degree are summed by g^a + g^b = g^(a + zech[b - a]).
    A fibre's zeros are the distinct roots in F_Q of the gcd G of its
    specialised equations: Q (one point when z is fixed) when every
    equation vanishes, else deg gcd(G, z^Q - z).
    """
    tables = field.log_tables()
    log, zech = tables.log, tables.zech
    p, Q, last = field.p, field.order, nvars - 1
    equations = [
        [(log[c % p], exps) for exps, c in eq.terms if c % p] for eq in polys
    ]
    count = 0
    for ones, nonzero in patterns:
        free = last not in ones
        zero = set(range(nvars)).difference(ones, nonzero, [last])
        system = []
        for terms in equations:
            live = [
                (lc, tuple(exps[i] for i in nonzero), exps[last] if free else 0)
                for lc, exps in terms
                if not any(exps[i] for i in zero)
            ]
            if len(live) == 1 and live[0][2] == 0:  # nonzero on every fibre
                break
            if live:
                system.append((live, 1 + max(k for _, _, k in live)))
        else:
            size = Q if free else 1
            if not system:
                count += (Q - 1) ** len(nonzero) * size
                continue
            for logs in itertools.product(range(Q - 1), repeat=len(nonzero)):
                G = []
                for live, length in system:
                    f = [-1] * length
                    for lc, es, k in live:
                        t = lc
                        for e, l in zip(es, logs):
                            t += e * l
                        f[k] = poly.fq_sum(f[k], t, zech)
                    while f and f[-1] < 0:
                        f.pop()
                    G = poly.fq_gcd(G, f, zech) if G else f
                    if len(G) == 1:  # a nonzero constant: no zeros
                        break
                count += poly.fq_root_count(G, zech) if G else size
    return count


def _elliptic_frobenius(spec, q: PrimePower, budget):
    """det(1 - t Frob | H^1) of the Weierstrass curve over F_q, q = p^r.

    With a = p + 1 - #E(F_p) it is 1 - a_r t + p^r t^2, a_r the r-th power
    sum of the inverse roots of 1 - a t + p t^2, when the discriminant is
    a unit mod p (Silverman, AEC V.2).  At singular reduction the
    nonsingular points form G_a, G_m or a twisted G_m, so a is 0 or +-1
    and the factor is 1 - a^r t (ibid. III.2.5).  Odd p completes the
    square, (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, and reads
    the y-count of each x off a table of square roots; p = 2 walks the
    four (x, y) pairs.
    """
    a1, a2, a3, a4, a6 = spec.a_invariants
    p, r = q.p, q.r
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if p == 2:
        _check_budget(4, budget, "(x, y) pairs of the elliptic count")
        affine = sum(
            (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
            for x in (0, 1)
            for y in (0, 1)
        )
    else:
        _check_budget(p, budget, "values of x of the elliptic count")
        roots = [0] * p  # roots[v] = #{u : u^2 = v}
        for u in range(p):
            roots[u * u % p] += 1
        affine = sum(roots[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))
    a = p - affine  # #E(F_p) = affine + 1, the point at infinity
    good = disc % p != 0
    a_r = power_sums_inverse_roots((1, -a, p) if good else (1, -a), r)[-1]
    return (1, -a_r, p**r) if good else poly.trim((1, -a_r))


def has_closed_form(spec: VarietySpec) -> bool:
    """Whether local_weights reads spec's weight factors off its shape
    (and so counts nothing)."""
    return spec.kind in ("projective_space", "zero_dimensional", "elliptic_curve")


def default_betti(spec: VarietySpec):
    """Betti numbers b_0..b_2d that spec's shape fixes, or None.  They are
    generic: a zero-dimensional scheme's is its degree, where local_weights
    at a ramified prime reads the square-free part.  A product's are its
    factors' convolved (Kunneth)."""
    if spec.kind == "product":
        left, right = default_betti(spec.left), default_betti(spec.right)
        return None if None in (left, right) else poly.mul(left, right)
    if spec.kind == "projective_space":
        return tuple(1 - w % 2 for w in range(2 * spec.ambient_dim + 1))
    if spec.kind == "zero_dimensional":
        return (len(spec.zero_poly) - 1,)
    return (1, 2, 1) if spec.kind == "elliptic_curve" else None


def local_weights(spec: VarietySpec, q: PrimePower, *, budget=DEFAULT_BUDGET):
    """Weight factors P_0..P_2d of X over F_q read off its shape, or None.

    Integer tuples with P_w(0) = 1, so #X(F_{q^n}) = sum_w (-1)^w
    trace_n(P_w).  P^d has 1 - q^i t at weight 2i and 1 at odd weights.
    A zero-dimensional scheme has prod (1 - t^(k/g))^(cnt g), g = gcd(k, r),
    over its degree pattern {k: cnt} mod p: a point of degree k over F_p
    is g points of degree k/g over F_q.  A Weierstrass curve has 1 - t,
    its Frobenius polynomial (_elliptic_frobenius) and 1 - q t.  Nothing
    here reads or writes the disk cache."""
    if not has_closed_form(spec):
        return None
    kind = spec.kind
    if kind == "projective_space":
        d = spec.ambient_dim
        return tuple((1,) if w % 2 else (1, -(q.q ** (w // 2))) for w in range(2 * d + 1))
    if kind == "zero_dimensional":
        P = (1,)
        for k, cnt in poly.fp_degree_pattern(spec.zero_poly, q.p).items():
            g = math.gcd(k, q.r)
            for _ in range(cnt * g):
                P = poly.mul(P, (1,) + (0,) * (k // g - 1) + (-1,))
        return (P,)
    return ((1, -1), _elliptic_frobenius(spec, q, budget), (1, -q.q))


def count_points(
    spec: VarietySpec,
    q: PrimePower,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> int:
    """Exact #X(F_{q^n}).  Integer-coefficient data is specialized mod p.

    A shape with weight factors in closed form (local_weights) is counted
    from them, with no extension field built; every other kind counts
    over F_{q^n} itself.
    """
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    return _point_counter(spec, q, n, budget, degree_cap)[0](n)


def _point_counter(spec: VarietySpec, q: PrimePower, m, budget, degree_cap):
    """(n -> #X(F_{q^n}) for 1 <= n <= m, whether it enumerates).  What does
    not depend on n is computed once: a shape's weight factors give their
    traces for every n <= m from one power-sum call each, and a product
    multiplies its factors' counts (and enumerates when one of them does)."""
    weights = local_weights(spec, q, budget=budget)
    if weights is not None:
        traces = [power_sums_inverse_roots(P, m) for P in weights]
        return (lambda n: sum((-1) ** w * t[n - 1] for w, t in enumerate(traces))), False
    if spec.kind == "product":
        left, walks_left = _point_counter(spec.left, q, m, budget, degree_cap)
        right, walks_right = _point_counter(spec.right, q, m, budget, degree_cap)
        return (lambda n: left(n) * right(n)), walks_left or walks_right
    return (lambda n: _count_over_extension(spec, q, n, budget, degree_cap)), True


def _count_over_extension(spec: VarietySpec, q: PrimePower, n, budget, degree_cap):
    if spec.kind not in ("plane_projective_curve", "projective_hypersurface", "raw_system"):
        raise ValueError(f"unknown kind {spec.kind!r}")
    field = make_extension_field(q, n, cap=degree_cap)
    if spec.ambient == "affine":
        return _count_affine(field, spec.ambient_dim, spec.equations, budget)
    return _count_projective(field, spec.ambient_dim + 1, spec.equations, budget)


# ---------------------------------------------------------------------------
# Count series with cache
# ---------------------------------------------------------------------------


def _cache_path(cache_dir, fingerprint, q: PrimePower):
    return Path(cache_dir) / f"{fingerprint}-p{q.p}r{q.r}.json"


def _load_cached_counts(path, fingerprint, q: PrimePower):
    """The file's counts {n: #X(F_{q^n})}, or {} unless it is readable, is
    for this fingerprint and q, and holds counts >= 0 at exactly the
    degrees 1..k, as a store always writes them."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["spec_hash"] != fingerprint or (data["q"]["p"], data["q"]["r"]) != (q.p, q.r):
            return {}
        out = {int(key): int(val) for key, val in data["counts"].items()}
    except (OSError, LookupError, TypeError, ValueError, AttributeError):
        return {}
    if sorted(out) != list(range(1, len(out) + 1)) or min(out.values(), default=0) < 0:
        return {}
    return out


def _store_cached_counts(path, fingerprint, q: PrimePower, counts):
    payload = {
        "spec_hash": fingerprint,
        "q": {"p": q.p, "r": q.r},
        "counts": {str(k): counts[k] for k in sorted(counts)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file of its own per writer, so concurrent stores never share
    # one; os.replace then swaps the finished file in atomically
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def count_series(
    spec: VarietySpec,
    q: PrimePower,
    m: int,
    *,
    cache_dir=None,
    budget: int = DEFAULT_BUDGET,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> PointCounts:
    """Counts over F_{q^n} for n = 1..m, backed by an optional JSON cache
    when they enumerate.  This is the cache's one reader and writer:
    closed forms (local_weights), and products of them, keep no file."""
    if m < 1:
        raise ValueError("need at least one count")
    fingerprint = spec.fingerprint()
    count, enumerates = _point_counter(spec, q, m, budget, degree_cap)
    cached = {}
    path = None
    if cache_dir is not None and enumerates:
        path = _cache_path(cache_dir, fingerprint, q)
        cached = _load_cached_counts(path, fingerprint, q)
    fresh = False
    for n in range(1, m + 1):
        if n in cached:
            continue
        try:
            cached[n] = count(n)
        except BudgetError as exc:
            raise BudgetError(f"at extension degree {n}: {exc}") from exc
        fresh = True
    if path is not None and fresh:
        _store_cached_counts(path, fingerprint, q, cached)
    return PointCounts(
        q=q, counts=tuple(cached[n] for n in range(1, m + 1)), fingerprint=fingerprint
    )
