"""End-to-end acceptance suite: one test per shipped guarantee.

Each test rebuilds its inputs from scratch (brute-force counts, fixture
models, randomized constructions with fixed seeds), asserts the
advertised exact identity or numeric tolerance, and enforces a
wall-clock budget around the computation.  Expected values that are not
forced by construction were computed independently before these tests
were written and are frozen here as literals.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from conftest import fixture_path
from zetalab.arith import PrimePower
from zetalab.counting import VarietySpec, count_series, parse_variety
from zetalab.lfun import (
    bounds_certificate,
    dirichlet_expand,
    euler_product_value,
    load_model,
    order_dashboard,
    serre_bounds_certificate,
    winding_order,
    zeta_continuation,
)
from zetalab.ncspec import (
    euler_pairing_kernel,
    nc_functional_check,
    nc_spectrum_from_weights,
    nc_zeta,
    order_additivity_check,
    pairing_duality_check,
    semisimplicity_criterion,
    strong_tate_check,
    weight_normalization_check,
)
from zetalab.report import FAIL, PASS
from zetalab.series import (
    RationalFunction,
    det_identity_minus_t,
    log_det_series,
    log_series,
)
from zetalab.poly import mul
from zetalab.zeta import (
    WeightDecomposition,
    WeightFactor,
    hasse_weil_functional_check,
    l_adic_check,
    weight_factorize,
    weil_check,
    zeta_rational,
)

ZETA2 = 1.6449340668482264

# Ten generic complex sample points.  Real parts avoid the integers
# 0..3 and the half-integer pole lines never align in argument, so no
# corpus variety has a pole or a numerator zero at any of them.
SAMPLE_POINTS = (
    0.3,
    1.2 + 0.7j,
    -0.4,
    2.1 - 0.3j,
    0.5 + 1.0j,
    -1.2 + 0.25j,
    2.6,
    1.75 - 1.1j,
    0.9 + 2.0j,
    -0.3 - 0.7j,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds:.0f}s"


def _decomposition(source, p, r, m, betti):
    spec = parse_variety(source)
    q = PrimePower(p, r)
    counts = count_series(spec, q, m)
    Z = zeta_rational(counts, betti)
    d = (len(betti) - 1) // 2
    return weight_factorize(Z, q, d, betti)


@pytest.fixture(scope="module")
def corpus():
    """Weight decompositions of the four reference varieties."""
    return {
        "p1": _decomposition("projective 1; vars x, y", 3, 1, 2, (1, 0, 1)),
        "p2": _decomposition("projective 2; vars x, y, z", 3, 1, 3, (1, 0, 1, 0, 1)),
        "e5": _decomposition("elliptic a=[0,0,0,1,0]", 5, 1, 4, (1, 2, 1)),
        "f9": _decomposition("zerodim x^2 + 1", 3, 1, 4, (2,)),
    }


@pytest.fixture(scope="module")
def p3_dec():
    return _decomposition(
        "projective 3; vars w, x, y, z", 2, 1, 4, (1, 0, 1, 0, 1, 0, 1)
    )


@pytest.fixture(scope="module")
def models():
    names = ("specq", "p1", "speczi", "elliptic")
    return {name: load_model(fixture_path(f"{name}.json")) for name in names}


# ---------------------------------------------------------------------------
# Small exact-matrix helpers, independent of the library's linear algebra
# ---------------------------------------------------------------------------


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _mat_inverse(M):
    n = len(M)
    aug = [
        [F(M[i][j]) for j in range(n)] + [F(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        scale = aug[row][col]
        aug[row] = [x / scale for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


def _random_invertible(rng, n, lo=-3, hi=3):
    while True:
        M = [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        try:
            _mat_inverse(M)
        except ZeroDivisionError:
            continue
        return M


def _random_unimodular(rng, n, ops=6):
    V = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        V[j] = [a + c * b for a, b in zip(V[j], V[i])]
    return V


def _rref_span(vectors):
    """Canonical row-reduced form of the span, computed here from scratch."""
    rows = [[F(x) for x in vec] for vec in vectors]
    if not rows:
        return ()
    width = len(rows[0])
    pivot_row = 0
    for col in range(width):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        scale = rows[pivot_row][col]
        rows[pivot_row] = [x / scale for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return tuple(tuple(row) for row in rows if any(x != 0 for x in row))


def _nullspace_basis(M):
    """Right kernel basis via row reduction, computed here from scratch."""
    n = len(M)
    rows = [[F(x) for x in row] for row in M]
    pivots = []
    pivot_row = 0
    for col in range(n):
        pivot = next((r for r in range(pivot_row, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        scale = rows[pivot_row][col]
        rows[pivot_row] = [x / scale for x in rows[pivot_row]]
        for r in range(n):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [F(0)] * n
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# The thirteen guarantees
# ---------------------------------------------------------------------------


def test_01_zeta_from_brute_force_counts():
    with budget(1.0):
        plane = VarietySpec(kind="raw_system", ambient="projective", ambient_dim=2)
        counts = count_series(plane, PrimePower(3, 1), 3)
        assert counts.counts == (13, 91, 757)
        Z = zeta_rational(counts, (1, 0, 1, 0, 1))
        expected = RationalFunction(
            (1,), mul(mul((1, -1), (1, -3)), (1, -9))
        )
        assert Z == expected

        curve = parse_variety("elliptic a=[0,0,0,1,0]")
        e_counts = count_series(curve, PrimePower(5, 1), 4)
        assert e_counts.counts == (4, 32, 148, 640)
        ZE = zeta_rational(e_counts, (1, 2, 1))
        assert ZE == RationalFunction((1, -2, 5), mul((1, -1), (1, -5)))


def test_02_riemann_hypothesis_moduli(corpus):
    with budget(1.0):
        checks = {c.name: c for c in weil_check(corpus["e5"])}
        assert all(c.verdict == PASS for c in checks.values())
        deviation = float(checks["weil.weight1"].data["max_rel_deviation"])
        assert deviation < 1e-30

        violator = WeightDecomposition(
            d=1,
            q=PrimePower(5, 1),
            factors=(
                WeightFactor(0, (1, -1)),
                WeightFactor(1, (1, -6)),
                WeightFactor(2, (1, -5)),
            ),
        )
        bad = {c.name: c for c in weil_check(violator)}
        assert bad["weil.weight1"].verdict == FAIL
        assert float(bad["weil.weight1"].data["max_rel_deviation"]) > 0.5


def test_03_l_adic_prime_support(corpus):
    with budget(1.0):
        for dec in corpus.values():
            assert all(c.verdict == PASS for c in l_adic_check(dec))

        counterexample = WeightDecomposition(
            d=1,
            q=PrimePower(5, 1),
            factors=(
                WeightFactor(0, (1, -1)),
                WeightFactor(1, (1, -1, 6)),
                WeightFactor(2, (1, -5)),
            ),
        )
        results = {c.name: c for c in l_adic_check(counterexample)}
        offender = results["ladic.weight1"]
        assert offender.verdict == FAIL
        assert abs(int(offender.data["constant_term"])) == 6
        assert offender.data["prime_support_only_p"] is False


def test_04_noncommutative_zeta_assembly(corpus):
    with budget(1.0):
        spec2 = nc_spectrum_from_weights(corpus["p2"])
        assert nc_zeta(spec2, "even") == RationalFunction((1,), (1, -3, 3, -1))
        for dec in corpus.values():
            assert all(c.verdict == PASS for c in weight_normalization_check(dec))


def test_05_functional_equations(corpus, p3_dec):
    with budget(1.0):
        signs = {}
        for name, dec in corpus.items():
            classical = hasse_weil_functional_check(
                dec, sample_points=SAMPLE_POINTS, tol=1e-9
            )
            assert classical.verdict == PASS, (name, classical.detail)
            assert len(classical.data["points_used"]) == len(SAMPLE_POINTS)
            signs[name] = classical.data["sign"]

            spec = nc_spectrum_from_weights(dec)
            for check in nc_functional_check(
                spec, sample_points=SAMPLE_POINTS, tol=1e-9
            ):
                assert check.verdict == PASS, (name, check.name, check.detail)
                if check.name.endswith("pointwise"):
                    assert len(check.data["points_used"]) == len(SAMPLE_POINTS)

        assert signs["p1"] == 1
        assert signs["p2"] == -1
        assert signs["e5"] == 1

        cubic = hasse_weil_functional_check(
            p3_dec, sample_points=SAMPLE_POINTS, tol=1e-9
        )
        assert cubic.verdict == PASS
        assert cubic.data["sign"] == 1


def test_06_determinant_duality_multiplicity_lemmas():
    with budget(5.0):
        # Logarithmic determinant identity, exact to order 12.
        rng = random.Random(190)
        for _ in range(10):
            M = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            direct = log_det_series(M, 12)
            char = det_identity_minus_t(M)
            via_rational = log_series(RationalFunction((1,), char).expand(12))
            assert direct.coeffs == via_rational.coeffs

        # Determinant duality on 50 constraint-satisfying triples.
        palette = (F(5), F(2), F(3), F(1, 3), F(-7, 2))
        for seed in range(50):
            rng = random.Random(1000 + seed)
            n = 1 + rng.randrange(4)
            theta = _random_invertible(rng, n)
            f = _random_invertible(rng, n)
            lam = rng.choice(palette)
            theta_t = _transpose(theta)
            dual = _mat_mul(
                _mat_mul(_mat_inverse(theta_t), _mat_inverse(_transpose(f))),
                theta_t,
            )
            g = [[lam * x for x in row] for row in dual]
            check = pairing_duality_check(theta, f, g, lam)
            assert check.verdict == PASS, (seed, check.detail)

        # Multiplicity criterion against matrices with engineered Jordan
        # structure at eigenvalue 1, hidden by a unimodular conjugation.
        for seed in range(50):
            rng = random.Random(2000 + seed)
            one_blocks = [rng.choice((1, 1, 2, 3)) for _ in range(rng.randrange(3))]
            other_eigs = [rng.choice((0, 2, -1, 3)) for _ in range(rng.randrange(3))]
            size = sum(one_blocks) + len(other_eigs)
            if size == 0:
                one_blocks, size = [1], 1
            J = [[F(0)] * size for _ in range(size)]
            pos = 0
            for block in one_blocks:
                for k in range(block):
                    J[pos + k][pos + k] = F(1)
                    if k + 1 < block:
                        J[pos + k][pos + k + 1] = F(1)
                pos += block
            for eig in other_eigs:
                J[pos][pos] = F(eig)
                pos += 1
            V = _random_unimodular(rng, size)
            M = _mat_mul(_mat_mul(V, J), _mat_inverse(V))
            crit = semisimplicity_criterion(M)
            assert crit.verdict == PASS, (seed, crit.detail)
            assert crit.data["algebraic"] == sum(one_blocks)
            assert crit.data["geometric"] == len(one_blocks)
            assert crit.data["semisimple_at_1"] == (
                sum(one_blocks) == len(one_blocks)
            )


def test_07_tate_multiplicity_and_order_additivity(corpus, p3_dec):
    with budget(1.0):
        supplied_rank = {"p1": 2, "p2": 3, "e5": 2}
        for name, rank in supplied_rank.items():
            spec = nc_spectrum_from_weights(corpus[name])
            checks = strong_tate_check(spec, rank)
            by_name = {c.name: c for c in checks}
            assert by_name["strong_tate.multiplicity"].verdict == PASS, name
            assert not any(c.verdict == FAIL for c in checks), name

        cubic_spec = nc_spectrum_from_weights(p3_dec)
        cubic = {c.name: c for c in strong_tate_check(cubic_spec, 4)}
        assert cubic["strong_tate.multiplicity"].verdict == PASS

        for name, dec in corpus.items():
            window = range(-2, dec.d + 3)
            results = order_additivity_check(dec, window=window)
            assert all(c.verdict == PASS for c in results), name


def test_08_euler_pairing_kernels():
    with budget(1.0):
        report = euler_pairing_kernel([[1, 2], [0, 1]])
        assert report.rank == 2
        assert not report.left_kernel and not report.right_kernel
        assert report.kernels_agree

        agree_seen = disagree_seen = False
        for seed in range(24):
            rng = random.Random(3000 + seed)
            n = 3 + seed % 2
            if seed % 2 == 0:
                # Symmetrizable by construction: B^T D B stays symmetric.
                diag = [rng.choice((1, 2, -1)) for _ in range(n)]
                diag[rng.randrange(n)] = 0
                D = [
                    [F(diag[i]) if i == j else F(0) for j in range(n)]
                    for i in range(n)
                ]
                B = _random_invertible(rng, n)
                G = _mat_mul(_mat_mul(_transpose(B), D), B)
            else:
                # A conjugated nilpotent Jordan block: singular, and the
                # two kernels sit in genuinely different positions.
                J = [[F(0)] * n for _ in range(n)]
                for i in range(n - 1):
                    J[i][i + 1] = F(1)
                V = _random_unimodular(rng, n)
                G = _mat_mul(_mat_mul(V, J), _mat_inverse(V))
            report = euler_pairing_kernel(G)
            left_truth = _rref_span(_nullspace_basis(_transpose(G)))
            right_truth = _rref_span(_nullspace_basis(G))
            truth = left_truth == right_truth
            assert report.kernels_agree == truth, seed
            if seed % 2 == 0:
                assert truth, seed
            if truth:
                agree_seen = True
            else:
                disagree_seen = True
        assert agree_seen and disagree_seen


def test_09_euler_products(models):
    with budget(30.0):
        result = euler_product_value(models["p1"], "even", 2.0, 10**5)
        target = ZETA2**2
        assert abs(result.value - target) < 1e-3
        assert abs(result.value - target) <= result.tail_bound
        assert result.primes_used == 9592

        odd = euler_product_value(models["p1"], "odd", 2.5, 10**5)
        assert odd.value == 1
        assert odd.tail_bound == 0


def test_10_dirichlet_expansions(models):
    with budget(60.0):
        N = 10**4
        rational_point = dirichlet_expand(models["specq"], "even", N)
        assert all(rational_point[n] == 1 for n in range(1, N + 1))

        line = dirichlet_expand(models["p1"], "even", N)
        divisors = [0] * (N + 1)
        for d in range(1, N + 1):
            for multiple in range(d, N + 1, d):
                divisors[multiple] += 1
        assert line[12] == 6
        assert all(line[n] == divisors[n] for n in range(1, N + 1))

        gaussian = dirichlet_expand(models["speczi"], "even", N)
        lattice = [0] * (N + 1)
        for a in range(-100, 101):
            for b in range(-100, 101):
                norm = a * a + b * b
                if 1 <= norm <= N:
                    lattice[norm] += 1
        assert all(gaussian[n] == F(lattice[n], 4) for n in range(1, N + 1))


def test_11_trace_bound_certificates(models):
    with budget(60.0):
        cutoff, n_cutoff = 10**4, 10
        for name, model in models.items():
            for parity in ("even", "odd"):
                cert = bounds_certificate(model, parity, cutoff, n_cutoff)
                assert cert.ok, (name, parity, cert.violations[:3])
                if cert.C:
                    assert cert.C in (1, 2), (name, parity, cert.C)

        per_weight = {
            ("elliptic", 1): serre_bounds_certificate(
                models["elliptic"], 1, cutoff, n_cutoff
            ),
            ("p1", 0): serre_bounds_certificate(models["p1"], 0, cutoff, n_cutoff),
            ("p1", 2): serre_bounds_certificate(models["p1"], 2, cutoff, n_cutoff),
            ("speczi", 0): serre_bounds_certificate(
                models["speczi"], 0, cutoff, n_cutoff
            ),
        }
        for key, cert in per_weight.items():
            assert cert.ok, (key, cert.violations[:3])
            assert cert.C in (1, 2), (key, cert.C)


def test_12_continuation_and_order_dashboard(models):
    with budget(5.0):
        assert abs(zeta_continuation(2) - 1.6449340668) < 1e-8
        assert abs(zeta_continuation(0) - (-0.5)) < 1e-8
        assert abs(zeta_continuation(-1) - F(-1, 12)) < 1e-8

        expected_even_rank = {1: 1, 0: 0, -1: 0}
        for j in (1, 0, -1):
            rows = order_dashboard(models["specq"], j)
            evaluated = [r for r in rows if r.get("rank_supplied") is not None]
            assert evaluated, j
            for row in evaluated:
                assert row["verdict"] == PASS, row
            even_row = next(r for r in evaluated if r["parity"] == "even")
            assert even_row["rank_supplied"] == expected_even_rank[j]

        order, residual = winding_order(
            lambda z: complex(zeta_continuation(z)), 1.0
        )
        assert order == -1
        assert residual < 0.1


def test_13_cli_determinism(tmp_path):
    cache = tmp_path / "cache"
    argv = [
        sys.executable,
        "-m",
        "zetalab.cli",
        "check",
        "weil",
        "--spec",
        str(fixture_path("e5.vty")),
        "--p",
        "5",
        "--cache-dir",
        str(cache),
    ]
    outputs = []
    for _ in range(3):
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    document = json.loads(outputs[2].decode())
    assert document["verdict"] == PASS

    count_argv = [
        sys.executable,
        "-m",
        "zetalab.cli",
        "count",
        "--spec",
        str(fixture_path("p1.vty")),
        "--p",
        "3",
        "--degrees",
        "3",
        "--cache-dir",
        str(cache),
    ]
    first = subprocess.run(count_argv, capture_output=True)
    second = subprocess.run(count_argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(second.stdout.decode())["counts"] == [4, 10, 28]
