"""Every name a zetalab module exports through __all__ exists,
importing zetalab pulls in nothing beyond its declared dependencies,
zetalab.poly stays the one polynomial layer, zetalab.counting the one
elliptic point counter, lfun._local_factors the one scan over primes
in zetalab.lfun, zetalab.series the one home of power sums, Zech-log
tables the one route for finite-field arithmetic,
counting.local_weights the one closed form of a fiber's weight
factors, zeta.fiber_decomposition the one route from a fiber to them
(the one caller of weight_factorize, and the only reader of
local_weights outside counting; lfun and the CLI's check and nc
commands call it), series.functional_witnesses the one exact functional
equation, with series.functional_samples its one sampler (the only
caller of its double-pass helpers, and with its point labels the only
code at SAMPLE_DPS digits),
ncspec.nc_zeta the one builder of det(1 - tF) per parity (lfun calls it
in _fiber_entry only, and it constructs no Fraction),
counting.count_series the one reader and writer of the count files and
lfun._fiber_entry, an lru_cache on fiber_decomposition's own arguments,
lfun's one cache of local entries, and
zetalab.series the one module that decides whether a coefficient is an
int or a Fraction (only series calls _int_if_integral, lfun imports no
fractions, and weight_factorize makes no int() call), and
lfun._borwein_coefficients the one source of Borwein weights, for the
double route of zeta and beta and for beta's mpmath route alike, with
lfun._l_double the one double evaluator of both (one reflection, one
log Gamma) and zeta_continuation the one caller of mpmath.zeta.
Reciprocity is nc_functional_check's coefficient_symmetry row, not a
check of its own; zeta_rational's degree scan stops at the number of
counts, with no cap of its own; report.dumps is the one JSON emitter,
and the CLI imports no private name from report; RunConfig's defaults
are the library's constants themselves, not restated literals.
lfun._closed_form_factors is the one description of a closed form, read
by closed_form_l_function and order_dashboard, and the dashboard reaches
no continuation or winding function.  Every name the benchmark imports
from zetalab resolves.  Parameters that no caller set stay module
constants."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetalab

MODULES = ["zetalab"] + [f"zetalab.{m.name}" for m in pkgutil.iter_modules(zetalab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_does_not_load_numpy():
    # a fresh interpreter, so modules the test run imported do not count
    src = str(Path(zetalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, zetalab, zetalab.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


SRC = Path(zetalab.__file__).resolve().parent


def _tree(module_file):
    return ast.parse(module_file.read_text(), filename=str(module_file))


def _function(tree, name):
    return next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name)


def _imported(tree):
    """Top-level package names the module imports absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_poly_imports_only_the_standard_library():
    # zetalab.poly is the bottom layer: no zetalab module, and no
    # fractions either (rational input enters through primitive())
    imported = set()
    for node in ast.walk(_tree(SRC / "poly.py")):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported <= {"__future__", "math", "itertools"}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "poly.py"))
def test_one_polynomial_layer(path):
    # polynomial division, gcds, trimming and square-free parts live in
    # zetalab.poly only, so a second polynomial layer cannot grow back
    names = [
        node.name
        for node in ast.walk(_tree(SRC / path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    banned = ("divmod", "gcd", "trim", "squarefree")
    assert [n for n in names if any(w in n.lower() for w in banned)] == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "counting.py"))
def test_one_elliptic_counter(path):
    # elliptic curves are counted in zetalab.counting only, so a second
    # counter (with its own idea of bad reduction) cannot grow back
    names = [
        node.name
        for node in ast.walk(_tree(SRC / path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert [n for n in names if "elliptic" in n.lower()] == []


def test_one_prime_scan_in_lfun():
    # Euler products, Dirichlet expansions and trace certificates read
    # their local factors from one scan, so a second prime loop (with
    # its own bad-prime handling) cannot grow back
    def scans(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "primes_up_to"
        ]

    tree = _tree(SRC / "lfun.py")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    callers = [fn.name for fn in functions for _ in scans(fn)]
    assert len(scans(tree)) == 1 and callers == ["_local_factors"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "series.py"))
def test_one_trace_route(path):
    # traces are power sums of inverse roots, computed in zetalab.series
    # only, so a second trace route cannot grow back
    names = [
        node.name
        for node in ast.walk(_tree(SRC / path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert [n for n in names if "power_sums" in n.lower()] == []


def test_one_field_arithmetic_route():
    # field elements are ints and their arithmetic runs on Zech-log
    # tables, so a second route (tuple arithmetic on FiniteField,
    # compiled polynomial evaluation) cannot grow back
    from zetalab import counting
    from zetalab.arith import FiniteField

    gone = ("add", "mul", "pow", "from_int", "elements", "zero", "one")
    assert [n for n in gone if hasattr(FiniteField(3, 2), n)] == []
    assert not hasattr(counting.Polynomial, "compile_for")
    assert not hasattr(counting, "evaluate_compiled")

    # counting walks candidates in _count_zeros only: the one caller of
    # log_tables and of itertools.product, which both ambients call
    def calls(node, name):
        return [
            c
            for c in ast.walk(node)
            if isinstance(c, ast.Call)
            and getattr(c.func, "id", getattr(c.func, "attr", None)) == name
        ]

    tree = _tree(SRC / "counting.py")
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    for name in ("log_tables", "product"):
        assert [f for f, node in functions.items() if calls(node, name)] == ["_count_zeros"]
        assert len(calls(tree, name)) == 1
    for ambient in ("_count_projective", "_count_affine"):
        assert len(calls(functions[ambient], "_count_zeros")) == 1
    # and arith multiplies field elements only to build the tables
    arith = [n for n in ast.walk(_tree(SRC / "arith.py")) if isinstance(n, ast.FunctionDef)]
    assert [fn.name for fn in arith if calls(fn, "mulmod")] == ["log_tables"]


def _callers(tree, name):
    """Names of the functions in tree that call name, one per call (a
    nested function's calls also count for the function around it)."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for c in ast.walk(fn)
        if isinstance(c, ast.Call) and getattr(c.func, "id", getattr(c.func, "attr", None)) == name
    ]


def test_one_closed_form_route():
    # each shape's weight factors are written down once, in
    # counting.local_weights: the counter reads its counts off them and
    # lfun its local entries, so no second per-shape formula grows back
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    for name in ("_elliptic_frobenius", "fp_degree_pattern"):
        found = {f: _callers(tree, name) for f, tree in trees.items() if _callers(tree, name)}
        assert found == {"counting.py": ["local_weights"]}
    counting = trees["counting.py"]
    assert sorted(_callers(counting, "power_sums_inverse_roots")) == [
        "_elliptic_frobenius",
        "_point_counter",
    ]
    extension = _function(counting, "_count_over_extension")
    kinds = {c.value for c in ast.walk(extension) if isinstance(c, ast.Constant)}
    assert not kinds & {"projective_space", "zero_dimensional", "elliptic_curve"}
    # outside counting, the closed form is read by zeta.fiber_decomposition
    # only, and lfun's one scan takes each parity's factor from its local
    # entry instead of rebuilding it
    found = {f: _callers(tree, "local_weights") for f, tree in trees.items()}
    assert {f: c for f, c in found.items() if c} == {
        "counting.py": ["_point_counter"],
        "zeta.py": ["fiber_decomposition"],
    }
    assert _callers(_function(trees["lfun.py"], "_local_factors"), "nc_zeta") == []


def test_one_fiber_route():
    # a fiber's weight factors come from zeta.fiber_decomposition, for the
    # CLI's check and nc commands and for lfun's local entries alike: no
    # second route counts, reconstructs and separates a fiber again, or
    # reads its closed form beside it
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    route = ("count_series", "zeta_rational", "weight_factorize", "local_weights")
    for name in route:
        assert _callers(trees["lfun.py"], name) == [], name
        assert _callers(_function(trees["cli.py"], "_decomposition_for"), name) == [], name
    found = {f: _callers(tree, "weight_factorize") for f, tree in trees.items()}
    assert {f: c for f, c in found.items() if c} == {"zeta.py": ["fiber_decomposition"]}
    assert _callers(trees["lfun.py"], "fiber_decomposition") == ["_fiber_entry"]
    assert _callers(trees["cli.py"], "fiber_decomposition") == ["_decomposition_for"]


def test_one_cache_per_layer():
    # the count files are read and written by count_series alone, and only
    # for counts that enumerate: no closed form takes a cache_dir
    from zetalab import counting, lfun

    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    for name in ("_load_cached_counts", "_store_cached_counts"):
        found = {f: _callers(tree, name) for f, tree in trees.items() if _callers(tree, name)}
        assert found == {"counting.py": ["count_series"]}, name
    for fn in (counting.local_weights, counting._elliptic_frobenius, counting._point_counter):
        assert "cache_dir" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(counting, "ELLIPTIC_CACHE_FROM")
    # lfun memoises its local entries with functools.lru_cache on exactly
    # fiber_decomposition's arguments, and keeps no hand-built cache
    lfun_tree = trees["lfun.py"]
    imported = {
        alias.name
        for node in ast.walk(lfun_tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "OrderedDict" not in imported
    assert not hasattr(lfun, "_LOCAL_CACHE")
    assert lfun._fiber_entry.cache_info().maxsize == lfun.LOCAL_CACHE_SIZE
    assert list(inspect.signature(lfun._fiber_entry.__wrapped__).parameters) == [
        "fiber",
        "p",
        "betti",
        "degrees",
    ]
    for name in ("fiber_decomposition", "nc_zeta"):
        assert _callers(lfun_tree, name) == ["_fiber_entry"], name


def test_unset_parameters_are_constants():
    # parameters no caller set are module constants, so a knob with a
    # second value that nothing tests cannot grow back
    from zetalab import lfun

    gone = {
        lfun.euler_product_value: {"dps", "margin"},
        lfun.serre_bounds_certificate: {"dps"},
        lfun.DirichletSeries.partial_sum: {"dps"},
        lfun.zeta_continuation: {"dps"},
        lfun.dirichlet_beta: {"dps"},
        lfun.winding_order: {"radius", "samples"},
        lfun._beta_series: {"n"},
    }
    for fn, names in gone.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    assert list(inspect.signature(lfun.winding_order).parameters) == ["fn", "center"]
    assert (lfun.HALF_PLANE_MARGIN, lfun.EULER_DPS, lfun.CONTINUATION_DPS) == (0.05, 30, 40)
    assert (lfun.BETA_TERMS, lfun.WINDING_RADIUS, lfun.WINDING_SAMPLES) == (90, 0.25, 64)
    assert (lfun.DOUBLE_TERMS, lfun.DOUBLE_TOL) == (32, 1e-11)
    for fn in (lfun.zeta_continuation, lfun.dirichlet_beta):
        assert list(inspect.signature(fn).parameters) == ["s"], fn.__name__
    # the Serre sample sits at w/2 + 1.5, the graded shifts are 0..3, and
    # spectrum documents carry roots at 16 digits
    from zetalab.ncspec import EigenvalueBlock, NcSpectrum, graded_shift_check

    assert list(inspect.signature(lfun.serre_bounds_certificate).parameters) == [
        "model",
        "w",
        "prime_cutoff",
        "n_cutoff",
    ]
    assert list(inspect.signature(graded_shift_check).parameters) == ["spec"]
    for fn in (NcSpectrum.to_json_dict, EigenvalueBlock.approximate_roots):
        assert list(inspect.signature(fn).parameters) == ["self"], fn.__name__


def test_one_parity_factor_builder():
    # det(1 - tF) per parity is built by nc_zeta only, on integer block
    # reversals: lfun's local entries take it from there, so no second
    # shift loop grows back
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    assert _callers(trees["lfun.py"], "nc_zeta") == ["_fiber_entry"]
    assert _callers(_function(trees["ncspec.py"], "nc_zeta"), "Fraction") == []


def test_coefficient_types_decided_in_series():
    # series stores a coefficient as an int when integral and as a
    # Fraction otherwise, so no consumer converts between the two
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    found = {f: _callers(tree, "_int_if_integral") for f, tree in trees.items()}
    assert [f for f, calls in found.items() if calls] == ["series.py"]
    assert "fractions" not in _imported(trees["lfun.py"])
    assert _callers(_function(trees["zeta.py"], "weight_factorize"), "int") == []


def test_one_functional_equation_route():
    # the classical, even/odd and reciprocity equations are one exact
    # identity with one sampler beside it, both in zetalab.series, so no
    # second route (with its own float verdict or sign guess) grows back
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    for name in ("zeta.py", "ncspec.py"):
        assert "mpmath" not in _imported(trees[name])
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert not defined & {"_coefficient_symmetry", "_pointwise_functional", "_parity_polynomial"}

    def callers(name):
        return sorted(c for tree in trees.values() for c in _callers(tree, name))

    checks = ["hasse_weil_functional_check", "nc_functional_check"]
    assert callers("functional_samples") == checks
    # reciprocity is nc_functional_check's coefficient_symmetry row, not
    # a second check on the same identity
    assert callers("functional_witnesses") == checks
    assert not defined & {"spectrum_reciprocity_check", "_functional_equation"}
    # the double pass and the point labels are reached through the
    # sampler only, and the sampler alone works at SAMPLE_DPS digits
    double_pass = {"_sample_point", "_first_pass", "_doubles", "_quotient", "_horner", "proves_used"}
    for name in double_pass - {"proves_used"}:
        assert set(callers(name)) <= double_pass | {"functional_samples"}, name
    assert callers("_sample_point") == callers("_first_pass") == ["functional_samples"]
    at_sample_dps = sorted(
        fn.name
        for tree in trees.values()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "workdps"
        and any(getattr(a, "id", None) == "SAMPLE_DPS" for a in node.args)
    )
    assert at_sample_dps == ["_sample_point", "functional_samples"]
    from zetalab.ncspec import nc_functional_check
    from zetalab.zeta import hasse_weil_functional_check

    from zetalab.series import DEFAULT_SAMPLE_TOL

    for check in (hasse_weil_functional_check, nc_functional_check):
        assert "dps" not in inspect.signature(check).parameters
        assert inspect.signature(check).parameters["tol"].default is DEFAULT_SAMPLE_TOL
    # C Q^chi is read off the exact identity, never passed in by a caller
    from zetalab.series import functional_witnesses

    assert list(inspect.signature(functional_witnesses).parameters) == ["R", "Q", "chi"]


def test_one_source_of_borwein_weights():
    # the double route (eta and beta alike) and beta's mpmath route take
    # their weights from _borwein_coefficients, so a second weight
    # formula cannot grow back; one double evaluator, _l_double, serves
    # zeta and beta with one reflection and one log Gamma, and beta's
    # mpmath reflection makes one gamma call; zeta's mpmath route is
    # mpmath.zeta, called from zeta_continuation only
    from zetalab import lfun

    tree = _tree(SRC / "lfun.py")
    assert sorted(_callers(tree, "_borwein_coefficients")) == ["_beta_series", "_double_series"]
    assert _callers(tree, "_double_series") == ["_alternating_double"]
    for name in ("_alternating_double", "_log_gamma"):
        assert _callers(tree, name) == ["_l_double"], name
    assert _callers(tree, "_l_double") == ["_l_double", "_double_route"]
    assert _callers(tree, "gamma") == ["dirichlet_beta"]
    assert _callers(tree, "rgamma") == []
    for name in ("_zeta_double", "_beta_double", "_accelerated_alternating"):
        assert not hasattr(lfun, name), name
    assert _callers(tree, "factorial") == ["_borwein_coefficients"] * 3
    assert _callers(tree, "zeta") == ["zeta_continuation"]


def test_one_degree_scan_cap():
    # the Pade scan runs up to the number of counts it gets; the counts
    # themselves are bounded by the extension-field cap, so no second
    # cap (and no knob to fill it) grows back
    from zetalab import zeta

    assert list(inspect.signature(zeta.zeta_rational).parameters) == ["counts", "betti"]
    assert not hasattr(zeta, "DEGREE_SCAN_CAP")


def test_one_json_emitter():
    # report.dumps is the one JSON emitter, for reports and the CLI's
    # data documents alike: the CLI imports no private name from report
    # and serialises nothing itself
    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    from_report = [
        alias.name
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "report"
        for alias in node.names
    ]
    assert "dumps" in from_report
    assert [name for name in from_report if name.startswith("_")] == []
    assert "json" not in _imported(trees["cli.py"])
    found = {f: _callers(tree, "_jsonable") for f, tree in trees.items()}
    assert {f: sorted(set(c)) for f, c in found.items() if c} == {"report.py": ["_jsonable", "dumps"]}


def test_cli_defaults_are_the_library_constants():
    # RunConfig restates no library default: each is the library's
    # constant itself, imported by name, so the two cannot drift apart
    from zetalab import arith, counting, series
    from zetalab.cli import RunConfig

    tree = _tree(SRC / "cli.py")
    run_config = next(
        node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "RunConfig"
    )
    defaults = {
        node.target.id: node.value
        for node in run_config.body
        if isinstance(node, ast.AnnAssign) and node.value is not None
    }
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    expected = {
        "precision": (series, "DEFAULT_PRECISION"),
        "functional_tol": (series, "DEFAULT_SAMPLE_TOL"),
        "degree_cap": (arith, "DEFAULT_DEGREE_CAP"),
        "budget": (counting, "DEFAULT_BUDGET"),
    }
    for field, (module, constant) in expected.items():
        assert getattr(defaults[field], "id", None) == constant, field
        assert (module.__name__.removeprefix("zetalab."), constant) in imported, field
        assert getattr(RunConfig(), field) is getattr(module, constant), field


def _reached(tree, start):
    """Names of the calls made from start, following calls into the
    module's own functions (transitively)."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name not in seen:
                    seen.add(name)
                    if name in functions:
                        todo.append(name)
    return seen


def test_dashboard_evaluates_no_continuation():
    # the dashboard's orders are exact: nothing it calls, directly or
    # through lfun's own functions, continues zeta or beta or winds a
    # contour, so the numeric route stays the tests' second route
    tree = _tree(SRC / "lfun.py")
    reached = _reached(tree, "order_dashboard")
    assert {"_closed_form_factors", "_exact_order"} <= reached
    numeric = {
        "zeta_continuation",
        "dirichlet_beta",
        "closed_form_l_function",
        "winding_order",
        "_double_route",
        "_l_double",
        "_log_gamma",
        "_beta_series",
        "zeta",
        "gamma",
    }
    assert reached & numeric == set()


def test_one_closed_form_description():
    # _closed_form_factors is the one reading of a model's closed-form
    # tag, as ((odd, shift), multiplicity) pairs: the L-function and the
    # dashboard both build on it, and no per-factor callable of its own
    # (the old _shifted_zeta) grows back beside it
    from zetalab import lfun

    trees = {path.name: _tree(path) for path in SRC.glob("*.py")}
    readers = {
        (f, fn.name)
        for f, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "closed_form"
    }
    assert readers == {("lfun.py", "_closed_form_factors")}
    assert sorted(_callers(trees["lfun.py"], "_closed_form_factors")) == [
        "closed_form_l_function",
        "order_dashboard",
    ]
    assert sorted(_callers(trees["lfun.py"], "_exact_order")) == ["_exact_order", "order_dashboard"]
    assert not hasattr(lfun, "_shifted_zeta")


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("path", sorted(p.name for p in BENCH.glob("*.py")))
def test_benchmark_imports_resolve(path):
    # every name the benchmark imports from zetalab still exists, so a
    # rename in the library fails here and not in a benchmark run
    names = []
    for node in ast.walk(_tree(BENCH / path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zetalab":
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(a.name, None) for a in node.names if a.name.split(".")[0] == "zetalab"]
    for module, name in names:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (path, module, name)
    if path == "workloads.py":
        assert ("zetalab.lfun", "order_dashboard") in names
