"""Command-line front end for the counting, zeta, spectrum, and
L-function pipelines.

Every subcommand prints a single JSON document (or its text rendering)
to stdout.  Check subcommands communicate verdicts through exit codes:
0 all PASS, 3 any FAIL, 4 any INDETERMINATE or UNSUPPORTED.  Data
subcommands exit 0 on success; user errors exit 1, internal errors 2.
Reports are deterministic: the same invocation against a warm cache
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .arith import DEFAULT_DEGREE_CAP, PrimePower
from .counting import (
    DEFAULT_BUDGET,
    BudgetError,
    count_series,
    default_betti,
    parse_variety,
)
from .lfun import (
    dashboard_checks,
    euler_product_value,
    load_model,
    order_dashboard,
    serre_bounds_certificate,
)
from .ncspec import (
    nc_functional_check,
    nc_l_adic_check,
    nc_spectrum_from_weights,
    nc_weil_check,
    strong_tate_check,
)
from .report import (
    FAIL,
    PASS,
    SCHEMA_VERSION,
    Check,
    ConjectureReport,
    dumps,
    exit_code,
)
from .series import DEFAULT_SAMPLE_TOL
from .zeta import (
    SeparationError,
    default_degrees,
    fiber_decomposition,
    hasse_weil_functional_check,
    l_adic_check,
    weil_check,
    zeta_rational,
)

_INT_FIELDS = ("degree_cap", "budget", "prime_cutoff")
_FLOAT_FIELDS = ("functional_tol",)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one invocation: defaults, overridden by a
    key=value config file, overridden by flags."""

    functional_tol: float = DEFAULT_SAMPLE_TOL
    degree_cap: int = DEFAULT_DEGREE_CAP
    budget: int = DEFAULT_BUDGET
    prime_cutoff: int = 10**4
    cache_dir: str | None = None
    format: str = "json"

    def __post_init__(self):
        for name in _FLOAT_FIELDS + _INT_FIELDS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.format not in ("json", "text"):
            raise ValueError("format must be 'json' or 'text'")
        if self.cache_dir == "":
            # count_series would take "" for the working directory
            raise ValueError("cache_dir must not be empty")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_config_file(path) -> dict:
    """Parse a key=value file (# comments allowed) into raw updates."""
    known = {f.name for f in fields(RunConfig)}
    updates = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        updates[key] = value
    return updates


def _coerce_config(updates: dict) -> dict:
    types = {**dict.fromkeys(_INT_FIELDS, int), **dict.fromkeys(_FLOAT_FIELDS, float)}
    return {key: types.get(key, str)(value) for key, value in updates.items()}


def _build_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_coerce_config(load_config_file(args.config)))
    for name in ("prime_cutoff", "cache_dir", "format"):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--prime-cutoff", type=int, dest="prime_cutoff")
    common.add_argument(
        "--cache-dir",
        dest="cache_dir",
        help="directory for point counts that enumerate; shapes with closed-form weight "
        "factors, and products of them, write none",
    )
    common.add_argument("--format", choices=("json", "text"))
    common.add_argument(
        "--show-config",
        action="store_true",
        dest="show_config",
        help="print the effective configuration and exit",
    )

    variety = _Parser(add_help=False)
    variety.add_argument("--spec", metavar="FILE", help="variety description file")
    variety.add_argument("--p", type=int, help="residue characteristic")
    variety.add_argument("--r", type=int, default=1, help="base field exponent")
    variety.add_argument(
        "--degrees",
        type=int,
        help="extension degrees to count; check and nc ignore it for closed-form shapes",
    )
    variety.add_argument("--betti", help="comma-separated weight dimensions")

    parser = _Parser(
        prog="zetalab",
        description="Exact zeta functions, Frobenius weight spectra, and L-function checks.",
    )
    parser.add_argument("--version", action="version", version=f"zetalab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("count", parents=[common, variety], help="exact point counts")
    sub.add_parser("zeta", parents=[common, variety], help="exact zeta as a rational function")
    sub.add_parser("nc", parents=[common, variety], help="even/odd spectrum from weight factors")

    p_lfun = sub.add_parser("lfun", parents=[common], help="partial Euler product with tail bound")
    p_lfun.add_argument("--model", metavar="FILE", help="model JSON file")
    p_lfun.add_argument("--parity", choices=("even", "odd"), default="even")
    p_lfun.add_argument("--s", type=float, default=2.0, help="evaluation point")

    p_check = sub.add_parser("check", parents=[common, variety], help="run one conjecture checker")
    p_check.add_argument(
        "conjecture",
        choices=("weil", "ladic", "functional", "nc-functional", "tate", "serre", "beilinson"),
    )
    p_check.add_argument("--model", metavar="FILE", help="model JSON file")
    p_check.add_argument("--k0-rank", type=int, dest="k0_rank", help="supplied rank fixture")
    p_check.add_argument("--weight", type=int, default=1, help="weight for per-weight bounds")
    p_check.add_argument("--n-cutoff", type=int, dest="n_cutoff", default=10)
    p_check.add_argument("--j", type=int, help="integer evaluation point for order rows")
    return parser


def _require(args, name, flag=None):
    if getattr(args, name, None) is None:
        raise _UsageError(f"{flag or '--' + name} is required for this command")
    return getattr(args, name)


def _parse_betti(text):
    try:
        betti = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"--betti must be comma-separated integers: {exc}")
    if not betti or any(b < 0 for b in betti):
        raise _UsageError("--betti entries must be non-negative")
    return betti


def _load_variety(args):
    path = Path(_require(args, "spec"))
    spec = parse_variety(path.read_text())
    p = _require(args, "p")
    q = PrimePower(p, args.r)
    return spec, q, path.name


def _resolve_betti(args, spec):
    if getattr(args, "betti", None):
        return _parse_betti(args.betti)
    return default_betti(spec)


def _count_options(config):
    return {"cache_dir": config.cache_dir, "budget": config.budget, "degree_cap": config.degree_cap}


def _decomposition_for(args, config):
    spec, q, name = _load_variety(args)
    betti = _resolve_betti(args, spec)
    if betti is None:
        raise _UsageError("--betti is required for this input")
    if len(betti) % 2 == 0:
        raise _UsageError("--betti must list all weights 0..2d (odd length)")
    dec = fiber_decomposition(spec, q, betti, degrees=args.degrees, **_count_options(config))
    return dec, f"{name} over F_{q.q}"


def _emit_doc(doc, config):
    if config.format == "json":
        print(dumps(doc, 2))
        return
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, (dict, list, tuple)):
            value = dumps(value, None)
        print(f"{key}: {value}")


def _emit_report(subject, checks, config):
    report = ConjectureReport(
        subject=subject,
        checks=checks,
        config=config.as_dict(),
        version=__version__,
    )
    print(report.to_json() if config.format == "json" else report.to_text())
    return exit_code(checks)


def _cmd_count(args, config):
    spec, q, name = _load_variety(args)
    counts = count_series(spec, q, _require(args, "degrees"), **_count_options(config))
    _emit_doc(
        {
            "schema": SCHEMA_VERSION,
            "command": "count",
            "subject": f"{name} over F_{q.q}",
            "p": q.p,
            "r": q.r,
            "counts": list(counts.counts),
            "fingerprint": counts.fingerprint,
        },
        config,
    )
    return 0


def _cmd_zeta(args, config):
    spec, q, name = _load_variety(args)
    betti = _resolve_betti(args, spec)
    m = args.degrees
    if m is None:
        if betti is None:
            raise _UsageError("--degrees is required when --betti cannot be inferred")
        m = default_degrees(betti)
    counts = count_series(spec, q, m, **_count_options(config))
    Z = zeta_rational(counts.counts, betti)
    _emit_doc(
        {
            "schema": SCHEMA_VERSION,
            "command": "zeta",
            "subject": f"{name} over F_{q.q}",
            "counts": list(counts.counts),
            "numerator": [str(c) for c in Z.num],
            "denominator": [str(c) for c in Z.den],
            "betti": list(betti) if betti is not None else None,
        },
        config,
    )
    return 0


def _cmd_nc(args, config):
    dec, subject = _decomposition_for(args, config)
    spectrum = nc_spectrum_from_weights(dec)
    doc = spectrum.to_json_dict()
    doc.update({"schema": SCHEMA_VERSION, "command": "nc", "subject": subject})
    _emit_doc(doc, config)
    return 0


def _cmd_lfun(args, config):
    model = load_model(_require(args, "model"))
    result = euler_product_value(model, args.parity, args.s, config.prime_cutoff)
    doc = result.as_dict()
    doc.update({"schema": SCHEMA_VERSION, "command": "lfun", "subject": model.name})
    _emit_doc(doc, config)
    return 0


def _check_serre(args, config):
    model = load_model(_require(args, "model"))
    cert = serre_bounds_certificate(
        model, args.weight, config.prime_cutoff, args.n_cutoff
    )
    verdict = PASS if cert.ok else FAIL
    detail = (
        f"weight {args.weight} trace bounds with C={cert.C} "
        f"for p <= {cert.prime_cutoff}, n <= {cert.n_cutoff}"
    )
    check = Check(f"serre.w{args.weight}", verdict, detail, cert.as_dict())
    return model.name, [check]


def _check_beilinson(args, config):
    model = load_model(_require(args, "model"))
    j = _require(args, "j")
    rows = order_dashboard(model, j)
    return model.name, dashboard_checks(rows)


def _cmd_check(args, config):
    kind = args.conjecture
    if kind == "serre":
        subject, checks = _check_serre(args, config)
    elif kind == "beilinson":
        subject, checks = _check_beilinson(args, config)
    else:
        dec, subject = _decomposition_for(args, config)
        if kind == "weil":
            checks = weil_check(dec)
            checks += nc_weil_check(nc_spectrum_from_weights(dec))
        elif kind == "ladic":
            checks = l_adic_check(dec)
            checks += nc_l_adic_check(nc_spectrum_from_weights(dec))
        elif kind == "functional":
            checks = [hasse_weil_functional_check(dec, tol=config.functional_tol)]
        elif kind == "nc-functional":
            checks = nc_functional_check(
                nc_spectrum_from_weights(dec), tol=config.functional_tol
            )
        elif kind == "tate":
            rank = _require(args, "k0_rank", "--k0-rank")
            checks = strong_tate_check(nc_spectrum_from_weights(dec), rank)
        else:
            raise _UsageError(f"unknown conjecture {kind!r}")
    return _emit_report(subject, checks, config)


_HANDLERS = {
    "count": _cmd_count,
    "zeta": _cmd_zeta,
    "nc": _cmd_nc,
    "lfun": _cmd_lfun,
    "check": _cmd_check,
}

_USER_ERRORS = (OSError, ValueError, BudgetError, SeparationError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        config = _build_config(args)
        if getattr(args, "show_config", False):
            _emit_doc({"schema": SCHEMA_VERSION, "config": config.as_dict()}, config)
            return 0
        return _HANDLERS[args.command](args, config)
    except (_UsageError, *_USER_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
