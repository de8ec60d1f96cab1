"""One request per workload, built from zetalab's public functions, and
the oracles that check its outputs.

Every call into a zetalab layer goes through tracer.call with a span
name "<layer>.<operation>", so the traced run can time each layer from
outside.  Oracles run after the request, outside its latency, and
return (oracle, layer, ok) triples; a False counts the request as
failed and is charged to that layer.
"""

from __future__ import annotations

import os
from collections import Counter

from zetalab import __version__
from zetalab.arith import PrimePower
from zetalab.cli import RunConfig
from zetalab.counting import count_series, parse_variety
from zetalab.lfun import (
    WINDING_SAMPLES,
    ArithmeticModel,
    bounds_certificate,
    closed_form_l_function,
    dirichlet_expand,
    euler_product_value,
    order_dashboard,
    serre_bounds_certificate,
)
from zetalab.ncspec import (
    nc_functional_check,
    nc_l_adic_check,
    nc_spectrum_from_weights,
    nc_weil_check,
    strong_tate_check,
)
from zetalab.report import INDETERMINATE, PASS, ConjectureReport
from zetalab.zeta import (
    hasse_weil_functional_check,
    l_adic_check,
    lefschetz_counts,
    weight_factorize,
    weil_check,
    zeta_rational,
)

import inputs

# ---------------------------------------------------------------------------
# local-checks: the pipeline behind `zetalab check` for one (variety, p)
# ---------------------------------------------------------------------------


def _zeta_checks(dec):
    return weil_check(dec) + l_adic_check(dec) + [hasse_weil_functional_check(dec)]


def _nc_checks(spectrum):
    # eigenvalue 1 sits in the even part once for weight 0 and once for
    # weight 2, so a curve's rank fixture is 2
    return (
        nc_weil_check(spectrum)
        + nc_l_adic_check(spectrum)
        + nc_functional_check(spectrum)
        + strong_tate_check(spectrum, 2)
    )


def _candidates(path, p, degrees):
    """Tuples the enumeration walks over F_{p^n}, n = 1..degrees
    (computed from the counting route, not measured)."""
    total = 0
    for n in range(1, degrees + 1):
        q = p**n
        if path == "cubic":
            total += q * q + q + 1
        elif p == 2:
            total += q * q
        else:
            total += 2 * q  # square table, then one pass over x
    return total


class LocalChecks:
    def __init__(self, cache_dir, counters: Counter):
        self.cache_dir = cache_dir
        self.counters = counters
        self.config = RunConfig(cache_dir=cache_dir).as_dict()
        self.filled = {}  # (spec, p) -> (degrees, counts) of the filling request

    def request(self, tr, req):
        spec = tr.call("counting.parse_variety", parse_variety, req["spec"])
        q = PrimePower(req["p"])
        counts = tr.call(
            "counting.count_series", count_series, spec, q, req["degrees"], cache_dir=self.cache_dir
        )
        betti = req["betti"]
        Z = tr.call("zeta.zeta_rational", zeta_rational, counts.counts, betti)
        if betti is None:
            # the degree scan found the shape; a curve has one factor per
            # weight in the denominator and its H^1 in the numerator
            betti = (1, len(Z.num) - 1, len(Z.den) - 2)
        dec = tr.call("zeta.weight_factorize", weight_factorize, Z, q, 1, betti)
        zeta_checks = tr.call("zeta.checks", _zeta_checks, dec)
        spectrum = tr.call("ncspec.spectrum", nc_spectrum_from_weights, dec)
        nc_checks = tr.call("ncspec.checks", _nc_checks, spectrum)
        report = ConjectureReport(
            subject=f"{req['path']} {req['spec']} over F_{q.q}",
            checks=zeta_checks + nc_checks,
            config=self.config,
            version=__version__,
        )
        text = tr.call("report.emit", report.to_json)
        return {
            "counts": counts.counts,
            "Z": Z,
            "dec": dec,
            "zeta_checks": zeta_checks,
            "nc_checks": nc_checks,
            "report": report,
            "text": text,
        }

    def check(self, req, result):
        counts = list(result["counts"])
        key = (req["spec"], req["p"])
        # a hit is a call whose degrees were all filled by an earlier
        # request of this run (the cache directory starts empty)
        earlier = self.filled.get(key)
        hit = earlier is not None and earlier[0] >= req["degrees"]
        tally = self.counters
        tally["counting.calls"] += 1
        if hit:
            tally["counting.hits"] += 1
        else:
            tally["counting.candidates"] += _candidates(req["path"], req["p"], req["degrees"])
            self.filled[key] = (req["degrees"], counts)
        if req["betti"] is None:
            tally["zeta.degree_scans"] += 1
        dec = result["dec"]
        out = [
            ("lefschetz_counts", "zeta", lefschetz_counts(dec, len(counts)) == counts),
            ("zeta_checks_pass", "zeta", all(c.verdict == PASS for c in result["zeta_checks"])),
            ("ncspec_checks_pass", "ncspec", all(c.verdict == PASS for c in result["nc_checks"])),
            ("report_deterministic", "report", result["report"].to_json() == result["text"]),
        ]
        if req["betti"] is None:
            Z = result["Z"]
            out.append(("scan_shape", "zeta", (len(Z.num), len(Z.den)) == (3, 3)))
        if req["path"] == "cubic":
            plain = count_series(
                parse_variety(inputs.elliptic_text(req["a"])), PrimePower(req["p"]), req["degrees"]
            )
            out.append(("cubic_matches_elliptic", "counting", list(plain.counts) == counts))
        if hit:
            out.append(("cache_hit_counts", "counting", earlier[1][: req["degrees"]] == counts))
        return out

    def finish(self):
        total = 0
        with os.scandir(self.cache_dir) as it:
            for entry in it:
                total += entry.stat().st_size
        self.counters["counting.cache_bytes"] = total


# ---------------------------------------------------------------------------
# global-lfun: one fresh model through every per-prime consumer
# ---------------------------------------------------------------------------


class _Lfun:
    """Names the first per-prime call on a model lfun.cold_call: it fills
    the process-wide spectrum cache that every later call reads."""

    def __init__(self, counters: Counter):
        self.counters = counters
        self.seen = set()

    def finish(self):
        pass

    def per_prime(self, tr, name, family, fn, *args):
        if family in self.seen:
            return tr.call(name, fn, *args), False
        result = tr.call("lfun.cold_call", fn, *args)
        self.seen.add(family)
        return result, True


class GlobalLfun(_Lfun):
    def request(self, tr, entry):
        data = entry["model"]
        model = tr.call("lfun.model", ArithmeticModel.from_dict, data)
        cutoff, n_cut = inputs.PRIME_CUTOFF, inputs.N_CUTOFF
        fam = data["family"]
        even, cold = self.per_prime(tr, "lfun.euler_product", fam, euler_product_value, model, "even", 2.0, cutoff)
        if cold:
            self.counters["lfun.local_spectra"] += even.primes_used + len(even.excluded)
        odd, _ = self.per_prime(tr, "lfun.euler_product", fam, euler_product_value, model, "odd", 2.5, cutoff)
        certs = [
            self.per_prime(tr, "lfun.bounds", fam, bounds_certificate, model, parity, cutoff, n_cut)[0]
            for parity in ("even", "odd")
        ]
        weight = 0 if entry["kind"] == "field" else 1
        serre, _ = self.per_prime(tr, "lfun.serre", fam, serre_bounds_certificate, model, weight, cutoff, n_cut)
        series = None
        if entry["kind"] == "field":
            series, _ = self.per_prime(
                tr, "lfun.dirichlet", fam, dirichlet_expand, model, "even", inputs.DIRICHLET_N
            )
            self.counters["lfun.dirichlet_coeffs"] += series.N
        return {"euler": (even, odd), "certs": certs + [serre], "series": series}

    def check(self, entry, result):
        cutoff = inputs.PRIME_CUTOFF
        expected_excluded = (
            [] if entry["kind"] == "field" else [p for p in entry["bad"] if p <= cutoff]
        )
        n_primes = len(inputs.primes_up_to(cutoff))
        out = [
            ("certificates_hold", "lfun", all(c.ok for c in result["certs"])),
            (
                "euler_prime_coverage",
                "lfun",
                all(
                    r.primes_used + len(r.excluded) == n_primes
                    and sorted(r.excluded) == expected_excluded
                    for r in result["euler"]
                ),
            ),
        ]
        series = result["series"]
        if series is not None:
            f = entry["poly"]
            ok = all(b.denominator == 1 and b >= 0 for b in series.coeffs) and all(
                series[p] == inputs.roots_mod_p(f, p) for p in inputs.primes_up_to(series.N)
            )
            out.append(("dirichlet_coefficients", "lfun", ok))
        return out


# ---------------------------------------------------------------------------
# analytic: winding-number orders on closed-form models
# ---------------------------------------------------------------------------


class Analytic(_Lfun):
    def request(self, tr, entry):
        data = entry["model"]
        model = tr.call("lfun.model", ArithmeticModel.from_dict, data)
        rows = tr.call("lfun.dashboard", order_dashboard, model, entry["j"])
        euler, _ = self.per_prime(
            tr,
            "lfun.euler_product",
            data["family"],
            euler_product_value,
            model,
            "even",
            entry["s"],
            inputs.ANALYTIC_CUTOFF,
        )
        closed = tr.call(
            "lfun.closed_form_check", lambda: closed_form_l_function(model, "even")(entry["s"])
        )
        return {"rows": rows, "euler": euler, "closed": closed}

    def check(self, entry, result):
        rows = [r for r in result["rows"] if r["parity"] in ("even", "odd")]
        tally = self.counters
        # a winding count evaluates its circle at samples + 1 points; the
        # odd closed form is the constant 1, so only the even row counts
        tally["lfun.continuation_evals"] += (WINDING_SAMPLES + 1) * entry["factors"]
        tally["lfun.indeterminate_rows"] += sum(r["verdict"] == INDETERMINATE for r in rows)
        euler = result["euler"]
        # both sides are evaluated at 30+ digits; 1e-12 covers the
        # conversion of each to a Python complex
        gap = abs(euler.value - result["closed"])
        out = [("euler_within_tail", "lfun", gap <= euler.tail_bound + 1e-12)]
        ranked = [r for r in rows if r["rank_supplied"] is not None]
        if ranked:  # j = -2 has no stated equality, so no supplied rank
            out.append(("dashboard_ranks_pass", "lfun", all(r["verdict"] == PASS for r in ranked)))
        return out


def make(name, cache_dir, counters):
    if name == "local-checks":
        return LocalChecks(cache_dir, counters)
    if name == "global-lfun":
        return GlobalLfun(counters)
    if name == "analytic":
        return Analytic(counters)
    raise ValueError(f"unknown workload {name!r}")
