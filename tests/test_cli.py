"""Command-line behavior: output documents, exit codes, configuration
layering, and report determinism."""

import json

import pytest

from zetalab.cli import RunConfig, load_config_file, main

from conftest import fixture_path

P1 = str(fixture_path("p1.vty"))
P2 = str(fixture_path("p2.vty"))
E5 = str(fixture_path("e5.vty"))
SPECQ = str(fixture_path("specq.json"))
ELLIPTIC = str(fixture_path("elliptic.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.prime_cutoff == 10**4
        assert config.format == "json"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(functional_tol=0)
        with pytest.raises(ValueError):
            RunConfig(prime_cutoff=-1)
        with pytest.raises(ValueError):
            RunConfig(format="yaml")

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("prime_cutoff = 30\nformat = \"text\"  # trailing comment\n\n# full comment\n")
        assert load_config_file(path) == {"prime_cutoff": "30", "format": "text"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("prime_cutofff = 30\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(path)

    def test_cluster_tol_is_no_longer_a_key(self, capsys, tmp_path):
        # the weight split is exact and has no tolerance left to set
        path = tmp_path / "cfg"
        path.write_text("cluster_tol = 1e-6\n")
        with pytest.raises(ValueError, match="unknown config key 'cluster_tol'"):
            load_config_file(path)
        code, out, err = run(capsys, "count", "--spec", P1, "--p", "3", "--degrees", "1", "--config", str(path))
        assert code == 1 and not out and "cluster_tol" in err


class TestCount:
    def test_projective_line(self, capsys):
        code, doc = run_json(capsys, "count", "--spec", P1, "--p", "3", "--degrees", "3")
        assert code == 0
        assert doc["counts"] == [4, 10, 28]
        assert doc["schema"] == 1

    def test_parse_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.vty"
        bad.write_text("projective 1 vars x y\n")
        code, out, err = run(capsys, "count", "--spec", str(bad), "--p", "3", "--degrees", "2")
        assert code == 1
        assert "line 1" in err

    def test_missing_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "count", "--spec", P1, "--degrees", "2")
        assert code == 1 and "--p" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "count", "--spec", "/nonexistent.vty", "--p", "3", "--degrees", "1")
        assert code == 1

    def test_no_command_exits_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "command, flag, rest",
        [("count", "--spec", ("--p", "3", "--degrees", "1")), ("lfun", "--model", ())],
    )
    def test_unopenable_file_exits_one(self, capsys, tmp_path, command, flag, rest):
        # a file name too long to open (ENAMETOOLONG) is an OSError that
        # is none of FileNotFoundError, IsADirectoryError and
        # NotADirectoryError, and still bad input, not an internal error
        name = str(tmp_path / ("x" * 300))
        code, out, err = run(capsys, command, flag, name, *rest)
        assert code == 1 and not out
        assert err.startswith("error: ") and "too long" in err


class TestZetaAndSpectrum:
    def test_elliptic_zeta(self, capsys):
        code, doc = run_json(capsys, "zeta", "--spec", E5, "--p", "5")
        assert code == 0
        assert doc["numerator"] == ["1", "-2", "5"]
        assert doc["denominator"] == ["1", "-6", "5"]

    def test_scan_without_betti(self, capsys, tmp_path):
        # a plane cubic's Betti numbers are not inferred, so --degrees
        # counts it and the reconstruction finds the degrees itself:
        # y^2 + y = x^3 is supersingular over F_2, 1 + 2t^2 over (1 - t)(1 - 2t)
        cubic = tmp_path / "cubic.vty"
        cubic.write_text("projective 2; vars x,y,z; eq y^2*z + y*z^2 - x^3\n")
        code, doc = run_json(capsys, "zeta", "--spec", str(cubic), "--p", "2", "--degrees", "6")
        assert code == 0 and doc["betti"] is None
        assert doc["counts"] == [3, 9, 9, 9, 33, 81]
        assert doc["numerator"] == ["1", "0", "2"]
        assert doc["denominator"] == ["1", "-3", "2"]

    def test_spectrum_document(self, capsys):
        code, doc = run_json(capsys, "nc", "--spec", P2, "--p", "3")
        assert code == 0
        assert doc["chi0"] == 3 and doc["chi1"] == 0
        assert len(doc["even"]) == 3

    def test_lfun_value(self, capsys):
        code, doc = run_json(
            capsys, "lfun", "--model", SPECQ, "--s", "2.0", "--prime-cutoff", "500"
        )
        assert code == 0
        assert abs(doc["value"]["re"] - 1.6449340668) < 1e-2

    def test_lfun_singular_fiber_at_undeclared_prime_exits_one(self, capsys, tmp_path):
        # y^2 = x^3 + 5 is singular at 5 too, but the model declares only
        # 2 and 3 bad: the fiber at 5 has no weight-1 factor to report
        model = tmp_path / "cusp.json"
        model.write_text(
            json.dumps(
                {
                    "family": "elliptic a=[0,0,0,0,5]",
                    "bad_primes": [{"p": 2}, {"p": 3}],
                    "betti": [1, 2, 1],
                }
            )
        )
        code, out, err = run(
            capsys, "lfun", "--model", str(model), "--parity", "odd", "--s", "3.0",
            "--prime-cutoff", "30",
        )
        assert code == 1 and not out
        assert err.startswith("error: fiber at p=5: ")

    @pytest.mark.parametrize(
        "model, missing",
        [
            ({"family": "projective 1; vars x, y"}, "model has no 'betti'"),
            ({"betti": [1, 0, 1]}, "model has no 'family'"),
            (
                {"family": "projective 1; vars x, y", "betti": [1, 0, 1], "bad_primes": [{}]},
                "bad_primes entry has no 'p'",
            ),
            ({"family": "projective 1; vars x, y", "betti": 3}, "model's 'betti' is not a list of integers"),
            (
                {"family": "projective 1; vars x, y", "betti": [1, 0, 1], "bad_primes": [5]},
                "bad_primes entry is not an object",
            ),
            ({"family": 7, "betti": [1]}, "model's 'family' is not a string"),
            (
                {"family": "zerodim x", "betti": [1], "bad_primes": [{"p": "2"}]},
                "bad_primes entry's 'p' is not an integer",
            ),
            ({"family": "zerodim x", "betti": [1], "ranks": [1]}, "model's 'ranks' is not an object of integers"),
            (
                {"family": "zerodim x", "betti": [1], "closed_form": {"MixedTate": 0}},
                "closed_form's 'MixedTate' is not a list of integers",
            ),
            ([], "model is not a JSON object"),
        ],
    )
    def test_malformed_model_exits_one(self, capsys, tmp_path, model, missing):
        # a missing required key, or a value of the wrong JSON type, is a
        # user error that names the key
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "lfun", "--model", str(path))
        assert code == 1 and not out
        assert err == f"error: {missing}\n"

    def test_lfun_without_local_factor_exits_one(self, capsys):
        # no prime up to 1: a product of nothing would print zeta(2) as 1
        # with tail bound 0
        code, out, err = run(capsys, "lfun", "--model", SPECQ, "--prime-cutoff", "1")
        assert code == 1 and not out
        assert err == "error: no prime p <= 1 contributes a local factor\n"


class TestCheckSubcommand:
    def test_weil_pass(self, capsys):
        code, doc = run_json(
            capsys, "check", "weil", "--spec", E5, "--p", "5", "--betti", "1,2,1"
        )
        assert code == 0
        assert doc["verdict"] == "PASS"
        names = {c["name"] for c in doc["checks"]}
        assert "weil.weight1" in names and "nc_weil.odd" in names

    def test_tate_pass_and_fail(self, capsys):
        code, doc = run_json(capsys, "check", "tate", "--spec", P2, "--p", "3", "--k0-rank", "3")
        assert code == 0 and doc["verdict"] == "PASS"
        code, doc = run_json(capsys, "check", "tate", "--spec", P2, "--p", "3", "--k0-rank", "2")
        assert code == 3 and doc["verdict"] == "FAIL"

    def test_functional_variants(self, capsys):
        for kind in ("functional", "nc-functional"):
            code, doc = run_json(capsys, "check", kind, "--spec", E5, "--p", "5")
            assert code == 0 and doc["verdict"] == "PASS"

    def test_ladic(self, capsys):
        code, doc = run_json(capsys, "check", "ladic", "--spec", E5, "--p", "5")
        assert code == 0 and doc["verdict"] == "PASS"

    def test_serre(self, capsys):
        code, doc = run_json(
            capsys,
            "check", "serre", "--model", ELLIPTIC, "--weight", "1",
            "--prime-cutoff", "100", "--n-cutoff", "4",
        )
        assert code == 0 and doc["verdict"] == "PASS"

    @pytest.mark.parametrize("weight", ["-1", "-2"])
    def test_serre_negative_weight_exits_one(self, capsys, weight):
        code, out, err = run(
            capsys,
            "check", "serre", "--model", ELLIPTIC, "--weight", weight,
            "--prime-cutoff", "30", "--n-cutoff", "2",
        )
        assert code == 1 and not out
        assert "non-negative" in err

    def test_wrong_betti_exits_one(self, capsys):
        # (2,0,2) does not fit the elliptic curve: a user error, not a crash
        code, out, err = run(
            capsys, "check", "weil", "--spec", E5, "--p", "5", "--betti", "2,0,2"
        )
        assert code == 1 and not out
        assert err.startswith("error: ") and "internal error" not in err

    def test_weil_on_product_splits_every_weight(self, capsys, tmp_path):
        # P^1 x E over F_3: betti (1,2,2,2,1) inferred from the product, and
        # both sides of Z split across more than one weight
        spec = tmp_path / "prod.vty"
        spec.write_text("product { projective 1; vars x, y } { elliptic a=[0,0,0,1,0] }\n")
        argv = ["--spec", str(spec), "--p", "3", "--cache-dir", str(tmp_path)]
        code, doc = run_json(capsys, "check", "weil", *argv)
        assert code == 0 and doc["verdict"] == "PASS"
        betti = {c["data"]["weight"]: c["data"]["beta"] for c in doc["checks"] if c["name"].startswith("weil.")}
        assert betti == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
        code, doc = run_json(capsys, "nc", *argv)
        assert code == 0
        factors = {}
        for block in doc["even"] + doc["odd"]:
            # a weight-w block holds the eigenvalues divided by q^(w//2)
            k, coeffs = block["weight"] // 2, [int(c) for c in block["poly"]]
            beta = len(coeffs) - 1
            factors[block["weight"]] = tuple(reversed([c * 3 ** (k * (beta - i)) for i, c in enumerate(coeffs)]))
        assert factors == {0: (1, -1), 1: (1, 0, 3), 2: (1, -6, 9), 3: (1, 0, 27), 4: (1, -9)}

    def test_closed_shapes_write_no_cache_file(self, capsys, tmp_path):
        # an elliptic curve and P^1 are read off their weight factors, so
        # --cache-dir stays empty; the plane cubic is counted and cached
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert run(capsys, "check", "weil", "--spec", E5, "--p", "5", *cache)[0] == 0
        assert run(capsys, "count", "--spec", P1, "--p", "3", "--degrees", "3", *cache)[0] == 0
        assert not (tmp_path / "cache").exists()
        cubic = tmp_path / "cubic.vty"
        cubic.write_text("projective 2; vars x, y, z; eq y^2*z - x^3 - x*z^2\n")
        argv = ["check", "weil", "--spec", str(cubic), "--p", "5", "--betti", "1,2,1"]
        assert run(capsys, *argv, *cache)[0] == 0
        assert len(list((tmp_path / "cache").iterdir())) == 1

    def test_degrees_ignored_for_closed_shapes(self, capsys, tmp_path):
        # two counts cannot fix a curve's four Betti degrees, but the
        # closed form needs no counts; the plane cubic still does
        code, doc = run_json(capsys, "check", "weil", "--spec", E5, "--p", "5", "--degrees", "2")
        assert code == 0 and doc["verdict"] == "PASS"
        cubic = tmp_path / "cubic.vty"
        cubic.write_text("projective 2; vars x, y, z; eq y^2*z - x^3 - x*z^2\n")
        argv = ["check", "weil", "--spec", str(cubic), "--p", "5", "--betti", "1,2,1"]
        code, out, err = run(capsys, *argv, "--degrees", "2")
        assert code == 1 and not out and "insufficient counts" in err

    @pytest.mark.parametrize("spec, p", [(E5, "2"), (str(fixture_path("zi.vty")), "2")])
    def test_singular_or_ramified_prime_exits_one(self, capsys, spec, p):
        # y^2 = x^3 + x is singular at 2, and x^2 + 1 = (x + 1)^2 mod 2
        for argv in (("check", "weil"), ("nc",)):
            code, out, err = run(capsys, *argv, "--spec", spec, "--p", p)
            assert code == 1 and not out
            assert err.startswith("error: ") and "internal error" not in err

    def test_precision_is_no_longer_a_key(self, capsys, tmp_path):
        # verdicts are exact and a FAIL's witness runs at a fixed 50
        # digits, so neither the config file nor a flag can set digits
        cfg = tmp_path / "cfg"
        cfg.write_text("precision = 30\n")
        serre = ["check", "serre", "--model", ELLIPTIC, "--prime-cutoff", "100", "--n-cutoff", "4"]
        code, out, err = run(capsys, *serre, "--config", str(cfg))
        assert code == 1 and not out
        assert err == f"error: {cfg}:1: unknown config key 'precision'\n"
        code, out, err = run(capsys, *serre, "--precision", "40")
        assert code == 1 and not out and err.startswith("error: ")

    def test_beilinson_pass(self, capsys):
        code, doc = run_json(capsys, "check", "beilinson", "--model", SPECQ, "--j", "1")
        assert code == 0 and doc["verdict"] == "PASS"

    def test_beilinson_unsupported_exits_four(self, capsys):
        code, doc = run_json(capsys, "check", "beilinson", "--model", ELLIPTIC, "--j", "1")
        assert code == 4
        assert doc["verdict"] == "UNSUPPORTED"

    def test_report_carries_config_and_hypotheses(self, capsys):
        _, doc = run_json(capsys, "check", "ladic", "--spec", E5, "--p", "5")
        assert doc["config"]["prime_cutoff"] == 10**4
        assert doc["unverified_hypotheses"] == ["smooth", "proper"]


class TestConfigLayering:
    def test_show_config(self, capsys):
        code, doc = run_json(capsys, "count", "--spec", P1, "--p", "3", "--degrees", "1", "--show-config")
        assert code == 0
        assert doc["config"]["prime_cutoff"] == 10**4

    def test_file_overridden_by_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("prime_cutoff = 30\n")
        _, doc = run_json(
            capsys, "count", "--spec", P1, "--p", "3", "--degrees", "1",
            "--config", str(cfg), "--prime-cutoff", "40", "--show-config",
        )
        assert doc["config"]["prime_cutoff"] == 40

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_empty_cache_dir_exits_one(self, capsys, tmp_path, monkeypatch, where):
        # an empty cache_dir is no directory: the counts of an enumerated
        # shape must not land in the working directory
        monkeypatch.chdir(tmp_path)
        cubic = tmp_path / "cubic.vty"
        cubic.write_text("projective 2; vars x, y, z; eq y^2*z - x^3 - x*z^2\n")
        cfg = tmp_path / "cfg"
        cfg.write_text("cache_dir =\n")
        flags = ["--config", str(cfg)] if where == "file" else ["--cache-dir", ""]
        code, out, err = run(capsys, "count", "--spec", str(cubic), "--p", "5", "--degrees", "2", *flags)
        assert code == 1 and not out
        assert err == "error: cache_dir must not be empty\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg", "cubic.vty"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "zeta", "--spec", E5, "--p", "5", "--format", "text")
        assert code == 0
        assert "denominator" in out and "{" not in out.splitlines()[0]


class TestDeterminism:
    def test_byte_identical_reports_with_warm_cache(self, capsys, tmp_path):
        argv = [
            "check", "weil", "--spec", E5, "--p", "5", "--betti", "1,2,1",
            "--cache-dir", str(tmp_path),
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
