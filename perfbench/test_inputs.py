"""Tests for the seeded input generator.

    python3 -m pytest perfbench/test_inputs.py -q

Run from the root of a checkout; zetalab is imported from src/.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetalab.counting import parse_variety  # noqa: E402
from zetalab.lfun import ArithmeticModel  # noqa: E402

import inputs  # noqa: E402

SEEDS = (0, 1, 7)
BLOCKS = 3


def _blocks(name, seed, count=BLOCKS):
    gen = inputs.WORKLOAD_INPUTS[name](seed)
    return gen.warmup(), [gen.block() for _ in range(count)]


@pytest.mark.parametrize("name", sorted(inputs.WORKLOAD_INPUTS))
def test_same_seed_same_inputs(name):
    assert _blocks(name, 3) == _blocks(name, 3)
    assert _blocks(name, 3)[1] != _blocks(name, 4)[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_local_inputs_parse_and_have_good_reduction(seed):
    warm, blocks = _blocks("local-checks", seed)
    for req in [warm] + [r for b in blocks for r in b]:
        spec = parse_variety(req["spec"])
        assert spec.kind == ("elliptic_curve" if req["path"] == "elliptic" else "plane_projective_curve")
        assert inputs.elliptic_discriminant(req["a"]) % req["p"] != 0


@pytest.mark.parametrize("seed", SEEDS)
def test_local_blocks_share_one_mix(seed):
    _, blocks = _blocks("local-checks", seed)
    fresh_keys = set()
    for block in blocks:
        fresh = [r for r in block if not r["repeat"]]
        shapes = Counter((r["path"], r["p"], r["betti"] is not None) for r in fresh)
        assert shapes == Counter(inputs.LOCAL_SHAPES)
        assert len(block) == 3 * inputs.LOCAL_REPEATS
        for i, req in enumerate(block):
            key = (req["spec"], req["p"], req["degrees"])
            if req["repeat"]:
                # the request that fills the cache comes first
                assert key in fresh_keys or any(
                    (r["spec"], r["p"], r["degrees"]) == key for r in block[:i] if not r["repeat"]
                )
        new = {(r["spec"], r["p"], r["degrees"]) for r in fresh}
        assert not new & fresh_keys
        fresh_keys |= new
    warm, _ = _blocks("local-checks", seed)
    assert (warm["spec"], warm["p"], warm["degrees"]) not in fresh_keys


@pytest.mark.parametrize("seed", SEEDS)
def test_global_models_parse_and_cover_their_bad_primes(seed):
    warm, blocks = _blocks("global-lfun", seed)
    families = [warm["model"]["family"]]
    for entry in [r for b in blocks for r in b]:
        model = ArithmeticModel.from_dict(entry["model"])
        families.append(entry["model"]["family"])
        bad = model.bad_prime_map()
        if entry["kind"] == "field":
            f = entry["poly"]
            assert sorted(bad) == inputs.prime_factors(inputs.poly_discriminant(f))
            for p, fiber in bad.items():
                # the replacement is the reduced scheme of f mod p
                assert fiber.kind == "zero_dimensional"
                radical = list(fiber.zero_poly)
                if p < 200:
                    assert inputs.roots_mod_p(radical, p) == inputs.roots_mod_p(f, p)
        else:
            assert all(fiber is None for fiber in bad.values())
            assert sorted(bad) == inputs.prime_factors(inputs.elliptic_discriminant(model.family.a_invariants))
    # every model is new to the process that runs the workload
    assert len(families) == len(set(families))


@pytest.mark.parametrize("seed", SEEDS)
def test_analytic_inputs_parse(seed):
    warm, blocks = _blocks("analytic", seed)
    for entry in [warm] + [r for b in blocks for r in b]:
        model = ArithmeticModel.from_dict(entry["model"])
        assert model.closed_form is not None
    every_pair = sorted((e["model"]["name"], j) for e in inputs.ANALYTIC_MODELS for j in inputs.ANALYTIC_JS)
    for block in blocks:
        assert sorted((e["model"]["name"], e["j"]) for e in block) == every_pair
        assert all(2.5 <= e["s"] <= 4.0 for e in block)
    assert warm["j"] not in inputs.ANALYTIC_JS


def test_discriminants():
    assert inputs.elliptic_discriminant((0, 0, 0, 1, 0)) == -64
    assert inputs.elliptic_discriminant((0, 1, 1, -2, 1)) == -899
    assert inputs.poly_discriminant([1, 0, 1]) == -4
    assert inputs.poly_discriminant([-2, 0, 0, 1]) == -108


def test_radical_mod_p():
    # (x + 1)^4 = x^4 + 1 over F_2: the derivative vanishes
    assert inputs.radical_mod_p([1, 0, 0, 0, 1], 2) == [1, 1]
    # x^2 (x + 1) over F_3
    assert inputs.radical_mod_p([0, 0, 1, 1], 3) == [0, 1, 1]
    # (x^2 + 1)^3 (x + 2) over F_3: multiplicity 3 sits in the gcd
    f = [1]
    for factor in ([1, 0, 1], [1, 0, 1], [1, 0, 1], [2, 1]):
        f = inputs._mul_mod(f, factor, 3)
    assert inputs.radical_mod_p(f, 3) == inputs._mul_mod([1, 0, 1], [2, 1], 3)
