"""Check results and report assembly shared by the pipelines and the CLI.

A Check is one verifiable statement with a verdict.  FAIL verdicts must
carry a witness in data (the deviating root, violating prime, or
mismatched order).  INFO rows state side information and never affect
exit codes; UNSUPPORTED marks statements the tool cannot decide rather
than guessing.

as_dict keeps exact values as they are; dumps is the one JSON emitter,
for reports and the CLI's data documents alike: it makes exact values
JSON-safe and sorts keys, so equal documents give equal bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"
UNSUPPORTED = "UNSUPPORTED"
INFO = "INFO"

VERDICTS = (PASS, FAIL, INDETERMINATE, UNSUPPORTED, INFO)

SCHEMA_VERSION = 1

# Smoothness/properness of input varieties is never machine-checked;
# every report says so rather than silently trusting the input.
UNVERIFIED_HYPOTHESES = ("smooth", "proper")


@dataclass
class Check:
    name: str
    verdict: str
    detail: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def as_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "detail": self.detail,
            "data": self.data,
        }

    def line(self):
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{self.verdict}] {self.name}{suffix}"


def dumps(obj, indent):
    """obj as deterministic JSON: exact values made JSON-safe, keys sorted."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=indent)


def _jsonable(obj):
    """Coerce exact values into JSON-safe primitives (dumps sorts keys)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        # JSON numbers lose precision past 2^53; big exact integers go out as strings
        return obj if abs(obj) < 2**53 else str(obj)
    if isinstance(obj, float):
        return obj
    return str(obj)


def overall_verdict(checks):
    """FAIL dominates; then INDETERMINATE/UNSUPPORTED; INFO never counts."""
    verdicts = {c.verdict for c in checks}
    if FAIL in verdicts:
        return FAIL
    if INDETERMINATE in verdicts:
        return INDETERMINATE
    if UNSUPPORTED in verdicts:
        return UNSUPPORTED
    return PASS


def exit_code(checks):
    verdict = overall_verdict(checks)
    if verdict == FAIL:
        return 3
    if verdict in (INDETERMINATE, UNSUPPORTED):
        return 4
    return 0


@dataclass
class ConjectureReport:
    subject: str
    checks: list
    config: dict = field(default_factory=dict)
    version: str = ""

    def as_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "subject": self.subject,
            "version": self.version,
            "unverified_hypotheses": list(UNVERIFIED_HYPOTHESES),
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "verdict": overall_verdict(self.checks),
        }

    def to_json(self):
        return dumps(self.as_dict(), 2)

    def to_text(self):
        lines = [f"subject: {self.subject}"]
        lines.append("note: hypotheses not machine-checked: " + ", ".join(UNVERIFIED_HYPOTHESES))
        lines.extend(c.line() for c in self.checks)
        lines.append(f"overall: {overall_verdict(self.checks)}")
        return "\n".join(lines)
