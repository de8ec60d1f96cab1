"""Recorded CLI outputs, replayed byte for byte.

Each case runs `zetalab check weil|ladic|functional|nc-functional|tate`
or `zetalab nc` on one fixture in-process through cli.main, and its
stdout and exit code must equal the recorded ones in tests/golden/.
Regenerate the recordings with

    PYTHONPATH=src python tests/test_golden.py

only when an output is meant to change, and say so in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from zetalab.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

# fixture -> (p, the K_0 rank that strong_tate_check expects)
_FIXTURES = {"e5.vty": (5, 2), "zi.vty": (5, 2), "p1.vty": (3, 2), "p2.vty": (3, 3)}
_COMMANDS = ("weil", "ladic", "functional", "nc-functional", "tate", "nc")


def _cases():
    for fixture, (p, rank) in _FIXTURES.items():
        for command in _COMMANDS:
            argv = ["nc"] if command == "nc" else ["check", command]
            argv += ["--spec", str(FIXTURES / fixture), "--p", str(p)]
            if command == "tate":
                argv += ["--k0-rank", str(rank)]
            yield f"{fixture[:-4]}-{command}", argv


CASES = dict(_cases())


def replay(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name):
    code, out = replay(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = replay(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
