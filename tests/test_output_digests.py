"""Every output byte of scripts/output_digests.py's command set, against the
digests committed in tests/data/output_digests.json.

A change that means to move an output regenerates that file and says which
digests moved and why.  On a host whose Python, numpy, BLAS, BLAS thread count
or CPU SIMD extensions differ from the ones the file was made on, the bytes may
differ for reasons outside msense, so the comparison is skipped with both
signatures in the reason.
"""

import json
import os
import subprocess
import sys

import pytest

import msense

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "output_digests.py")
COMMITTED = os.path.join(ROOT, "tests", "data", "output_digests.json")


def _signature(blob):
    return ", ".join(f"{key} {value}" for key, value in sorted(blob["environment"].items()))


def test_outputs_match_the_committed_digests(tmp_path):
    with open(COMMITTED) as fh:
        want = json.load(fh)
    out = tmp_path / "digests.json"
    # The commands import the msense under test, wherever PYTHONPATH pointed.
    src = os.path.dirname(os.path.dirname(os.path.abspath(msense.__file__)))
    subprocess.run([sys.executable, SCRIPT, str(out)], env=dict(os.environ, PYTHONPATH=src),
                   check=True)
    got = json.loads(out.read_text())
    if got["environment"] != want["environment"]:
        pytest.skip(f"digests were made on {_signature(want)}; this host has {_signature(got)}")
    commands = [{c["argv"]: c for c in blob["commands"]} for blob in (got, want)]
    moved = [f"command {argv!r}" for argv in sorted(commands[0].keys() | commands[1].keys())
             if commands[0].get(argv) != commands[1].get(argv)]
    moved += [f"file {name}" for name in sorted(got["files"].keys() | want["files"].keys())
              if got["files"].get(name) != want["files"].get(name)]
    assert not moved, "outputs moved from the committed digests:\n" + "\n".join(moved)
    assert got == want
