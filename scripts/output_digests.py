"""Record the output of a fixed set of msense commands, to compare two checkouts.

    python scripts/output_digests.py OUT.json

Each command runs through ``msense.cli.main``, with its stdout and stderr
captured, in one Python process started with OPENBLAS_NUM_THREADS=1 (the script
restarts itself once to set it) and in one fresh temporary directory.  A
command's exit code and output are what ``python -m msense.cli`` prints for it:
each runs with fresh warning filters, and an uncaught exception prints its
traceback and exits 1.  OUT.json holds each command's argv, exit code,
stdout and stderr, the sha256 of every file the commands leave behind, and
the environment signature: Python's version, numpy's version, the BLAS name
and version, the BLAS thread count the commands ran with, and the SIMD
extensions numpy found on the CPU (the BLAS picks its kernels per CPU family
too).  Paths are relative to the temporary directory, so two checkouts that
produce the same bytes on the same environment give the same JSON.
tests/data/output_digests.json is this file for the last commit that changed
an output; tests/test_output_digests.py compares a fresh run with it.

msense is imported from PYTHONPATH when it names one, and from this
checkout's ``src`` otherwise, so a parent commit without this script is
measured with ``PYTHONPATH=/path/to/parent/src python scripts/output_digests.py
parent.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import traceback
import warnings

BLAS_THREADS = "1"
if os.environ.get("OPENBLAS_NUM_THREADS") != BLAS_THREADS:  # OpenBLAS reads it when it loads
    os.execve(sys.executable, sys.orig_argv, dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS))

import numpy as np  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SMALL = dict(d=10, r=2, k=3, n=400, iters=300, seed=1, sigma=0.1, ds=[1.0, 0.8], dt="zeros")
CONFIGS = {
    "sweep.json": dict(SMALL, eta=0.1),
    # dt != 0, a spectral start and |Delta|_2 on every third row.
    "delta.json": dict(SMALL, eta=0.1, dt=[0.3, -0.2, 0.1, 0.05, -0.05, 0.02, 0.01, 0.0],
                       init=dict(mode="spectral"), track_delta=True, delta_every=3),
    # Diverges at t=4: exit 2 and a 5-row partial CSV.
    "diverge.json": dict(SMALL, eta=5.0),
    "population.json": dict(SMALL, eta=0.1, gradient_mode="population", track_delta=True),
    # p = 561 > 512: two Gram tiles and the strict-lower mirror, drawn in 120-row slices.
    "wide.json": dict(SMALL, d=33, n=300, iters=30, eta=0.1, distribution="rademacher"),
    # Its n=50 cell diverges; the other four converge.
    "mixed.json": dict(SMALL, n=50, seed=4, eta=0.9),
}
COMMANDS = [
    "figures --out figs2020 --seed 2020",
    "figures --out figs11 --seed 11",
    "sweep --config sweep.json --param n --values 100,200,400 --out sweep.csv",
    # Float and d cells: their seeds hash repr(value).
    "sweep --config sweep.json --param sigma --values 0.05,0.1,0.2 --out sweep_sigma.csv",
    "sweep --config sweep.json --param d --values 8,10 --out sweep_d.csv",
    "sweep --config mixed.json --param n --values 50,100,200,400,800 --out sweep_mixed.csv",
    # Sensing builds of 2, 3 and 5 blocks, the last of 52 rows: block j + 1 is drawn on a
    # worker thread while block j is drawn.
    "sweep --config sweep.json --param n --values 700,1300,2100 --out sweep_blocks.csv",
    "sweep --config sweep.json --param k --values 2,3,4 --out sweep_k.csv",
    "run --config delta.json --out delta.csv",
    "run --config diverge.json --out diverge.csv",
    "run --config population.json --out population.csv",
    # A failed write: one error line and exit 1.
    "run --config sweep.json --out /dev/full",
    "conc noise --d 10 --n 500 --trials 20 --seed 3 --out conc.csv",
    "phases --traj figs2020/fig1a.csv --eta 0.1",
    "run --config wide.json --out wide.csv",
    # Raw draws: the first block of 512 matrices comes in slices of 324 and 188 rows.
    "conc noise --d 20 --n 600 --trials 2 --seed 3 --out conc20.csv",
    "conc deviation --d 6 --n 300 --trials 3 --seed 4 --out dev.csv",
    "conc moment --d 5 --trials 600 --seed 5",
    "conc asq --d 5 --trials 600 --seed 6",
    # One of the four verify pop trials fails an inequality: a failing check's lines are covered.
    "verify pop --trials 4 --seed 5",
    "verify init --trials 5 --seed 2",
]


def environment():
    """The signature of what the digests depend on besides msense itself."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return dict(python=platform.python_version(), numpy=np.__version__,
                blas=f"{blas['name']} {blas['version']}", blas_threads=BLAS_THREADS,
                simd=" ".join(config["SIMD Extensions"]["found"]))


def run(main, command):
    """The exit code, stdout and stderr of ``main(command.split())``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        try:
            code = main(command.split())
        except SystemExit as exc:  # argparse has printed its message
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return dict(argv=command, exit=code, stdout=out.getvalue(), stderr=err.getvalue())


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    paths = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    sys.path[1:1] = paths + [SRC]  # absolute: the commands run in another directory
    from msense.cli import main as msense_main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, config in CONFIGS.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(config, fh)
        os.chdir(work)
        try:
            commands = [run(msense_main, command) for command in COMMANDS]
        finally:
            os.chdir(home)
        files = {}
        for root, _, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    with open(argv[1], "w") as fh:
        json.dump(dict(commands=commands, files=files, environment=environment()), fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv)
