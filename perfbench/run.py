"""msense benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload sweep_n --seed 0 --seconds 24 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.  The workload runs
repeatedly, one repetition after another, until ``--seconds`` are used, and
every repetition's outputs are checked.  With ``--trace 0`` the end-to-end
metrics are reported, repetition timings scaled by the host speed probe
(``speed.py``); with ``--trace 1`` untraced and traced repetitions alternate
and the per-layer metrics are reported, unscaled, together with the tracing
overhead.  The last line of standard output is one JSON object; the line
before it holds the raw samples, provenance and the reasons for any absent
metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3  # untraced repetitions in an end-to-end run
MIN_REPS_TRACED = 2  # of each kind in a traced run
# setup_s times fresh processes, after one discarded, until SETUP_BUDGET_S
# have passed, but at least the first and at most the second of SETUP_PROBES.
SETUP_PROBES = (5, 15)
SETUP_BUDGET_S = 3.0
PROBE_TIMEOUT_S = 120

E2E = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("draws_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Measurement:
    """What the repetitions of one run produced."""

    def __init__(self):
        self.walls = []  # untraced repetitions
        self.cpus = []
        self.traced_walls = []
        self.probes = []  # speed.probe() times, taken before each repetition and at the end
        self.evaluations = []  # layers.evaluate() of each traced repetition
        self.attempted = 0
        self.failed = 0
        self.notes = []


def measure(workload, seconds, trace, reference, work_dir, clock=time.perf_counter):
    """Start repetitions of ``workload`` until ``seconds`` have passed and
    check every one.

    A repetition's operations fail when it raises, when its checks fail, or
    when its outputs differ from the first repetition's.  With ``trace`` set,
    every second repetition runs under the layer hooks.
    """
    import layers
    import speed
    from spans import HookSet, Tracer

    m = Measurement()
    first_digest = None
    start = clock()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        m.probes += speed.sample()
        out_dir = os.path.join(work_dir, f"rep{i}")
        os.makedirs(out_dir)
        tracer = Tracer(clock) if traced else None
        hooks = HookSet(tracer, layers.HOOKS) if traced else contextlib.nullcontext()
        result = error = None
        with hooks:
            c0 = time.process_time()
            t0 = clock()
            try:
                result = workload.run(out_dir)
            except Exception:  # the benchmark keeps going and counts the failure
                error = traceback.format_exc()
            wall = clock() - t0
            cpu = time.process_time() - c0
        m.attempted += len(workload.ops)
        if error is None:
            try:
                check, digest = workload.check(result, out_dir, reference)
            except Exception:  # outputs the check cannot read fail it
                error = traceback.format_exc()
        if error is not None:
            m.failed += len(workload.ops)
            m.notes.append(f"repetition {i} raised:\n{error}")
        else:
            bad = set(check.failed)
            m.notes += [f"repetition {i}: {note}" for note in check.notes]
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                bad = set(workload.ops)
                m.notes.append(f"repetition {i}: outputs differ from the first repetition")
            m.failed += len(bad)
        if traced:
            missing = layers.missing_spans(hooks.absent, tracer.record_errors)
            m.evaluations.append(layers.evaluate(layers.Rep(tracer.spans, wall), missing))
            m.traced_walls.append(wall)
        else:
            m.walls.append(wall)
            m.cpus.append(cpu)
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        if trace:
            enough = min(len(m.walls), len(m.traced_walls)) >= MIN_REPS_TRACED
        else:
            enough = len(m.walls) >= MIN_REPS
        if enough and clock() - start >= seconds:
            m.probes += speed.sample()
            return m


def setup_samples(workload, seed):
    """setup_s samples: import msense plus a one-iteration run of the largest
    configuration, each in a fresh interpreter, one process at a time."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]

    def probe():
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    probe()  # also compiles bytecode and fills the file cache
    fewest, most = SETUP_PROBES
    samples = []
    start = time.perf_counter()
    while len(samples) < fewest or (
        len(samples) < most and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        samples.append(probe())
    return samples


def _blas_threads():
    """OpenBLAS thread count read from the loaded library, where readable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "msense")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(msense, seed, workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # show_config's layout differs across numpy versions
        blas = f"unreadable: {exc!r}"
    nproc = os.cpu_count() or 1
    blas_threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "worker_count": msense.harness.worker_count(),
        "blas_threads": blas_threads,
        "thread_env": workloads.THREAD_ENV,
        "threads": "one workload process at a time, one msense worker, one BLAS thread",
        "threads_within_nproc": msense.harness.worker_count() * (blas_threads or 1) <= nproc,
        "msense": msense.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "instance": workload.instance,
        "program_seed": workload.seed,
    }


def spread(values):
    """Median, the highest percentile with ten samples beyond it (if any),
    and the sample count."""
    import layers

    out = {"median": statistics.median(values), "n": len(values), "samples": values}
    pct = layers.percentile_for(len(values), 99.0)
    if pct is not None and pct > 50.0:
        import numpy as np

        out[f"p{pct:g}"] = float(np.percentile(values, pct))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "msense", "__init__.py")):
        print(f"error: no msense sources under {SRC}", file=sys.stderr)
        return 2
    workloads.pin_threads()
    setup = [] if args.trace else setup_samples(args.workload, args.seed)

    sys.path.insert(0, SRC)
    import msense
    import msense.concentration
    import msense.csvio
    import msense.figures
    import msense.svgplot

    if not os.path.abspath(msense.__file__).startswith(SRC + os.sep):
        print(f"error: msense was imported from {msense.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](msense, args.seed)
    reference = workloads.load_reference().get(args.workload, {}).get(str(workload.instance))
    workload.warm_up()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        m = measure(workload, args.seconds, bool(args.trace), reference, work_dir)

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "fail_frac": m.failed / m.attempted,
        "wall_s": spread(m.walls),
        "probe_s": spread(m.probes),
        "failures": m.notes[:20],
        "provenance": provenance(msense, args.seed, workload),
    }
    if args.trace:
        import layers

        values, absent, used = layers.summarize(m.evaluations)
        plain = statistics.median(m.walls)
        traced = statistics.median(m.traced_walls)
        values["trace.overhead_s"] = traced - plain
        values["trace.overhead_frac"] = (traced - plain) / plain
        units = {metric.name: metric.unit for metric in layers.METRICS}
        units.update({name: unit for name, unit, _ in layers.OVERHEAD})
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        detail.update(traced_wall_s=spread(m.traced_walls), absent=absent, percentile_used=used)
    else:
        import speed

        # Timings in seconds on a host where the speed probe takes speed.REF_S.
        scale = speed.scale(m.probes, workload.probe_exponent)
        setup_scale = speed.scale(m.probes, workload.setup_probe_exponent)
        wall = statistics.median(m.walls) * scale
        values = {
            "wall_s": wall,
            "steps_per_s": workload.steps / wall,
            "draws_per_s": workload.draws / wall,
            "setup_s": statistics.median(setup) * setup_scale,
            "cpu_s": statistics.median(m.cpus) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        detail.update(
            cpu_s=spread(m.cpus), setup_s=spread(setup), probe_ref_s=speed.REF_S,
            scale=scale, setup_scale=setup_scale,
            steps_per_rep=workload.steps, draws_per_rep=workload.draws,
        )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
