"""Time to first iterate in a fresh interpreter; prints seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Times ``import msense`` plus a one-iteration run of the workload's largest
configuration (the import alone for a workload without FGD runs).
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import msense  # noqa: E402

import workloads  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    config = workloads.WORKLOADS[name](msense, seed).setup_config()
    if config is not None:
        msense.harness.run_experiment(config, write_output=False)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
