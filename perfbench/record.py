"""Run every problem instance of every workload once, check it, and write the
final values that later runs are compared against to reference.json.

    python3 perfbench/record.py [workload ...]

Re-record only when a change is meant to alter what msense computes, and say
so where the change is described.
"""

import json
import os
import sys
import tempfile

import workloads

workloads.pin_threads()  # the thread settings run.py measures with

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import msense  # noqa: E402
import msense.concentration  # noqa: E402,F401
import msense.csvio  # noqa: E402,F401
import msense.figures  # noqa: E402,F401


def main(names):
    reference = workloads.load_reference()
    bad = 0
    for name in names or sorted(workloads.WORKLOADS):
        recorded = {}
        for instance in range(workloads.INSTANCES):
            workload = workloads.WORKLOADS[name](msense, instance)
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE) as out_dir:
                result = workload.run(out_dir)
                values = workload.reference_of(result)
                check, _ = workload.check(result, out_dir, values)
            if values is not None:
                recorded[str(instance)] = values
            bad += bool(check.failed)
            print(name, instance, "ok" if not check.failed else check.notes, flush=True)
        if recorded:
            reference[name] = recorded
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
