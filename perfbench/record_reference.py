"""Record the reference artifact digests, counts and errors of every input set.

    python3 perfbench/record_reference.py

Run once on the commit whose outputs are the reference (the seed commit).
For each workload and input set (every full-size one, and the tiny size's
``TINY_SEED`` for the self-test) it generates the dataset, runs one traced
command, and stores the dataset digest, the digest of every
artifact, ``mere_tta`` and the exact-repeat counts in ``reference.json``,
together with the digest of the package sources it ran.  Later runs fail a
command whose artifacts differ by a single byte.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from tracing import Tracer


def record(size, name, input_set, work):
    workload = run.WORKLOADS[size][name]
    dataset = work / "dataset.ndjson"
    out = work / "out"
    mods, _ = run.setup(workload, input_set, dataset)
    reports = run.capture_reports(mods["rotta.experiment"])
    tracer = Tracer()
    tracer.install(mods)
    try:
        cmd = run.execute(mods, workload, run.cli_argv(workload, input_set, dataset, out), out, reports, tracer)
    finally:
        tracer.uninstall()
    if cmd.error is not None:
        raise SystemExit(f"{size}/{name}/{input_set}: {cmd.error}")
    return {
        "dataset_sha256": cmd.dataset_sha256,
        "outputs": cmd.outputs,
        "mere_tta": cmd.mere_tta,
        "counts": {metric: cmd.layer[metric] for metric, _ in run.COUNTS},
    }


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {"src_sha256": run.src_digest(), "input_sets": run.INPUT_SETS, "workloads": {}}
    work = run.ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for size, input_sets in (("full", range(run.INPUT_SETS)), ("tiny", [run.TINY_SEED])):
            by_name = reference["workloads"].setdefault(size, {})
            for name in run.WORKLOADS[size]:
                by_name[name] = {str(k): record(size, name, k, work) for k in input_sets}
                print(f"recorded {size}/{name}", flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
