"""Run the benchmark over several workloads and seeds, or its self-test.

    python3 perfbench/suite.py [--seeds 0-9] [--trace 0|1] [--out FILE]
    python3 perfbench/suite.py --self-test

It runs every workload of ``BENCHMARK.json`` for its ``run_seconds``.  Each
run is a fresh ``run.py`` process, so peak memory belongs to one workload.
The suite prints every metric per workload with its unit, the median,
quartiles and spread (quartile distance over median) across seeds, the
metric's bound from ``BENCHMARK.json`` and whether every command was correct;
``--out`` also writes them as JSON.

``--self-test`` runs every workload at its tiny size, traced and untraced,
and checks that every metric of ``BENCHMARK.json`` appears with its unit and
that no command fails; then it runs each workload against a reference with
one artifact digest altered and checks that every command fails, proving the
byte-identity gate is live.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from run import TINY_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run_once(workload, seed, seconds, trace, extra=()):
    """One fresh runner process; returns (result JSON, provenance, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov, proc.stdout


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median) as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def suite(args, spec):
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    seconds = spec["run_seconds"]
    summary = {"trace": args.trace, "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result, prov, _ = run_once(workload, seed, seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        row = {"provenance": prov, "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"\n{workload}: {len(runs)} runs, {row['attempted']} commands, "
              f"error_rate {row['failed']}/{row['attempted']}, correct={row['correct']}")
        print(f"  {'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            row["metrics"][name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                                    "spread": rel, "bound": bound, "values": values}
            print(f"  {name:<34} {unit:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        summary["workloads"][workload] = row
        print()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(row["correct"] for row in summary["workloads"].values()) else 1


def self_test(spec):
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _, _ = run_once(workload, TINY_SEED, 1, trace, ("--size", "tiny"))
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{workload} trace {trace}: metrics {sorted(got.items())} != {sorted(expected.items())}")
            missing = sorted(name for name, m in result["metrics"].items() if m["value"] is None)
            if missing:
                failures.append(f"{workload} trace {trace}: no value for {', '.join(missing)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: error_rate {result['failed']}/{result['attempted']}")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for workload in names:
        outputs = reference["workloads"]["tiny"][workload][str(TINY_SEED)]["outputs"]
        first = sorted(outputs)[0]
        outputs[first] = "0" * 64
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wrong = Path(tmp) / "wrong_reference.json"
        wrong.write_text(json.dumps(reference), encoding="utf-8")
        for workload in names:
            result, _, _ = run_once(workload, TINY_SEED, 1, 0, ("--size", "tiny", "--reference", str(wrong)))
            if result["correct"] or result["failed"] != result["attempted"]:
                failures.append(f"{workload}: a wrong reference digest gave error_rate "
                                f"{result['failed']}/{result['attempted']}, expected 1")
    for line in failures:
        print("FAIL " + line)
    print("self-test " + ("failed" if failures else f"passed: {len(names)} workloads, every metric present, "
                          "error_rate 0, and 1 with a wrong reference digest"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[0], help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.self_test:
        return self_test(spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
