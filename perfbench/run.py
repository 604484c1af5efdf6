"""Benchmark runner for rotta: one workload in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The runner

1. repeats, for ``--seconds``, a set-up (import the package
   afresh, generate the workload's dataset from the seed and write it) and
   the workload's CLI command, run in-process through ``rotta.cli.main(argv)``;
   ``setup_s`` and ``wall_s`` are the fastest of them, because the machine's
   slowdowns only ever add time;
2. checks every command: exit code 0, no exception, and artifact digests equal
   to the ones recorded from the seed commit in ``reference.json``;
3. prints a human-readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every command is traced: each layer is wrapped from outside (see
``tracing.py``) and gives the per-layer metrics, and ``trace.overhead_s`` is
the wrapper's measured cost per call times the number of spans.

``--seed`` selects one of ``INPUT_SETS`` recorded input sets (seed modulo
``INPUT_SETS``): dataset, rotation seed and noise seed all derive from it, so
every input the benchmark can run has seed-commit reference digests and the
byte-identity gate is live for any seed.  The tiny sizes of the self-test
have one recorded input set, ``TINY_SEED``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import Tracer, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
ECHO = "<echo>"  # replaced by the command line of echo_predictor.py
INPUT_SETS = 16
TINY_SEED = 5
MODULES = ("rotta.cli", "rotta.experiment", "rotta.tta", "rotta.models", "rotta.dataset", "rotta.rotations")


@dataclass(frozen=True)
class Workload:
    command: str
    samples: int
    steps: int
    rotations: int  # N, or the largest N of a sweep
    flags: tuple

    @property
    def predictions(self):
        """Rotated model evaluations one command makes: M x (N + 1)."""
        return self.samples * (self.rotations + 1)


# Sizes are part of each workload's definition; "tiny" is for the self-test.
WORKLOADS = {
    "full": {
        "run-noisy": Workload("run", 4, 100, 40, ("--model", "noisy", "--noise-amp", "5", "--rotations", "40")),
        "sweep-noisy": Workload("sweep", 2, 100, 80,
                                ("--model", "noisy", "--noise-amp", "5", "--n-values", "0,10,40,80")),
        "sphere-map": Workload("sphere-map", 1, 20, 150,
                               ("--model", "equivariant", "--rotations", "150", "--grid", "120x60")),
        "external-echo": Workload("run", 2, 100, 30, ("--model", ECHO, "--rotations", "30")),
    },
    "tiny": {
        "run-noisy": Workload("run", 3, 8, 6, ("--model", "noisy", "--noise-amp", "5", "--rotations", "6")),
        "sweep-noisy": Workload("sweep", 2, 8, 9,
                                ("--model", "noisy", "--noise-amp", "5", "--n-values", "0,3,9")),
        "sphere-map": Workload("sphere-map", 2, 5, 12,
                               ("--model", "equivariant", "--rotations", "12", "--grid", "48x24")),
        "external-echo": Workload("run", 2, 8, 4, ("--model", ECHO, "--rotations", "4")),
    },
}

END_TO_END = (
    ("wall_s", "s"),
    ("predictions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("mere_tta_rel", "ratio"),
    ("setup_s", "s"),
)

# Counts that must repeat exactly between commands and runs of the same code.
COUNTS = (
    ("models.predict.calls", "count"),
    ("voigt.conjugations", "count"),
    ("tta.run_tta.calls", "count"),
    ("rotations.sampled", "count"),
    ("models.external.requests", "count"),
    ("models.external.spawns", "count"),
    ("spheremap.raster_distance_evals", "count"),
    ("spheremap.svg_rects", "count"),
    ("spheremap.svg_bytes", "bytes"),
    ("experiment.bytes_written", "bytes"),
    ("dataset.bytes_read", "bytes"),
)

# Percentiles pooled over every span of one name in all traced commands.
PERCENTILES = {
    "models.predict.p50_us": ("models.predict", 50, 1e6, "us"),
    "models.predict.p99_us": ("models.predict", 99, 1e6, "us"),
    "tta.run_tta.p50_ms": ("tta.run_tta", 50, 1e3, "ms"),
    "tta.run_tta.p95_ms": ("tta.run_tta", 95, 1e3, "ms"),
    "models.external.rtt_p50_ms": ("models.external", 50, 1e3, "ms"),
    "models.external.rtt_p99_ms": ("models.external", 99, 1e3, "ms"),
}

# Per-command layer times: (metric, span name, "inclusive" or "self").
LAYER_TIMES = (
    ("cli.main.self_s", "cli.main", "self"),
    ("models.predict.s", "models.predict", "inclusive"),
    ("models.noisy.self_s", "models.noisy", "self"),
    ("models.equivariant.self_s", "models.equivariant", "self"),
    ("voigt.rotate_s", "voigt.rotate", "inclusive"),
    ("tta.run_tta.self_s", "tta.run_tta", "self"),
    ("tta.reduce_s", "tta.reduce", "inclusive"),
    ("experiment.run_sweep.self_s", "experiment.run_sweep", "self"),
    ("experiment.write_s", "experiment.write", "inclusive"),
    ("rotations.rotation_list.s", "rotations.rotation_list", "inclusive"),
    ("metrics.evaluate_dataset.s", "metrics.evaluate_dataset", "inclusive"),
    ("dataset.load_dataset.s", "dataset.load_dataset", "inclusive"),
    ("spheremap.project_rotations.s", "spheremap.project_rotations", "inclusive"),
    ("spheremap.voronoi_rasterize.s", "spheremap.voronoi_rasterize", "inclusive"),
    ("spheremap.render_svg.s", "spheremap.render_svg", "inclusive"),
    ("spheremap.seeds_csv.s", "spheremap.seeds_csv", "inclusive"),
)

SETUP_TIMES = (("dataset.generate_synthetic.s", "generate"), ("dataset.save_dataset.s", "save"))
# Self time of the command drivers (run_experiment, compute_results,
# run_sphere_map): the loops and glue between the layers above.
DRIVER_SPANS = ("experiment.run_experiment", "experiment.compute_results", "experiment.run_sphere_map")
# Layer times that partition a traced command's wall time: every span is in
# exactly one of them (models.noisy and models.equivariant are inside
# models.predict.s), so the rest, trace.unattributed_s, is tracing cost.
PARTITION = tuple(name for name, _, _ in LAYER_TIMES
                  if name not in ("models.noisy.self_s", "models.equivariant.self_s")) + ("experiment.driver.self_s",)
TRACE_TIMES = ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s")

PER_LAYER = (
    tuple((name, "s") for name, _, _ in LAYER_TIMES)
    + (("experiment.driver.self_s", "s"),)
    + tuple((name, spec[3]) for name, spec in PERCENTILES.items())
    + COUNTS
    + tuple((name, "s") for name, _ in SETUP_TIMES)
    + tuple((name, "s") for name in TRACE_TIMES)
)


@dataclass
class Command:
    """Outcome of one CLI command as seen from outside."""

    wall: float
    error: str | None = None
    outputs: dict = field(default_factory=dict)
    dataset_sha256: str | None = None
    mere_tta: float | None = None
    layer: dict | None = None
    durations: dict | None = None


def src_digest():
    """Digest of the package sources, identifying the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rotta").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload_name, seed, input_set, size):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": workload_name,
        "size": size,
        "seed": seed,
        "input_set": input_set,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def import_rotta():
    """Import the package from scratch; returns {module name: module}."""
    for name in [n for n in sys.modules if n == "rotta" or n.startswith("rotta.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    origin = Path(mods["rotta.cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported rotta from {origin}, not from {SRC}")
    return mods


def setup(workload, input_set, dataset_path):
    """Import, generate and write the dataset; returns (modules, timings)."""
    t0 = time.perf_counter()
    mods = import_rotta()
    t1 = time.perf_counter()
    samples = mods["rotta.dataset"].generate_synthetic(
        workload.samples, workload.steps, stream=mods["rotta.rotations"].RotationStream(input_set)
    )
    t2 = time.perf_counter()
    mods["rotta.dataset"].save_dataset(samples, dataset_path)
    t3 = time.perf_counter()
    return mods, {"total": t3 - t0, "import": t1 - t0, "generate": t2 - t1, "save": t3 - t2}


def cli_argv(workload, input_set, dataset, out):
    echo = f"external:{shlex.quote(sys.executable)} {shlex.quote(str(HERE / 'echo_predictor.py'))}"
    flags = [echo if f == ECHO else f for f in workload.flags]
    return [workload.command, "--dataset", str(dataset), "--out", str(out),
            "--seed", str(input_set), "--noise-seed", str(input_set), *flags]


def capture_reports(experiment):
    """Keep each MetricsReport ``evaluate_dataset`` returns (one call per command)."""
    reports = []
    evaluate = experiment.evaluate_dataset

    def evaluate_dataset(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        reports.append(report)
        return report

    experiment.evaluate_dataset = evaluate_dataset
    return reports


def layer_values(summary, counts, pids, wall, artifact_bytes, span_cost):
    """Per-command layer metrics of one traced command."""
    values = {}
    for metric, span, kind in LAYER_TIMES:
        values[metric] = (summary.inclusive if kind == "inclusive" else summary.self_time)[span]
    values["experiment.driver.self_s"] = sum(summary.self_time[span] for span in DRIVER_SPANS)
    calls = summary.calls
    values.update({
        "models.predict.calls": calls["models.predict"],
        "voigt.conjugations": calls["voigt.rotate"],
        "tta.run_tta.calls": calls["tta.run_tta"],
        "rotations.sampled": counts["rotations.sampled"],
        "models.external.requests": calls["models.external"],
        "models.external.spawns": len(pids),
        "spheremap.raster_distance_evals": counts["spheremap.raster_distance_evals"],
        "spheremap.svg_rects": counts["spheremap.svg_rects"],
        "spheremap.svg_bytes": counts["spheremap.svg_bytes"],
        "experiment.bytes_written": artifact_bytes,
        "dataset.bytes_read": counts["dataset.bytes_read"],
        "trace.wall_s": wall,
        "trace.overhead_s": span_cost * summary.spans,
        "trace.unattributed_s": wall - sum(values[name] for name in PARTITION),
    })
    return values


def execute(mods, workload, argv, out, reports, tracer=None, span_cost=0.0):
    """Run one CLI command and read its artifacts back; never raises."""
    shutil.rmtree(out, ignore_errors=True)
    reports.clear()
    main = mods["rotta.cli"].main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue()[-300:]!r}"
    except (Exception, SystemExit) as exc:  # a crash is a failed command, not a crashed benchmark
        error = f"{type(exc).__name__}: {exc}"
    cmd = Command(wall=time.perf_counter() - start, error=error)
    if tracer is not None:
        summary, counts, pids = tracer.take()
    if error is not None:
        return cmd
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        cmd.outputs = {name: hashlib.sha256(data).hexdigest() for name, data in files.items() if name != "manifest.json"}
        cmd.dataset_sha256 = manifest["dataset_sha256"]
        if manifest["outputs"] != cmd.outputs:
            cmd.error = "manifest digests disagree with the files written"
        if workload.command == "sweep":
            cmd.mere_tta = float(files["sweep.csv"].decode().splitlines()[-1].split(",")[1])
        else:
            cmd.mere_tta = reports[-1].mere_tta
    except (OSError, KeyError, ValueError, IndexError) as exc:
        cmd.error = f"unreadable outputs: {type(exc).__name__}: {exc}"
        return cmd
    if tracer is not None:
        # manifest.json echoes the dataset path, so it is not counted
        artifact_bytes = sum(len(data) for name, data in files.items() if name != "manifest.json")
        cmd.layer = layer_values(summary, counts, pids, cmd.wall, artifact_bytes, span_cost)
        cmd.durations = summary.durations
    return cmd


def gate(cmd, ref, counts_expected):
    """Problems of one command against the seed-commit reference (empty when correct)."""
    if cmd.error is not None:
        return [cmd.error]
    problems = []
    if cmd.dataset_sha256 != ref["dataset_sha256"]:
        problems.append("dataset digest differs from the reference")
    changed = sorted(set(cmd.outputs) ^ set(ref["outputs"])
                     | {n for n in cmd.outputs if cmd.outputs[n] != ref["outputs"].get(n)})
    if changed:
        problems.append("artifacts differ from the reference: " + ", ".join(changed))
    if cmd.layer is not None and counts_expected is not None:
        drift = [name for name, _ in COUNTS if cmd.layer[name] != counts_expected[name]]
        if drift:
            problems.append("counts did not repeat: " + ", ".join(drift))
    return problems


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def measure(args, workload, input_set, ref, src_matches, work):
    dataset = work / "dataset.ndjson"
    out = work / "out"
    setups, commands, ok, failures = [], [], [], []
    # Counts are checked against the seed commit's when the sources are the
    # seed commit's, and against the first traced command otherwise.
    counts_expected = ref["counts"] if src_matches else None
    cost = span_cost() if args.trace else 0.0
    start = time.perf_counter()
    rounds = []
    while True:
        round_start = time.perf_counter()
        # A set-up before every command samples the same machine conditions
        # as the commands.
        gc.collect()
        mods, timings = setup(workload, input_set, dataset)
        setups.append(timings)
        reports = capture_reports(mods["rotta.experiment"])
        argv = cli_argv(workload, input_set, dataset, out)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(mods)
        try:
            cmd = execute(mods, workload, argv, out, reports, tracer, cost)
        finally:
            if tracer is not None:
                tracer.uninstall()
        commands.append(cmd)
        problems = gate(cmd, ref, counts_expected)
        if cmd.layer is not None and counts_expected is None:
            counts_expected = {name: cmd.layer[name] for name, _ in COUNTS}
        if problems:
            failures.append(problems)
            print(f"command {len(commands)} FAILED: " + "; ".join(problems), file=sys.stderr)
        else:
            ok.append(cmd)  # only commands that pass the gate are timed: a crash is not a speed
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop before a round that would end past --seconds.
        if now - start + statistics.median(rounds) > args.seconds:
            break

    mere = ok[0].mere_tta if ok else None
    report = {
        "commands": len(commands),
        "timed_commands": len(ok),
        "setups": len(setups),
        "mere_tta": mere,
        "first_setup_s": setups[0]["total"],
        "import_s": min(s["import"] for s in setups),
    }
    if args.trace:
        metrics = layer_metrics(ok, setups)
    else:
        # The machine's slowdowns only add time, so the fastest command and
        # set-up are the steadiest estimates of the program's own cost.
        wall = min(c.wall for c in ok) if ok else None
        metrics = {
            "wall_s": wall,
            "predictions_per_s": workload.predictions / wall if ok else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mere_tta_rel": mere / ref["mere_tta"] if ok else None,
            "setup_s": min(s["total"] for s in setups),
        }
    return len(commands), failures, metrics, report


def layer_metrics(done, setups):
    """Per-layer metrics over the traced commands that passed the gate (None without any)."""
    values = {}
    for metric, (span, q, scale, _) in PERCENTILES.items():
        durations = [d for c in done for d in c.durations.get(span, ())]
        values[metric] = percentile(durations, q) * scale if done else None
    for name, _ in COUNTS:
        values[name] = done[0].layer[name] if done else None
    for name, key in SETUP_TIMES:
        values[name] = min(s[key] for s in setups)
    for name in [m for m, _, _ in LAYER_TIMES] + ["experiment.driver.self_s", *TRACE_TIMES]:
        values[name] = statistics.median(c.layer[name] for c in done) if done else None
    return {name: values[name] for name, _ in PER_LAYER}


def print_report(prov, workload, attempted, failures, metrics, units, report):
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {prov['workload']} ({prov['size']}): rotta {workload.command}, "
          f"{workload.samples} samples x {workload.steps} steps, {workload.predictions} predictions per command, "
          f"input set {prov['input_set']} of {INPUT_SETS} (seed {prov['seed']})")
    traced = " traced" if "trace.wall_s" in metrics else ""
    print(f"commands: {report['commands']}{traced}, {report['timed_commands']} passed and timed; "
          f"setups: {report['setups']}; error_rate = {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    print(f"mere_tta = {report['mere_tta']!r}; first setup {report['first_setup_s']:.4f} s "
          f"(includes numpy import); fastest package import {report['import_s']:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<34} {'none' if value is None else format(value, '.6g'):>16} {units[name]}")
    unattributed, overhead = metrics.get("trace.unattributed_s"), metrics.get("trace.overhead_s")
    if unattributed is not None:
        print(f"the layer times leave {unattributed:.4f} s of the traced wall time unattributed; "
              f"within trace.overhead_s = {overhead:.4f} s: {abs(unattributed) <= overhead}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full")
    parser.add_argument("--reference", type=Path, default=REFERENCE, help="reference digests (JSON)")
    args = parser.parse_args(argv)

    if not (SRC / "rotta" / "__init__.py").is_file():
        print(f"error: no rotta sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One single-threaded process: no native thread pools next to the timed loop.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    workload = WORKLOADS[args.size][args.workload]
    input_set = args.seed % INPUT_SETS
    try:
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
        ref = reference["workloads"][args.size][args.workload][str(input_set)]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload}/{args.size}/{input_set} in {args.reference}: {exc}",
              file=sys.stderr)
        return 2

    prov = provenance(args.workload, args.seed, input_set, args.size)
    src_matches = prov["src_sha256"] == reference["src_sha256"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        attempted, failures, metrics, report = measure(args, workload, input_set, ref, src_matches, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print_report(prov, workload, attempted, failures, metrics, units, report)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
