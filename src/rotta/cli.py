"""Command-line interface for dataset generation and experiment runs.

Commands
--------
generate    write a synthetic dataset file (newline-delimited JSON)
run         full augmented-inference run with persisted metrics
audit       rotate/back-rotate numerical round-trip error table
sweep       aggregated error versus rotation count (shared stream prefix)
sphere-map  per-rotation error map projected onto an ellipse (SVG + CSV)
repeats     stability table over consecutive rotation seeds

Exit codes: 0 success, 2 configuration error, 3 data error, 4 external
model error.  The only environment variable honored is ``ROTTA_LOG``
(``debug``/``info``/``warning``/``error``), controlling log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .dataset import (
    DEFAULT_MAX_STRAIN,
    InvariantViolation,
    ParseError,
    UNIAXIAL_COUNT,
    generate_synthetic,
    save_dataset,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    run_audit,
    run_experiment,
    run_repeats,
    run_sphere_map,
    run_sweep,
)
from .metrics import DEFAULT_BIN_WIDTH
from .models import ExternalModelError
from .rotations import RotationStream
from .spheremap import DEFAULT_GRID, DEFAULT_RADIUS

log = logging.getLogger("rotta")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EXTERNAL = 4


def _grid(text):
    try:
        w, h = text.lower().split("x")
        grid = (int(w), int(h))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 720x360, got {text!r}") from exc
    if min(grid) < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be >= 1")
    return grid


def _n_values(text):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one rotation count")
    return values


def _add_common(parser, out_required=True):
    parser.add_argument("--dataset", required=True, help="dataset file (newline-delimited JSON)")
    if out_required:
        parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="rotation stream seed")
    parser.add_argument("--rotations", type=int, default=200, metavar="N",
                        help="number of random rotations (identity is extra)")
    parser.add_argument("--model", default="equivariant",
                        help="equivariant | noisy | external:<command>")
    parser.add_argument("--noise-amp", type=float, default=0.0,
                        help="noise amplitude of the noisy model (MPa)")
    parser.add_argument("--noise-seed", type=int, default=0, help="noise hash seed")
    parser.add_argument("--mare-abs", action="store_true",
                        help="absolute instead of signed step difference in max relative error")
    parser.add_argument("--divisor", choices=("count", "paper"), default="count",
                        help="mean divisor: number of predictions, or N as printed")
    parser.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH,
                        help="histogram bin width")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="external model timeout: longest wait without progress (s)")


def _add_map_flags(parser):
    parser.add_argument("--grid", type=_grid, default=DEFAULT_GRID, metavar="WxH",
                        help="raster grid size")
    parser.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                        help="projection radius R")
    parser.add_argument("--colormap", choices=("viridis", "gray"), default="viridis",
                        help="map colormap")


def _add_generate_flags(p):
    p.add_argument("--dataset", required=True, help="destination file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None, metavar="M",
                   help=f"sample count (default 26, or {UNIAXIAL_COUNT} with --uniaxial)")
    p.add_argument("--steps", type=int, default=100, metavar="T", help="path length")
    p.add_argument("--max-strain", type=float, default=DEFAULT_MAX_STRAIN,
                   help="peak absolute strain component")
    p.add_argument("--uniaxial", action="store_true",
                   help=f"cyclic axial loading (default count {UNIAXIAL_COUNT})")


def _add_run_flags(p):
    _add_common(p)
    p.add_argument("--sphere-map", action="store_true", help="also export the error map")
    _add_map_flags(p)


def _add_audit_flags(p):
    _add_common(p, out_required=False)
    p.add_argument("--identity-only", action="store_true",
                   help="use identity rotations (errors must be exactly zero)")


def _add_sweep_flags(p):
    _add_common(p)
    p.add_argument("--n-values", type=_n_values, required=True, metavar="N1,N2,...",
                   help="rotation counts to evaluate")


def _add_sphere_map_flags(p):
    _add_common(p)
    _add_map_flags(p)


def _add_repeats_flags(p):
    _add_common(p)
    p.add_argument("--repeats", type=int, default=5, metavar="K", help="repeat count")


def build_parser(argv):
    """The ``rotta`` parser for ``argv``.

    Every subcommand is registered, so usage, help and errors read as with
    all of them built, but only the one ``argv`` names gets its flags:
    building the others would cost most of the parse.  That is the first
    token naming a command, which is the one argparse dispatches to unless
    an earlier token is already an error.
    """
    named = next((token for token in argv if token in _COMMANDS), None)
    parser = argparse.ArgumentParser(
        prog="rotta",
        description="rotation-augmented inference with uncertainty estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named:
            add_flags(p)
    return parser


def _config_from(args, out_dir=None):
    return ExperimentConfig(
        dataset=args.dataset,
        out_dir=out_dir if out_dir is not None else getattr(args, "out", "."),
        model=args.model,
        n_rotations=args.rotations,
        seed=args.seed,
        divisor_mode=args.divisor,
        mare_abs=args.mare_abs,
        bin_width=args.bin_width,
        noise_amp=args.noise_amp,
        noise_seed=args.noise_seed,
        sphere_map=getattr(args, "sphere_map", False),
        grid=getattr(args, "grid", DEFAULT_GRID),
        radius=getattr(args, "radius", DEFAULT_RADIUS),
        colormap=getattr(args, "colormap", "viridis"),
        external_timeout=args.timeout,
    )


def _cmd_generate(args):
    count = args.samples
    if count is None:
        count = UNIAXIAL_COUNT if args.uniaxial else 26
    samples = generate_synthetic(
        count,
        args.steps,
        max_strain=args.max_strain,
        stream=RotationStream(args.seed),
        uniaxial=args.uniaxial,
    )
    save_dataset(samples, args.dataset)
    log.info("wrote %d samples to %s", len(samples), args.dataset)
    print(f"{args.dataset}: {len(samples)} samples x {args.steps} steps")
    return EXIT_OK


def _cmd_run(args):
    report, manifest_path = run_experiment(_config_from(args))
    print(report.to_text())
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _cmd_audit(args):
    report = run_audit(_config_from(args), identity_only=args.identity_only)
    print(report.to_text())
    return EXIT_OK


def _cmd_sweep(args):
    rows = run_sweep(_config_from(args), args.n_values)
    print("n,mere_tta,mare_tta")
    for n, me, ma in rows:
        print(f"{n},{me!r},{ma!r}")
    return EXIT_OK


def _cmd_sphere_map(args):
    manifest_path = run_sphere_map(_config_from(args))
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def _cmd_repeats(args):
    rows, (mean, sd) = run_repeats(_config_from(args), n_repeats=args.repeats)
    print("repeat,seed,mere_i0,mere_av,sd_mere,mere_tta,mare_tta")
    for row in rows:
        print(",".join(str(v) for v in row))
    print(f"mean mere_tta = {mean!r}, sample sd = {sd!r}")
    return EXIT_OK


# name -> (help, flag builder, handler), in the order usage lists them
_COMMANDS = {
    "generate": ("write a synthetic dataset", _add_generate_flags, _cmd_generate),
    "run": ("full run with persisted metrics", _add_run_flags, _cmd_run),
    "audit": ("numerical round-trip error table", _add_audit_flags, _cmd_audit),
    "sweep": ("error versus rotation count", _add_sweep_flags, _cmd_sweep),
    "sphere-map": ("per-rotation error map", _add_sphere_map_flags, _cmd_sphere_map),
    "repeats": ("stability over consecutive seeds", _add_repeats_flags, _cmd_repeats),
}


def _setup_logging():
    level_name = os.environ.get("ROTTA_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, InvariantViolation) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ExternalModelError as exc:
        print(f"external model error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL


if __name__ == "__main__":
    sys.exit(main())
