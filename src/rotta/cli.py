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
from .metrics import TooManyBins
from .models import ExternalModelError
from .rotations import RotationStream
from .spheremap import COLORMAPS
from .tta import DIVISOR_MODES, EmptyInput

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


# Every flag of the predicting commands, in the order help lists them:
# (option, the commands that read it, add_argument keywords).  A flag's
# ``dest`` is the :class:`~rotta.experiment.ExperimentConfig` field it sets,
# and a config flag has no default of its own: these parsers leave an
# omitted flag out of the namespace (``argparse.SUPPRESS``), so the field
# keeps the default the config gives it.  A command takes only the flags
# that change what it prints or writes; any other is a usage error.
_EVERY = "run audit sweep sphere-map repeats"
_FLAGS = (
    ("--dataset", _EVERY, dict(required=True, help="dataset file (newline-delimited JSON)")),
    ("--out", "run sweep sphere-map repeats", dict(dest="out_dir", metavar="OUT", required=True,
                                                   help="output directory")),
    ("--seed", _EVERY, dict(type=int, help="rotation stream seed")),
    ("--rotations", "run sphere-map repeats", dict(dest="n_rotations", type=int, metavar="N",
                                                   help="number of random rotations (identity is extra)")),
    ("--model", _EVERY, dict(help="equivariant | noisy | external:<command>")),
    ("--noise-amp", _EVERY, dict(type=float, help="noise amplitude of the noisy model (MPa)")),
    ("--noise-seed", _EVERY, dict(type=int, help="noise hash seed")),
    ("--mare-abs", "run sweep repeats", dict(action="store_true",
                                            help="absolute instead of signed step difference in max relative error")),
    ("--divisor", "run sweep repeats", dict(dest="divisor_mode", choices=DIVISOR_MODES,
                                           help="mean divisor: number of predictions, or N as printed")),
    ("--bin-width", "run", dict(type=float, help="histogram bin width")),
    ("--timeout", _EVERY, dict(dest="external_timeout", type=float, metavar="TIMEOUT",
                               help="external model timeout: longest wait without progress (s)")),
    ("--sphere-map", "run", dict(action="store_true", help="also export the error map")),
    ("--grid", "run sphere-map", dict(type=_grid, metavar="WxH", help="raster grid size")),
    ("--radius", "run sphere-map", dict(type=float, help="projection radius R")),
    ("--colormap", "run sphere-map", dict(choices=tuple(COLORMAPS), help="map colormap")),
    ("--identity-only", "audit", dict(action="store_true", default=False,
                                      help="use identity rotations (errors must be exactly zero)")),
    ("--n-values", "sweep", dict(type=_n_values, required=True, metavar="N1,N2,...",
                                 help="rotation counts to evaluate")),
    ("--repeats", "repeats", dict(type=int, default=5, metavar="K", help="repeat count")),
)


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
    for name, (help_text, _) in _COMMANDS.items():
        # a predicting command's omitted flag leaves its config field at the default
        p = sub.add_parser(name, help=help_text, argument_default=None if name == "generate" else argparse.SUPPRESS)
        if name != named:
            continue
        if name == "generate":
            _add_generate_flags(p)
        for option, commands, keywords in _FLAGS:
            if name in commands.split():
                p.add_argument(option, **keywords)
    return parser


def _config_from(args):
    """The :class:`~rotta.experiment.ExperimentConfig` of the fields the command line gives."""
    return ExperimentConfig(**{name: value for name, value in vars(args).items() if name in ExperimentConfig._fields})


def _cmd_generate(args):
    count = args.samples
    if count is None:
        count = UNIAXIAL_COUNT if args.uniaxial else 26
    try:
        samples = generate_synthetic(
            count,
            args.steps,
            max_strain=args.max_strain,
            stream=RotationStream(args.seed),
            uniaxial=args.uniaxial,
        )
    except ValueError as exc:  # generate reads no data: every invalid sample comes from its arguments
        raise ConfigError(str(exc)) from exc
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


# name -> (help, handler), in the order usage lists them
_COMMANDS = {
    "generate": ("write a synthetic dataset", _cmd_generate),
    "run": ("full run with persisted metrics", _cmd_run),
    "audit": ("numerical round-trip error table", _cmd_audit),
    "sweep": ("error versus rotation count", _cmd_sweep),
    "sphere-map": ("per-rotation error map", _cmd_sphere_map),
    "repeats": ("stability over consecutive seeds", _cmd_repeats),
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
        return _COMMANDS[args.command][1](args)
    except (ConfigError, EmptyInput, TooManyBins) as exc:
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
