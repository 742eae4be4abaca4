"""Command-line interface.

Exit codes: 0 success, 1 invalid flags/config, 2 when `check` detects a
criterion failure.  Human-readable progress goes to standard error; data
goes to files and standard output only.

Config files are flat `key = value` text (UTF-8, `#` comments).  Keys
match the flag names with underscores (e.g. `m_list = 32,64,128`);
unknown keys are rejected; explicit flags override config values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import acceptance
from .bounds import covering_bound, min_measurements, predicted_eps, rho_constants
from .buffon import verify_bound_chain
from .experiments import (
    ExperimentConfig,
    bias_experiment,
    decay_sweep,
    noise_power_check,
    write_records,
)
from .quantizer import QuantizerSpec
from .randkit import Stream, derive_stream
from .reconstruct import linear_baseline, pocs_consistent, qcs_enumerate
from .sensing import SignalModel, gen_ensemble, sample_signal, save_ensemble, sense

__all__ = ["main"]


class CliError(Exception):
    """Invalid flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _load_config(path: str, known) -> dict[str, str]:
    """The raw `key = value` strings of a config file; keys must be in `known`."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        if name not in known:
            raise CliError(f"{path}:{lineno}: unknown key {name!r}")
        values[name] = raw
    return values


def _ints(raw: str) -> tuple[int, ...]:
    """A comma-separated list of ints; empty items are skipped."""
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list value: {raw!r}") from None


# Every option once: name -> (type, help).  A help text must hold for every
# subcommand that lists the option.
_OPTIONS = {
    "seed": (int, "master seed, unsigned 64-bit"),
    "threads": (int, "worker thread cap; results are independent of it"),
    "out": (str, "output path"),
    "mode": (str, "count | rho | covering | predicted-eps"),
    "eps0": (float, "target proximity, > 0"),
    "eta": (float, "failure probability, in (0,1); the sweeps' predicted overlay uses it"),
    "n": (int, "signal (ambient) dimension; buffon needs >= 2"),
    "m": (int, "number of measurements; bounds reads it in predicted-eps mode"),
    "k": (int, "signal sparsity; None, where it is the default, means unit-ball signals"),
    "r": (int, "allowed code discrepancy in integer steps; bounds reads it in count mode"),
    "m_list": (_ints, "comma-separated measurement counts, strictly ascending"),
    "trials": (int, "trials per M"),
    "directions": (int, "random directions per width estimate"),
    "delta": (float, "quantizer resolution, measurement units"),
    "lam": (float, "offset in resolution units; |lam|*delta must stay below 1"),
    "tol": (float, "slack the estimate must keep inside every slab; None means 1e-9*delta"),
    "dump_ensemble": (str, "write the ensemble in binary form to this path"),
    "alpha": (float, "center distance in resolution units, > 0"),
    "throws": (int, "Monte Carlo throws"),
    "rho": (float, "inconsistency fraction (rho mode), in (0,1)"),
    "s": (float, "covering radius (covering mode), in (0,3]"),
}


_CAMPAIGN = dict(seed=0, threads=os.cpu_count() or 1)
_INSTANCE = dict(seed=0, out=None, n=8, m=64, k=None, delta=1.0)
_WIDTH = dict(n=8, k=None, m_list=(32, 64, 128, 256, 512, 1024), trials=50, directions=512, delta=1.0, eta=0.1)

# subcommand -> (description, {option: default}); each takes only the options it reads
_COMMANDS = {
    "sense": ("generate an ensemble + signal and print the quantized codes", dict(_INSTANCE, dump_ensemble=None)),
    "reconstruct": ("sense a fresh instance and solve for a consistent estimate", dict(_INSTANCE, tol=None)),
    "decay": (
        "width-vs-M sweep with the linear baseline (CSV + JSON summary)",
        dict(_CAMPAIGN, out="decay.csv", **_WIDTH),
    ),
    "relaxed": ("decay sweep at a fixed allowed code discrepancy r", dict(_CAMPAIGN, out="relaxed.csv", **_WIDTH, r=2)),
    "bias": (
        "constant-offset discrepancy floor experiment",
        dict(_CAMPAIGN, out="bias.csv", n=8, k=2, lam=0.25, m_list=(1000, 10000), trials=200, delta=1.0),
    ),
    "buffon": (
        "single-projection crossing probability vs its closed-form bound",
        dict(seed=0, out=None, n=4, alpha=2.0, throws=100_000),
    ),
    "bounds": (
        "print a measurement-count or constant formula value",
        dict(mode="count", eps0=0.5, eta=0.1, delta=1.0, n=8, k=None, r=0, m=None, rho=0.1, s=1.5),
    ),
    "noise": (
        "quantization-noise power against the M*delta^2/12 law",
        dict(_CAMPAIGN, out="noise.csv", n=8, m_list=(1000,), trials=1000, delta=1.0),
    ),
    "check": ("run the acceptance suite (exit 2 on any criterion failure)", dict(_CAMPAIGN, out="check-artifacts")),
}


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _instance(opts: dict):
    """The seeded (ensemble, signal, observation) of sense and reconstruct."""
    ensemble = gen_ensemble(opts["m"], opts["n"], QuantizerSpec(opts["delta"]), derive_stream(opts["seed"], 0))
    signal = sample_signal(SignalModel(opts["n"], opts["k"]), Stream(derive_stream(opts["seed"], 1)))
    return ensemble, signal, sense(ensemble, signal)


def _cmd_sense(opts: dict) -> int:
    ensemble, signal, obs = _instance(opts)
    if opts["dump_ensemble"]:
        save_ensemble(opts["dump_ensemble"], ensemble)
        _note(f"ensemble written to {opts['dump_ensemble']}")
    _emit(
        {
            "m": opts["m"],
            "n": opts["n"],
            "delta": opts["delta"],
            "seed": opts["seed"],
            "codes": obs.codes.tolist(),
            "x": signal.x.tolist(),
            "support": None if signal.support is None else signal.support.tolist(),
        },
        opts["out"],
    )
    return 0


def _cmd_reconstruct(opts: dict) -> int:
    ensemble, signal, obs = _instance(opts)
    if opts["k"] is None:
        result = pocs_consistent(ensemble, obs.codes, tol=opts["tol"])
    else:
        result = qcs_enumerate(ensemble, obs.codes, opts["k"], tol=opts["tol"])
    report = {
        "m": opts["m"],
        "n": opts["n"],
        "k": opts["k"],
        "delta": opts["delta"],
        "seed": opts["seed"],
        "consistent": result.consistent,
        "iterations": result.iterations,
        "residual": result.residual,
        "error": float(np.linalg.norm(signal.x - result.x_star)),
        "x_star": result.x_star.tolist(),
    }
    if opts["m"] >= opts["n"]:
        baseline = linear_baseline(ensemble, obs.codes)
        report["baseline_error"] = float(np.linalg.norm(signal.x - baseline))
    _emit(report, opts["out"])
    return 0


# sweep subcommand -> (campaign, record mode); decay records "qcs" when --k is set
_SWEEPS = {
    "decay": (decay_sweep, "grfcq"),
    "relaxed": (decay_sweep, "relaxed"),
    "bias": (bias_experiment, "bias"),
    "noise": (noise_power_check, "noise"),
}


def _cmd_sweep(name: str, opts: dict) -> int:
    campaign, mode = _SWEEPS[name]
    if mode == "grfcq" and opts["k"] is not None:
        mode = "qcs"
    settable = {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(mode=mode, **{key: value for key, value in opts.items() if key in settable})
    out = Path(opts["out"])
    # fail before the campaign, not after it, when the records cannot be written
    if out.is_dir() or not out.parent.is_dir() or not os.access(out.parent, os.W_OK):
        raise CliError(f"--out {opts['out']} is not a file in a writable directory")
    _note(f"{name}: {cfg}")
    result = campaign(cfg, threads=opts["threads"])
    write_records(opts["out"], result.records)
    _note(f"records written to {opts['out']}")
    print(json.dumps(result.summary, indent=2))
    return 0


def _cmd_buffon(opts: dict) -> int:
    if opts["n"] < 2:
        raise CliError("buffon requires n >= 2")
    _note(f"bound chain: n={opts['n']} alpha={opts['alpha']} throws={opts['throws']}")
    report = verify_bound_chain(opts["n"], opts["alpha"], opts["throws"], Stream(opts["seed"]))
    _emit(asdict(report), opts["out"])
    return 0


def _cmd_bounds(opts: dict) -> int:
    mode = opts["mode"]
    if mode == "count":
        value = min_measurements(opts["eps0"], opts["eta"], opts["delta"], opts["n"], k=opts["k"], r=opts["r"])
    elif mode == "rho":
        value = json.dumps(asdict(rho_constants(opts["rho"])), indent=2)
    elif mode == "covering":
        value = covering_bound(opts["s"], opts["n"])
    elif mode == "predicted-eps":
        if opts["m"] is None:
            raise CliError("mode predicted-eps requires --m")
        value = predicted_eps(opts["m"], opts["eta"], opts["delta"], opts["n"], k=opts["k"])
    else:
        raise CliError(f"unknown bounds mode {mode!r}")
    print(value)
    return 0


def _cmd_check(opts: dict) -> int:
    tier = acceptance.FULL if opts["full"] else acceptance.QUICK
    _note(f"acceptance suite, {tier.name} tier, seed {opts['seed']}, artifacts in {opts['out']}")
    results = acceptance.run_all(
        tier, master=opts["seed"], out_dir=opts["out"], threads=opts["threads"], progress=_note
    )
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


_HANDLERS = {
    "sense": _cmd_sense,
    "reconstruct": _cmd_reconstruct,
    "buffon": _cmd_buffon,
    "bounds": _cmd_bounds,
    "check": _cmd_check,
    **{name: partial(_cmd_sweep, name) for name in _SWEEPS},
}


def _build_parser() -> tuple[_Parser, argparse._SubParsersAction]:
    """The top-level parser and its subparsers action."""
    parser = _Parser(
        prog="qconsist",
        description="Quantized Gaussian projections: consistent reconstruction and bound validation.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (description, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=description, description=description)
        p.add_argument("--config", default=None, help="flat key=value config file; flags override it")
        for option, default in defaults.items():
            kind, text = _OPTIONS[option]
            flag = "--" + option.replace("_", "-")
            p.add_argument(flag, type=kind, default=default, help=f"{text} (default: {default})")
        if name == "check":
            tier_group = p.add_mutually_exclusive_group()
            tier_group.add_argument("--quick", action="store_true", help="reduced smoke tier (a few seconds)")
            tier_group.add_argument("--full", action="store_true", help="stated criterion sizes (about 4 s)")
    return parser, sub


def main(argv=None) -> int:
    parser, sub = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the subcommand's own usage line
            owner = sub.choices[args.command] if args.command else parser
            owner.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.config:
            # Config strings become the subcommand's defaults, which argparse
            # converts with each option's own type; a flag given still wins.
            config = _load_config(args.config, _COMMANDS[args.command][1])
            sub.choices[args.command].set_defaults(**config)
            args = parser.parse_args(argv)
        opts = vars(args)
        if "seed" in opts and not 0 <= opts["seed"] < 2**64:
            raise CliError("--seed must be an unsigned 64-bit integer")
        if "threads" in opts and opts["threads"] < 1:
            raise CliError("--threads must be >= 1")
        return _HANDLERS[args.command](opts)
    except (CliError, ValueError, RuntimeError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"qconsist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
