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
from dataclasses import asdict, dataclass, fields
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


@dataclass(frozen=True)
class Key:
    name: str
    kind: str  # int | float | ints | str
    default: object
    help: str


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _convert(key: Key, raw: str):
    try:
        if key.kind == "int":
            return int(raw)
        if key.kind == "float":
            return float(raw)
        if key.kind == "ints":
            return tuple(int(part) for part in str(raw).split(",") if part.strip())
        return str(raw)
    except ValueError as exc:
        raise CliError(f"invalid value for {key.name}: {raw!r} ({exc})") from exc


def _load_config(path: str, keys: list[Key]) -> dict:
    known = {k.name for k in keys}
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


def _merge(args: argparse.Namespace, keys: list[Key]) -> dict:
    config = _load_config(args.config, keys) if getattr(args, "config", None) else {}
    merged = {}
    for key in keys:
        flag_value = getattr(args, key.name, None)
        if flag_value is not None:
            merged[key.name] = _convert(key, flag_value)
        elif key.name in config:
            merged[key.name] = _convert(key, config[key.name])
        else:
            merged[key.name] = key.default
    return merged


# Each subcommand declares only the keys it reads.
_SEED = Key("seed", "int", 0, "master seed, unsigned 64-bit")
_THREADS = Key("threads", "int", os.cpu_count() or 1, "worker thread cap; results are independent of it")


def _out(default: str | None = None) -> Key:
    return Key("out", "str", default, "output path")


# Shared by the width sweeps, decay and relaxed.
_WIDTH_KEYS = [
    Key("n", "int", 8, "signal dimension"),
    Key("k", "int", None, "sparsity; set for sparse-signal sweeps"),
    Key("m_list", "ints", (32, 64, 128, 256, 512, 1024), "comma-separated measurement counts, strictly ascending"),
    Key("trials", "int", 50, "trials per M"),
    Key("directions", "int", 512, "random directions per width estimate"),
    Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
    Key("eta", "float", 0.1, "failure probability for the predicted overlay, in (0,1)"),
]

_KEYS: dict[str, list[Key]] = {
    "sense": [_SEED, _out()]
    + [
        Key("n", "int", 8, "signal dimension"),
        Key("m", "int", 64, "number of measurements"),
        Key("k", "int", None, "sparsity; omit for unit-ball signals"),
        Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
        Key("dump_ensemble", "str", None, "write the ensemble in binary form to this path"),
    ],
    "reconstruct": [_SEED, _out()]
    + [
        Key("n", "int", 8, "signal dimension"),
        Key("m", "int", 64, "number of measurements"),
        Key("k", "int", None, "sparsity; set to solve by support enumeration"),
        Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
        Key("tol", "float", None, "slab interior margin; default 1e-9*delta"),
        Key("max_iter", "int", None, "projection-cycle cap; default 100000, or 200 per support with --k"),
    ],
    "decay": [_SEED, _THREADS, _out("decay.csv"), *_WIDTH_KEYS],
    "relaxed": [_SEED, _THREADS, _out("relaxed.csv"), *_WIDTH_KEYS]
    + [Key("r", "int", 2, "allowed code discrepancy (integer steps)")],
    "bias": [_SEED, _THREADS, _out("bias.csv")]
    + [
        Key("n", "int", 8, "signal dimension"),
        Key("k", "int", 2, "sparsity of the test signals"),
        Key("lam", "float", 0.25, "offset in resolution units; |lam|*delta must stay below 1"),
        Key("m_list", "ints", (1000, 10000), "comma-separated measurement counts, strictly ascending"),
        Key("trials", "int", 200, "trials per M"),
        Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
    ],
    "buffon": [_SEED, _out()]
    + [
        Key("n", "int", 4, "ambient dimension, >= 2"),
        Key("alpha", "float", 2.0, "center distance in resolution units, > 0"),
        Key("throws", "int", 100_000, "Monte Carlo throws"),
    ],
    "bounds": [
        Key("mode", "str", "grfcq", "grfcq | qcs | relaxed-grfcq | relaxed-qcs | rho | covering | predicted-eps"),
        Key("eps0", "float", 0.5, "target proximity, > 0"),
        Key("eta", "float", 0.1, "failure probability, in (0,1)"),
        Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
        Key("n", "int", 8, "signal dimension"),
        Key("k", "int", None, "sparsity (sparse modes)"),
        Key("r", "int", 0, "allowed code discrepancy (relaxed modes)"),
        Key("m", "int", None, "measurement count (predicted-eps)"),
        Key("rho", "float", 0.1, "inconsistency fraction (rho mode), in (0,1)"),
        Key("s", "float", 1.5, "covering radius (covering mode), in (0,3]"),
    ],
    "noise": [_SEED, _THREADS, _out("noise.csv")]
    + [
        Key("n", "int", 8, "signal dimension"),
        Key("m_list", "ints", (1000,), "comma-separated measurement counts, strictly ascending"),
        Key("trials", "int", 1000, "trials per M"),
        Key("delta", "float", 1.0, "quantizer resolution, measurement units"),
    ],
    "check": [_SEED, _THREADS, _out("check-artifacts")],
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
    # each solver keeps its own cycle cap unless --max-iter is given
    cap = {} if opts["max_iter"] is None else {"max_iter": opts["max_iter"]}
    if opts["k"] is None:
        result = pocs_consistent(ensemble, obs.codes, tol=opts["tol"], **cap)
    else:
        result = qcs_enumerate(ensemble, obs.codes, opts["k"], tol=opts["tol"], **cap)
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


# bounds count mode -> (reads --k, reads --r); a mode ignores the flags it does not read
_COUNTS = {
    "grfcq": (False, False),
    "qcs": (True, False),
    "relaxed-grfcq": (False, True),
    "relaxed-qcs": (True, True),
}


def _cmd_bounds(opts: dict) -> int:
    mode = opts["mode"]
    if mode in _COUNTS:
        sparse, relaxed = _COUNTS[mode]
        if sparse and opts["k"] is None:
            raise CliError(f"mode {mode} requires --k")
        value = min_measurements(
            opts["eps0"], opts["eta"], opts["delta"], opts["n"],
            k=opts["k"] if sparse else None, r=opts["r"] if relaxed else 0,
        )
    elif mode == "rho":
        print(json.dumps(asdict(rho_constants(opts["rho"])), indent=2))
        return 0
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


def _cmd_check(opts: dict, tier_name: str) -> int:
    tier = acceptance.FULL if tier_name == "full" else acceptance.QUICK
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
    **{name: partial(_cmd_sweep, name) for name in _SWEEPS},
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qconsist",
        description="Quantized Gaussian projections: consistent reconstruction and bound validation.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    descriptions = {
        "sense": "generate an ensemble + signal and print the quantized codes",
        "reconstruct": "sense a fresh instance and solve for a consistent estimate",
        "decay": "width-vs-M sweep with the linear baseline (CSV + JSON summary)",
        "relaxed": "decay sweep at a fixed allowed code discrepancy r",
        "bias": "constant-offset discrepancy floor experiment",
        "buffon": "single-projection crossing probability vs its closed-form bound",
        "bounds": "print a measurement-count or constant formula value",
        "noise": "quantization-noise power against the M*delta^2/12 law",
        "check": "run the acceptance suite (exit 2 on any criterion failure)",
    }
    for name, keys in _KEYS.items():
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        p.add_argument("--config", default=None, help="flat key=value config file; flags override it")
        for key in keys:
            p.add_argument(_flag(key.name), dest=key.name, default=None, help=f"{key.help} (default: {key.default})")
        if name == "check":
            tier_group = p.add_mutually_exclusive_group()
            tier_group.add_argument("--quick", action="store_true", help="reduced smoke tier (a few seconds)")
            tier_group.add_argument("--full", action="store_true", help="stated criterion sizes (about 13 s)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        opts = _merge(args, _KEYS[args.command])
        if "seed" in opts and not 0 <= opts["seed"] < 2**64:
            raise CliError("--seed must be an unsigned 64-bit integer")
        if "threads" in opts and opts["threads"] < 1:
            raise CliError("--threads must be >= 1")
        if args.command == "check":
            return _cmd_check(opts, "full" if args.full else "quick")
        return _HANDLERS[args.command](opts)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"qconsist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
