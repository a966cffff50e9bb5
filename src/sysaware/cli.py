"""Command-line front end: experiment sweeps, theoretical curves, raw codec.

Configs are flat ``key = value`` text files with ``#`` comments. Runs are pure
functions of (config, seed): every output file, including the manifest with
its content hashes, is byte-identical across reruns.

Exit codes: 0 success, 1 runtime failure (the failing stage is named on
stderr), 2 config errors (with file/line/field diagnostics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, gauss_theory, system_sim, tree_codec
from .admm import AdmmConfig
from .gauss_theory import SpectralModel
from .tree_codec import TreeCodecPlug

__all__ = ["main", "ConfigError", "ExperimentConfig", "TheoryConfig"]


class ConfigError(Exception):
    """Bad config file; carries the offending location for diagnostics."""

    def __init__(self, message: str, path=None, line: int | None = None, field: str | None = None):
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        super().__init__(f"{message} [{', '.join(where)}]" if where else message)
        self.path = path
        self.line = line
        self.field = field


@dataclass
class ExperimentConfig:
    """Sweep experiment settings; defaults reproduce the reference chirp setup."""

    signal_kind: str = "chirp"
    signal_n: int = 1024
    signal_path: str = ""
    kernel_std: float = 15.0
    kernel_support: int = 15
    subsample_factor: int = 4
    noise_std: float = 1e-3
    seed: int = 1234
    codec_depth: int | None = None
    codec_q_bits: int = 8
    admm_beta_tilde: float = AdmmConfig.beta_tilde
    admm_max_iters: int = AdmmConfig.max_iters
    admm_tol: float = AdmmConfig.tol
    sweep_params: tuple = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2)
    output_dir: str = "out"


@dataclass
class TheoryConfig:
    n: int = 64
    lambda_x: str = "constant:1.0"
    a_response: str = "ones"
    b_response: str = "ones"
    d_grid: tuple = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
    output_dir: str = "out"


# config key -> (dataclass field, parser)
def _parse_float_list(text: str) -> tuple:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected at least one value")
    return values


def _parse_depth(text: str):
    return None if text.strip() == "auto" else int(text)


_EXPERIMENT_KEYS = {
    "signal.kind": ("signal_kind", str),
    "signal.n": ("signal_n", int),
    "signal.path": ("signal_path", str),
    "system.kernel_std": ("kernel_std", float),
    "system.kernel_support": ("kernel_support", int),
    "system.subsample_factor": ("subsample_factor", int),
    "system.noise_std": ("noise_std", float),
    "system.seed": ("seed", int),
    "codec.depth": ("codec_depth", _parse_depth),
    "codec.q_bits": ("codec_q_bits", int),
    "admm.beta_tilde": ("admm_beta_tilde", float),
    "admm.max_iters": ("admm_max_iters", int),
    "admm.tol": ("admm_tol", float),
    "sweep.param_values": ("sweep_params", _parse_float_list),
    "output_dir": ("output_dir", str),
}

_THEORY_KEYS = {
    "theory.n": ("n", int),
    "theory.lambda_x": ("lambda_x", str),
    "theory.a_response": ("a_response", str),
    "theory.b_response": ("b_response", str),
    "theory.d_grid": ("d_grid", _parse_float_list),
    "output_dir": ("output_dir", str),
}


def read_key_values(path) -> dict[str, tuple[str, int]]:
    """Parse a flat config file into {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", path=path, line=lineno, field=key)
        entries[key] = (value, lineno)
    return entries


def _build_config(cls, key_table, entries, path):
    cfg = cls()
    for key, (value, lineno) in entries.items():
        if key not in key_table:
            raise ConfigError(f"unknown key {key!r}", path=path, line=lineno, field=key)
        attr, parse = key_table[key]
        try:
            setattr(cfg, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r}: {exc}", path=path, line=lineno, field=key) from exc
    return cfg


def load_experiment_config(path) -> ExperimentConfig:
    return _build_config(ExperimentConfig, _EXPERIMENT_KEYS, read_key_values(path), path)


def load_theory_config(path) -> TheoryConfig:
    return _build_config(TheoryConfig, _THEORY_KEYS, read_key_values(path), path)


def _config_echo(cfg) -> dict[str, str]:
    return {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)}


def _write_manifest(out_dir: Path, cfg, seed: int | None, outputs: dict[str, bytes]) -> None:
    manifest = {
        "config": _config_echo(cfg),
        "seed": seed,
        "versions": {
            "sysaware": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "outputs": {
            name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_run_experiment(cfg: ExperimentConfig, out_dir: Path) -> None:
    stage = "signal"
    try:
        if cfg.signal_kind == "chirp":
            x = system_sim.make_chirp(cfg.signal_n)
        elif cfg.signal_kind == "file":
            x = system_sim.load_signal(cfg.signal_path)
        else:
            raise ValueError(f"unknown signal kind {cfg.signal_kind!r}")

        stage = "system setup"
        system = system_sim.make_blur_subsample_system(
            n=x.size,
            kernel_std=cfg.kernel_std,
            kernel_support=cfg.kernel_support,
            factor=cfg.subsample_factor,
            noise_std=cfg.noise_std,
            seed=cfg.seed,
        )
        codec = TreeCodecPlug(depth=cfg.codec_depth, q_bits=cfg.codec_q_bits)
        admm_cfg = AdmmConfig(
            theta=cfg.sweep_params[0],
            beta_tilde=cfg.admm_beta_tilde,
            max_iters=cfg.admm_max_iters,
            tol=cfg.admm_tol,
        )

        stage = "sweep (regular)"
        regular = system_sim.sweep(x, system, codec, cfg.sweep_params, "regular")
        stage = "sweep (proposed)"
        proposed = system_sim.sweep(x, system, codec, cfg.sweep_params, "proposed", admm_cfg)

        stage = "write outputs"
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs: dict[str, bytes] = {}

        def emit(name: str, data) -> None:
            if isinstance(data, np.ndarray):
                data = system_sim.save_signal(out_dir / name, data).encode()
            else:
                (out_dir / name).write_bytes(data)
            outputs[name] = data

        emit("rd_curve.csv", system_sim.rd_points_to_csv(regular + proposed, cfg.seed).encode())
        emit("source.txt", x)
        emit("acquired.txt", system_sim.acquire(x, system))
        for points in (regular, proposed):
            for i, point in enumerate(points):
                emit(f"{point.method}_{i:02d}.bin", point.blob)
                emit(f"recon_{point.method}_{i:02d}.txt", point.recon)
        _write_manifest(out_dir, cfg, cfg.seed, outputs)
    except Exception as exc:
        raise RuntimeError(f"stage '{stage}' failed: {exc}") from exc


def _parse_response(spec: str, n: int, field: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "ones":
        return np.ones(n, dtype=complex)
    if kind == "zeros":
        return np.zeros(n, dtype=complex)
    if kind == "lowpass":
        cutoff = int(arg)
        k = np.minimum(np.arange(n), n - np.arange(n))
        return (k <= cutoff).astype(complex)
    if kind == "file":
        with open(arg) as fh:
            values = [complex(line.strip()) for line in fh if line.strip()]
        if len(values) != n:
            raise ValueError(f"{field}: file has {len(values)} values, expected {n}")
        return np.array(values, dtype=complex)
    raise ValueError(f"{field}: unknown response spec {spec!r}")


def _parse_spectrum(spec: str, n: int) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return np.full(n, float(arg))
    if kind == "powerlaw":
        amp_text, _, exp_text = arg.partition(",")
        amp, exponent = float(amp_text), float(exp_text)
        k = np.minimum(np.arange(n), n - np.arange(n)).astype(float)
        return amp * (1.0 + k) ** (-exponent)
    if kind == "file":
        with open(arg) as fh:
            values = [float(line) for line in fh if line.strip()]
        if len(values) != n:
            raise ValueError(f"lambda_x: file has {len(values)} values, expected {n}")
        return np.array(values)
    raise ValueError(f"unknown spectrum spec {spec!r}")


def cmd_theory_curve(cfg: TheoryConfig, out_dir: Path) -> None:
    stage = "model setup"
    try:
        model = SpectralModel(
            n=cfg.n,
            lambda_x=_parse_spectrum(cfg.lambda_x, cfg.n),
            a_f=_parse_response(cfg.a_response, cfg.n, "a_response"),
            b_f=_parse_response(cfg.b_response, cfg.n, "b_response"),
        )
        if not model.k_ab.any():
            print("warning: empty joint support, the curve carries zero rate", file=sys.stderr)
        stage = "curve"
        data = gauss_theory.curve_to_csv(model, sorted(cfg.d_grid)).encode()
        stage = "write outputs"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "theory_curve.csv").write_bytes(data)
        _write_manifest(out_dir, cfg, None, {"theory_curve.csv": data})
    except Exception as exc:
        raise RuntimeError(f"stage '{stage}' failed: {exc}") from exc


def cmd_codec(args) -> None:
    if args.codec_cmd == "encode":
        signal = system_sim.load_signal(args.input)
        stream = tree_codec.encode(signal, nu=args.nu, d=args.depth, q_bits=args.q_bits)
        data = stream.to_bytes()
        Path(args.output).write_bytes(data)
        clamped = int(np.count_nonzero((signal < 0.0) | (signal > 1.0)))
        print(f"encoded {signal.size} samples: {stream.reported_rate_bits} rate bits, "
              f"{len(data)} bytes, {clamped} samples clamped to [0, 1]")
    else:
        data = Path(args.input).read_bytes()
        recon = tree_codec.decode(data)
        system_sim.save_signal(args.output, recon)
        print(f"decoded {recon.size} samples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sysaware", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="rate-distortion sweep experiment")
    run_p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    run_p.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None, help="noise seed (overrides config)")

    theory_p = sub.add_parser("theory", help="theoretical rate-distortion curve")
    theory_p.add_argument("--config", type=Path, default=None)
    theory_p.add_argument("--out", type=Path, default=None)

    codec_p = sub.add_parser("codec", help="raw codec on signal files")
    codec_sub = codec_p.add_subparsers(dest="codec_cmd", required=True)
    enc = codec_sub.add_parser("encode")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--nu", type=float, required=True, help="Lagrangian rate weight")
    enc.add_argument("--q-bits", type=int, default=8, dest="q_bits")
    enc.add_argument("--depth", type=int, default=None)
    dec = codec_sub.add_parser("decode")
    dec.add_argument("input")
    dec.add_argument("output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
            if args.seed is not None:
                cfg.seed = args.seed
            out_dir = args.out if args.out is not None else Path(cfg.output_dir)
            cmd_run_experiment(cfg, out_dir)
        elif args.command == "theory":
            cfg = load_theory_config(args.config) if args.config else TheoryConfig()
            out_dir = args.out if args.out is not None else Path(cfg.output_dir)
            cmd_theory_curve(cfg, out_dir)
        else:
            cmd_codec(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
