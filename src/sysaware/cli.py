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
from dataclasses import dataclass, field, fields
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


def _parse_float_list(text: str) -> tuple:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("expected at least one value")
    return values


def _parse_depth(text: str):
    return None if text.strip() == "auto" else int(text)


def _key(key: str, default, parse):
    """A config field set by the line ``key = text``, whose text ``parse`` reads."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class ExperimentConfig:
    """Sweep experiment settings; defaults reproduce the reference chirp setup."""

    signal_kind: str = _key("signal.kind", "chirp", str)
    signal_n: int = _key("signal.n", 1024, int)
    signal_path: str = _key("signal.path", "", str)
    kernel_std: float = _key("system.kernel_std", 15.0, float)
    kernel_support: int = _key("system.kernel_support", 15, int)
    subsample_factor: int = _key("system.subsample_factor", 4, int)
    noise_std: float = _key("system.noise_std", 1e-3, float)
    seed: int = _key("system.seed", 1234, int)
    codec_depth: int | None = _key("codec.depth", None, _parse_depth)
    codec_q_bits: int = _key("codec.q_bits", 8, int)
    admm_beta_tilde: float = _key("admm.beta_tilde", AdmmConfig.beta_tilde, float)
    admm_max_iters: int = _key("admm.max_iters", AdmmConfig.max_iters, int)
    admm_tol: float = _key("admm.tol", AdmmConfig.tol, float)
    sweep_params: tuple = _key(
        "sweep.param_values", (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2), _parse_float_list
    )
    output_dir: str = _key("output_dir", "out", str)


@dataclass
class TheoryConfig:
    n: int = _key("theory.n", 64, int)
    lambda_x: str = _key("theory.lambda_x", "constant:1.0", str)
    a_response: str = _key("theory.a_response", "ones", str)
    b_response: str = _key("theory.b_response", "ones", str)
    d_grid: tuple = _key(
        "theory.d_grid", (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0), _parse_float_list
    )
    output_dir: str = _key("output_dir", "out", str)


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


def load_config(cls, path):
    """A ``cls`` config read from the file at ``path``: each line sets the field
    whose metadata names its key, through that field's parser."""
    schema = {f.metadata["key"]: f for f in fields(cls)}
    cfg = cls()
    for key, (value, lineno) in read_key_values(path).items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", path=path, line=lineno, field=key)
        try:
            setattr(cfg, schema[key].name, schema[key].metadata["parse"](value))
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r}: {exc}", path=path, line=lineno, field=key) from exc
    return cfg


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
            if x.size < 2:
                raise ValueError("n must be >= 2")
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
        w = system_sim.acquire(x, system)
        codec = TreeCodecPlug(depth=cfg.codec_depth, q_bits=cfg.codec_q_bits)
        admm_cfg = AdmmConfig(
            beta_tilde=cfg.admm_beta_tilde, max_iters=cfg.admm_max_iters, tol=cfg.admm_tol
        )

        stage = "sweep (regular)"
        regular = system_sim.sweep(x, w, system, codec, cfg.sweep_params, "regular")
        stage = "sweep (proposed)"
        proposed = system_sim.sweep(x, w, system, codec, cfg.sweep_params, "proposed", admm_cfg)

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
        emit("acquired.txt", w)
        for points in (regular, proposed):
            for i, point in enumerate(points):
                emit(f"{point.method}_{i:02d}.bin", point.blob)
                emit(f"recon_{point.method}_{i:02d}.txt", point.recon)
        _write_manifest(out_dir, cfg, cfg.seed, outputs)
    except Exception as exc:
        raise RuntimeError(f"stage '{stage}' failed: {exc}") from exc


def _folded_bins(n: int) -> np.ndarray:
    """Distance of each DFT bin from DC, min(k, n - k)."""
    k = np.arange(n)
    return np.minimum(k, n - k, out=k)


def _read_values(path: str, parse, n: int, field: str) -> np.ndarray:
    """The n non-blank lines of a value file, each parsed by ``parse`` (float or complex)."""
    values = system_sim.load_signal(path, parse)
    if values.size != n:
        raise ValueError(f"{field}: file has {values.size} values, expected {n}")
    return values


def _parse_response(spec: str, folded: np.ndarray, field: str) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "ones":
        return np.ones(folded.size)
    if kind == "zeros":
        return np.zeros(folded.size)
    if kind == "file":
        return _read_values(arg, complex, folded.size, field)
    try:
        if kind == "lowpass":
            return (folded <= int(arg)).astype(float)
    except ValueError as exc:
        raise ValueError(f"{field}: bad response spec {spec!r}: {exc}") from None
    raise ValueError(f"{field}: unknown response spec {spec!r}")


def _parse_spectrum(spec: str, folded: np.ndarray) -> np.ndarray:
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return _read_values(arg, float, folded.size, "lambda_x")
    try:
        if kind == "constant":
            return np.full(folded.size, float(arg))
        if kind == "powerlaw":
            amp, _, exponent = arg.partition(",")
            return float(amp) * (1.0 + folded) ** -float(exponent)
    except ValueError as exc:
        raise ValueError(f"lambda_x: bad spectrum spec {spec!r}: {exc}") from None
    raise ValueError(f"lambda_x: unknown spectrum spec {spec!r}")


def cmd_theory_curve(cfg: TheoryConfig, out_dir: Path) -> None:
    stage = "model setup"
    try:
        folded = _folded_bins(cfg.n)
        model = SpectralModel(
            n=cfg.n,
            lambda_x=_parse_spectrum(cfg.lambda_x, folded),
            a_f=_parse_response(cfg.a_response, folded, "a_response"),
            b_f=_parse_response(cfg.b_response, folded, "b_response"),
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
            cfg = load_config(ExperimentConfig, args.config) if args.config else ExperimentConfig()
            if args.seed is not None:
                cfg.seed = args.seed
            out_dir = args.out if args.out is not None else Path(cfg.output_dir)
            cmd_run_experiment(cfg, out_dir)
        elif args.command == "theory":
            cfg = load_config(TheoryConfig, args.config) if args.config else TheoryConfig()
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
