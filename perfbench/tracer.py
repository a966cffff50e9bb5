"""Outside-in tracing: time calls into sysaware's public functions.

Each function is wrapped where its caller looks it up (a module attribute or
a class attribute) and only while a traced op runs. Operator objects are never
wrapped: ``linops.solve_regularized`` dispatches on ``isinstance``, and a
wrapped operator would make the traced run a different program.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from sysaware import admm, cli, gauss_theory, system_sim
from sysaware.tree_codec import TreeCodecPlug


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one op, kept in memory; ``spans[0]`` is the op itself."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as span ``name``; ``note(args, kwargs, result)`` fills
        the span's info after its end time is taken."""

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced


# taken before any wrapper is installed, whose signature is (*args, **kwargs)
_RUN_SIGNATURE = inspect.signature(admm.run)
_SWEEP_SIGNATURE = inspect.signature(system_sim.sweep)


def _note_admm_run(args, kwargs, result):
    cfg = _RUN_SIGNATURE.bind(*args, **kwargs).arguments["cfg"]
    trace = result[1]
    last = trace[-1]
    # with the cap moved past the last step, stopping_check applies only the
    # residual rule: did this point converge, whatever the cap did
    converged = admm.stopping_check(last, replace(cfg, max_iters=last.t + 1))
    return {
        "iterations": len(trace),
        "capped": len(trace) >= cfg.max_iters,
        "converged": bool(converged),
    }


def _note_sweep(args, kwargs, result):
    bound = _SWEEP_SIGNATURE.bind(*args, **kwargs).arguments
    return {"method": bound["method"], "dropped": len(bound["params"]) - len(result)}


def _patches():
    """(owner, attribute, span name, note) for every wrapped lookup site."""
    return [
        (admm, "solve_regularized", "linops.solve_regularized", None),
        (admm, "system_distortion_dc", "admm.system_distortion_dc", None),
        (system_sim.admm, "run", "admm.run", _note_admm_run),
        (cli.system_sim, "sweep", "system_sim.sweep", _note_sweep),
        (TreeCodecPlug, "compress", "tree_codec.compress",
         lambda a, k, r: {"samples": len(a[1]), "bytes": len(r)}),
        (TreeCodecPlug, "decompress", "tree_codec.decompress",
         lambda a, k, r: {"samples": len(r)}),
        (TreeCodecPlug, "rate_bits", "tree_codec.rate_bits", None),
        (gauss_theory, "water_fill", "gauss_theory.water_fill", None),
        (cli.gauss_theory, "curve_to_csv", "gauss_theory.curve_to_csv", None),
        (cli, "SpectralModel", "gauss_theory.SpectralModel", None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of one op, then restore."""
    originals = []
    try:
        for owner, attr, name, note in _patches():
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, covered)]


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced op (0 for layers the op never reached)."""
    own = self_seconds(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, own):
        total[span.name] += span.seconds
        self_total[span.name] += s
        calls[span.name] += 1
        for key, value in span.info.items():
            if key == "method":
                total[f"system_sim.sweep_{value}"] += span.seconds
            else:
                info[f"{span.name}.{key}"] += value

    root = spans[0]
    is_cli = root.name.startswith("cli.")
    children = ("system_sim.sweep", "gauss_theory.SpectralModel", "gauss_theory.curve_to_csv")
    compress_s = total["tree_codec.compress"]
    decode_s = total["tree_codec.decompress"] + total["tree_codec.rate_bits"]
    runs = calls["admm.run"]
    return {
        "linops.solve_s": total["linops.solve_regularized"],
        "linops.solve_calls": calls["linops.solve_regularized"],
        "admm.run_s": total["admm.run"],
        "admm.self_s": self_total["admm.run"],
        "admm.distortion_s": total["admm.system_distortion_dc"],
        "admm.iterations": info["admm.run.iterations"],
        "admm.capped_points": info["admm.run.capped"],
        "admm.converged_ratio": info["admm.run.converged"] / runs if runs else 0.0,
        "tree_codec.compress_s": compress_s,
        "tree_codec.decompress_s": total["tree_codec.decompress"],
        "tree_codec.rate_bits_s": total["tree_codec.rate_bits"],
        "tree_codec.compress_calls": calls["tree_codec.compress"],
        "tree_codec.decompress_calls": calls["tree_codec.decompress"],
        "tree_codec.rate_bits_calls": calls["tree_codec.rate_bits"],
        "tree_codec.bytes_out": info["tree_codec.compress.bytes"],
        "tree_codec.encode_msps":
            info["tree_codec.compress.samples"] / compress_s / 1e6 if compress_s else 0.0,
        "tree_codec.decode_msps":
            info["tree_codec.decompress.samples"] / decode_s / 1e6 if decode_s else 0.0,
        "system_sim.sweep_regular_s": total["system_sim.sweep_regular"],
        "system_sim.sweep_proposed_s": total["system_sim.sweep_proposed"],
        "system_sim.self_s": self_total["system_sim.sweep"],
        "system_sim.dropped_points": info["system_sim.sweep.dropped"],
        "cli.outputs_s": root.seconds - sum(total[c] for c in children) if is_cli else 0.0,
        "cli.self_s": own[0] if is_cli else 0.0,
        "gauss_theory.water_fill_s": total["gauss_theory.water_fill"],
        "gauss_theory.water_fill_calls": calls["gauss_theory.water_fill"],
        "gauss_theory.model_s": total["gauss_theory.SpectralModel"],
        "gauss_theory.curve_s": total["gauss_theory.curve_to_csv"],
    }


def attribution(spans: list[Span]) -> dict[str, float]:
    """Self time by layer (the span name up to its first dot); sums to the op."""
    shares: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_seconds(spans)):
        shares[span.name.split(".", 1)[0]] += s
    return dict(shares)
