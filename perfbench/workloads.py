"""The three benchmark workloads: inputs made from a seed, one op, its check.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns. ``inputs`` is the fixed list the loop cycles through;
the program under test sees only these generated values. ``op`` is the timed
call into sysaware; ``check`` runs after it, untimed, and returns a digest of
the op's output (equal digests are required for every op on one input, traced
or not) and the per-op values the report needs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from sysaware import cli
from sysaware.tree_codec import TreeCodecPlug


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _distinct_seeds(rng: np.random.Generator, first: int, count: int) -> list[int]:
    seeds = [first]
    while len(seeds) < count:
        candidate = int(rng.integers(0, 2**31 - 1))
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


def _check_manifest(out: Path) -> bytes:
    """The manifest must list every output with its true SHA-256."""
    manifest = (out / "manifest.json").read_bytes()
    outputs = json.loads(manifest)["outputs"]
    if not outputs:
        raise CheckFailed("manifest.json lists no outputs")
    for name, digest in outputs.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            raise CheckFailed(f"manifest hash of {name} does not match the file")
    return manifest


class ChirpSweep:
    """``sysaware run`` with the default config, one noise seed per op.

    The noise seed sets the ADMM iteration total (71 or 101 at the default
    config, about half the seeds each), so a run cycles through many noise
    seeds: the run's mix, not one seed's luck, sets the op time.
    """

    name = "chirp_sweep"
    root_span = "cli.cmd_run_experiment"
    n_inputs = 32

    def __init__(self, seed: int):
        # the workload seed is itself the first noise seed, so --seed 1234
        # reproduces the acceptance-1 margin of the default config
        self.inputs = _distinct_seeds(np.random.default_rng(seed), seed, self.n_inputs)
        self.n_params = len(cli.ExperimentConfig().sweep_params)

    def op(self, noise_seed: int, out: Path) -> Path:
        cli.cmd_run_experiment(cli.ExperimentConfig(seed=noise_seed), out)
        return out

    def check(self, noise_seed: int, out: Path) -> tuple[str, dict]:
        manifest = _check_manifest(out)
        rows = list(csv.DictReader(io.StringIO((out / "rd_curve.csv").read_text())))
        points = {"regular": [], "proposed": []}
        for row in rows:
            points[row["method"]].append((float(row["rate_bpp"]), float(row["psnr_db"])))
        for method, got in points.items():
            # sweep logs and drops a failing point, so a short list is a failure
            if len(got) != self.n_params:
                raise CheckFailed(f"{method} sweep returned {len(got)} of {self.n_params} points")
        # acceptance 1: each regular point at >= 1.5 bpp is beaten by >= 0.5 dB
        # by a proposed point at equal or lower rate
        margins = [
            max((p for r, p in points["proposed"] if r <= rate), default=-np.inf) - psnr
            for rate, psnr in points["regular"]
            if rate >= 1.5
        ]
        if not margins or min(margins) < 0.5:
            raise CheckFailed(f"acceptance-1 margins {margins} at noise seed {noise_seed}")
        values = {"system_sim.worst_margin_db": min(margins), "cli.bytes_written": _bytes_in(out)}
        return hashlib.sha256(manifest).hexdigest(), values


def piecewise_smooth(rng: np.random.Generator, m: int, n_segments: int = 48) -> np.ndarray:
    """Ramps plus a slow sinusoid per segment and white noise, clipped to [0, 1]."""
    cuts = np.sort(rng.choice(np.arange(1, m), n_segments - 1, replace=False))
    edges = np.concatenate(([0], cuts, [m]))
    x = np.empty(m)
    for start, stop in zip(edges[:-1], edges[1:]):
        t = np.linspace(0.0, 1.0, stop - start)
        lo, hi = rng.uniform(0.1, 0.9, 2)
        wiggle = rng.uniform(0.0, 0.1) * np.sin(2 * np.pi * rng.uniform(0.5, 4.0) * t)
        x[start:stop] = lo + (hi - lo) * t + wiggle
    return np.clip(x + rng.normal(0.0, 0.01, m), 0.0, 1.0)


def optimal_cost(w: np.ndarray, nu: float, q_bits: int) -> float:
    """Least ||w - v||^2 + nu * rate_bits over every pruned tree, by the same
    bottom-up recursion the codec claims to solve exactly."""
    m = w.size
    levels = (1 << q_bits) - 1
    best = None
    for level in range(m.bit_length() - 1, -1, -1):
        seg = w.reshape(1 << level, m >> level)
        recon = np.floor(np.clip(seg.mean(axis=1), 0.0, 1.0) * levels + 0.5) / levels
        leaf = ((seg - recon[:, None]) ** 2).sum(axis=1) + nu * q_bits
        best = leaf if best is None else np.minimum(leaf, best[0::2] + best[1::2])
    return float(best[0])


class CodecStream:
    """TreeCodecPlug round trips on large signals, bypassing linops and admm.

    One op takes one signal down the whole rate ladder, compress -> decompress
    -> rate_bits at each step, so every op does the same mix of high-rate
    (bit-loop bound) and low-rate (fixed-cost bound) calls.
    """

    name = "codec_stream"
    root_span = "perfbench.codec_round_trip"
    n_inputs = 8
    m = 1 << 16
    q_bits = 8
    # about 4.3 bpp down to about 0.03 bpp on these signals
    ladder = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.signals = [piecewise_smooth(rng, self.m) for _ in range(self.n_inputs)]
        self.inputs = list(range(self.n_inputs))
        self.codec = TreeCodecPlug(q_bits=self.q_bits)
        self._optimal: dict[int, list[float]] = {}

    def op(self, index: int, out: Path) -> list[tuple[bytes, np.ndarray, int]]:
        w, codec = self.signals[index], self.codec
        results = []
        for nu in self.ladder:
            blob = codec.compress(w, nu)
            results.append((blob, codec.decompress(blob), codec.rate_bits(blob)))
        return results

    def check(self, index: int, results) -> tuple[str, dict]:
        w = self.signals[index]
        if index not in self._optimal:
            self._optimal[index] = [optimal_cost(w, nu, self.q_bits) for nu in self.ladder]
        levels = (1 << self.q_bits) - 1
        digest = hashlib.sha256()
        total_cost = 0.0
        for nu, best, (blob, v, rate) in zip(self.ladder, self._optimal[index], results):
            v = np.asarray(v, dtype=float)
            if v.shape != (self.m,):
                raise CheckFailed(f"decoded shape {v.shape} at nu={nu}, expected ({self.m},)")
            grid = v * levels
            if v.min() < 0.0 or v.max() > 1.0 or np.abs(grid - np.round(grid)).max() > 1e-9:
                raise CheckFailed(f"decoded samples off the {self.q_bits}-bit grid at nu={nu}")
            if rate <= 0 or rate % self.q_bits:
                raise CheckFailed(f"rate_bits {rate} is not a positive multiple of {self.q_bits}")
            cost = float(((w - v) ** 2).sum()) + nu * rate
            if abs(cost - best) > 1e-9 * best:
                raise CheckFailed(f"Lagrangian cost {cost!r} above the optimum {best!r} at nu={nu}")
            total_cost += cost
            digest.update(blob)
        return digest.hexdigest(), {"tree_codec.ladder_cost": total_cost}


def _powerlaw(n: int, amp: float, exponent: float) -> np.ndarray:
    k = np.minimum(np.arange(n), n - np.arange(n))
    return amp * (1.0 + k) ** (-exponent)


class TheoryCurve:
    """``sysaware theory`` on a large spectrum with a nonzero distortion floor.

    The b cutoff sits below the a cutoff, so bins between them are measured
    but cannot be rendered; the D grid stays below saturation, so every
    budget runs the full water-filling bisection.
    """

    name = "theory_curve"
    root_span = "cli.cmd_theory_curve"
    n_inputs = 16
    n = 1 << 16
    grid_points = 10

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.configs = []
        self.floors = []
        for _ in range(self.n_inputs):
            amp = float(f"{rng.uniform(0.5, 2.0):.4g}")
            exponent = float(f"{rng.uniform(0.6, 1.4):.4g}")
            a_cut = int(rng.integers(self.n // 8, self.n // 4))
            b_cut = int(rng.integers(a_cut // 4, a_cut // 2))
            lam = _powerlaw(self.n, amp, exponent)
            k = np.minimum(np.arange(self.n), self.n - np.arange(self.n))
            saturation = float(lam[k <= b_cut].sum()) / self.n
            d_grid = tuple(
                float(f"{d:.6g}") for d in np.geomspace(1e-4 * saturation, 0.5 * saturation, self.grid_points)
            )
            self.configs.append(
                cli.TheoryConfig(
                    n=self.n,
                    lambda_x=f"powerlaw:{amp!r},{exponent!r}",
                    a_response=f"lowpass:{a_cut}",
                    b_response=f"lowpass:{b_cut}",
                    d_grid=d_grid,
                )
            )
            self.floors.append(float(lam[(k > b_cut) & (k <= a_cut)].sum()) / self.n)
        self.inputs = list(range(self.n_inputs))

    def op(self, index: int, out: Path) -> Path:
        cli.cmd_theory_curve(self.configs[index], out)
        return out

    def check(self, index: int, out: Path) -> tuple[str, dict]:
        manifest = _check_manifest(out)
        lines = (out / "theory_curve.csv").read_text().splitlines()
        head = "# e_d0 = "
        if not lines or not lines[0].startswith(head):
            raise CheckFailed("theory_curve.csv lacks the '# e_d0' floor line")
        floor = float(lines[0][len(head):])
        expected = self.floors[index]
        if not floor > 0 or abs(floor - expected) > 1e-9 * expected:
            raise CheckFailed(f"floor e_d0 {floor!r}, expected {expected!r}")
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        d = [float(r["D"]) for r in rows]
        rate = [float(r["rate_bits_per_sample"]) for r in rows]
        if d != sorted(self.configs[index].d_grid):
            raise CheckFailed("theory_curve.csv rows do not follow the D grid")
        if any(later > earlier for earlier, later in zip(rate, rate[1:])):
            raise CheckFailed("rate increases as D grows")
        if not all(r > 0 for r in rate):
            raise CheckFailed("zero rate below saturation")
        return hashlib.sha256(manifest).hexdigest(), {"cli.bytes_written": _bytes_in(out)}


WORKLOADS = {cls.name: cls for cls in (ChirpSweep, CodecStream, TheoryCurve)}
