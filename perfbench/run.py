"""sysaware benchmark: one closed-loop workload per run, timed from outside.

    python3 perfbench/run.py --workload chirp_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/sysaware`` is imported from
there; nothing is installed or built). ``--trace 0`` times untraced ops and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
ops on the same inputs and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit, as listed in ``BENCHMARK.json``).
Everything else the run saw (context, sample counts, failures, the layer
attribution) is printed above it and kept in ``.perfbench/runs/``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy loads: the machine this
# benchmark targets has 2 cores and each workload is a single caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from tracer import Tracer, attribution, layer_values, patched  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_REPEATS = 7
# quality figures, deterministic per input, are those of the run's first
# input, which every run reaches: for chirp_sweep, noise seed == workload seed
FIRST_INPUT_METRICS = ("system_sim.worst_margin_db", "tree_codec.ladder_cost")
PROBE_TIMEOUT_S = 60
# The shared host's speed drifts by tens of percent between runs. Every time
# is therefore scaled by REF_NOMINAL_S / (time of a fixed reference loop, the
# mean of its runs just before and just after): it reads as seconds on a host
# running the reference at its nominal speed, and the drift common to both
# cancels.
REF_NOMINAL_S = 0.0045
REF_REPEATS = 3
_REF_SMALL = np.linspace(0.0, 1.0, 1024)
_REF_KERNEL = np.fft.fft(np.exp(-np.arange(1024) / 15.0))
_REF_LARGE = np.linspace(0.0, 1.0, 1 << 16)


def _reference_loop() -> None:
    """Fixed work that never touches sysaware, one piece per kind of work
    the workloads do."""
    # small-array numpy calls, as in the conjugate-gradient z-solve
    p = r = _REF_SMALL
    for _ in range(40):
        ap = np.fft.ifft(np.fft.fft(np.repeat(p[::4], 4)) * _REF_KERNEL).real + 0.25 * p
        r = r - 1e-3 * float(r @ r) / float(p @ ap) * ap
        p = r + 0.5 * p
    # a Python bit-packing loop, as in the codec's bitstream code
    bits = [(i * 2654435761 >> 7) & 1 for i in range(6000)]
    packed = bytearray((len(bits) + 7) // 8)
    for pos, bit in enumerate(bits):
        if bit:
            packed[pos // 8] |= 1 << (7 - pos % 8)
    # large-array numpy reductions, as in the water-filling bisection
    for _ in range(6):
        float(np.minimum(0.5, _REF_LARGE)[_REF_LARGE > 0.1].sum())


def reference_seconds() -> float:
    """Median wall time of REF_REPEATS reference loops, taken now."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh interpreter, then exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def per_input_p50(samples: dict) -> float:
    """Median of each input's samples, averaged over the inputs.

    Inputs differ in how much work they make (at the default chirp config,
    71 or 101 ADMM iterations by noise seed), so a median over the mixed ops
    would jump between clusters; this is set by the run's input mix instead.
    """
    return statistics.fmean(statistics.median(v) for v in samples.values())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond
    it; the maximum when there are too few samples for that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def read_first_line(path: str, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git directly (None outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "cache": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
    }


def setup_probes(args) -> list[tuple[float, float]]:
    """(wall time, reference time) of whole set-ups, each in a fresh
    interpreter: start-up, imports, input generation and one checked warm-up
    op. The reference loop runs in this process between the set-ups."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        ref_after = reference_seconds()
        times.append((wall, (ref + ref_after) / 2))
        ref = ref_after
    return times


class Runner:
    """Closed loop over one workload's inputs, counting failures from outside."""

    def __init__(self, workload, work_dir: Path, reference=reference_seconds):
        self.workload = workload
        self.work_dir = work_dir
        self.reference = reference
        self.errors: list[str] = []
        self.digests: dict = {}
        self.first_values: dict = {}
        self._reset()

    def _reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_seconds = {False: defaultdict(list), True: defaultdict(list)}
        self.wall_seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self.values: dict = defaultdict(lambda: defaultdict(list))
        self.attribution: dict = defaultdict(float)

    def warm_up(self) -> bool:
        """One op on the first input: fills caches, finishes lazy set-up and
        records the reference digest. Its measurements are dropped."""
        self.op(0, traced=False, ref=self.reference())
        ok = self.failed == 0
        self._reset()
        return ok

    def op(self, index: int, traced: bool, ref: float) -> float:
        """Run, time and check one op; ``ref`` is the reference time taken
        just before it. Returns the reference time taken just after it."""
        wl = self.workload
        inp = wl.inputs[index]
        out = self.work_dir / f"op{self.attempted}"
        self.attempted += 1
        tracer = Tracer()
        ref_after = None
        try:
            if traced:
                with patched(tracer), tracer.span(wl.root_span):
                    result = wl.op(inp, out)
                seconds = tracer.spans[0].seconds
            else:
                start = time.perf_counter()
                result = wl.op(inp, out)
                seconds = time.perf_counter() - start
            ref_after = self.reference()
            digest, values = wl.check(inp, result)
            first = self.digests.setdefault(index, digest)
            if digest != first:
                raise CheckFailed(f"output of input {inp!r} differs from its first op "
                                  f"({'traced' if traced else 'untraced'} op)")
        except Exception:  # any failure of the program is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            return ref_after or self.reference()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        ref = (ref + ref_after) / 2
        scale = REF_NOMINAL_S / ref
        self.op_seconds[traced][index].append(seconds * scale)
        if not traced:
            self.wall_seconds.append(seconds)
            self.ref_seconds.append(ref)
        if index == 0:
            self.first_values = {k: v for k, v in values.items() if k in FIRST_INPUT_METRICS}
        if traced:
            values = {**values, **scaled(layer_values(tracer.spans), scale)}
            for layer, s in attribution(tracer.spans).items():
                self.attribution[layer] += s * scale
        for name, value in values.items():
            self.values[name][index].append(value)
        return ref_after

    def loop(self, seconds: float, trace: bool) -> None:
        """Cycle through the inputs until ``seconds`` have passed; with
        ``trace``, each input runs untraced and then traced."""
        deadline = time.perf_counter() + seconds
        ref = self.reference()
        i = 0
        while time.perf_counter() < deadline:
            index = i % len(self.workload.inputs)
            ref = self.op(index, traced=False, ref=ref)
            if trace:
                ref = self.op(index, traced=True, ref=ref)
            i += 1


def scaled(values: dict, scale: float) -> dict:
    """Host-speed scaling of one op's layer values: times (``_s``) and rates
    (``_msps``) move, counts and sizes do not."""
    out = {}
    for name, value in values.items():
        if name.endswith("_s"):
            value *= scale
        elif name.endswith("_msps"):
            value /= scale
        out[name] = value
    return out


def end_to_end(runner: Runner, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    ops = runner.op_seconds[False]
    all_ops = [s for v in ops.values() for s in v]
    tail_s, pct = tail(all_ops)
    metrics = {
        "setup_s": statistics.median(wall * REF_NOMINAL_S / ref for wall, ref in setups),
        "op_p50_s": per_input_p50(ops),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    samples = {
        "setup_s": {"set_ups": len(setups)},
        "op_p50_s": {"ops": len(all_ops), "inputs": len(ops)},
        "op_tail_s": {"ops": len(all_ops), "percentile": pct},
        "peak_rss_mb": {"processes": 1},
        "unscaled": {
            "setup_wall_s": statistics.median(wall for wall, _ in setups),
            "op_wall_p50_s": statistics.median(runner.wall_seconds),
            "reference_p50_s": statistics.median(runner.ref_seconds),
            "reference_nominal_s": REF_NOMINAL_S,
        },
    }
    return metrics, samples


def per_layer(runner: Runner, names: list[str]) -> tuple[dict, dict]:
    wl = runner.workload
    traced, untraced = runner.op_seconds[True], runner.op_seconds[False]
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = per_input_p50(traced) - per_input_p50(untraced)
        elif name in runner.first_values:
            metrics[name] = runner.first_values[name]
        elif name in runner.values:
            metrics[name] = per_input_p50(runner.values[name])
        else:
            metrics[name] = 0.0  # a layer this workload never reaches
    n_traced = sum(len(v) for v in traced.values())
    samples = {"traced_ops": n_traced, "untraced_ops": sum(len(v) for v in untraced.values()),
               "inputs": len(traced), "workload_inputs": len(wl.inputs)}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # a set-up probe times only the program: it skips the reference loop
    reference = (lambda: REF_NOMINAL_S) if args.setup_probe else reference_seconds
    reference()  # the first calls pay for FFT plans and caches
    setups = [] if args.trace or args.setup_probe else setup_probes(args)
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload](args.seed), work_dir, reference)
        if not runner.warm_up():
            print(f"error: warm-up op failed:\n{runner.errors[0]}", file=sys.stderr)
            return 1
        if args.setup_probe:
            return 0
        runner.loop(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        values, samples = per_layer(runner, list(units))
    else:
        values, samples = end_to_end(runner, setups)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    context = run_context(args, np.__version__)
    correct = runner.failed == 0 and runner.attempted > 0
    record = {
        "context": context,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": runner.failed / max(runner.attempted, 1),
        "errors": runner.errors,
        "samples": samples,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "attribution_s": dict(runner.attribution),
    }
    print_report(record, bench[kind])
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def print_report(record: dict, specs: list[dict]) -> None:
    ctx = record["context"]
    print(f"perfbench {ctx['workload']} seed={ctx['seed']} seconds={ctx['seconds']} "
          f"trace={ctx['trace']}")
    print(f"context: nproc={ctx['nproc']} affinity={ctx['affinity']} cpu={ctx['cpu_model']!r} "
          f"cache={ctx['cache']} python={ctx['python']} numpy={ctx['numpy']} "
          f"commit={ctx['commit']}")
    print(f"ops: attempted={record['attempted']} failed={record['failed']} "
          f"failed_share={record['failed_share']:.4f} samples={record['samples']}")
    for error in record["errors"]:
        print(f"  failure: {error.strip().splitlines()[-1]}")
    for spec in specs:
        metric = record["metrics"][spec["name"]]
        print(f"  {spec['name']:<30} {metric['value']:>14.6g} {metric['unit']:<12} "
              f"({spec['better']} is better)")
    total = sum(record["attribution_s"].values())
    if total:
        shares = ", ".join(f"{layer} {100 * s / total:.1f}%"
                           for layer, s in sorted(record["attribution_s"].items(), key=lambda x: -x[1]))
        print(f"traced op time by layer (self time): {shares}")


if __name__ == "__main__":
    sys.exit(main())
