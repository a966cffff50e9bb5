"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from sysaware import admm, cli, tree_codec
from sysaware.admm import AdmmConfig, ZUpdateTerms, solve_regularized
from sysaware.gauss_theory import SpectralModel, expected_min_distortion, water_fill
from sysaware.system_sim import (
    SystemModel,
    acquire,
    kernel_spectrum,
    make_blur_subsample_system,
    make_chirp,
    sweep,
)
from sysaware.tree_codec import TreeCodecPlug

from oracles import (
    CirculantSpectral,
    Compose,
    cg_regularized_solve,
    circulant_symbol,
    ideal_distortion_check,
    project_range,
    pseudoinverse_apply,
)


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"acceptance criterion {num} ({name}) failed{detail}"


def test_1_chirp_dominance():
    # N=1024, Gaussian kernel std 15 / support 15, subsample by 4,
    # noise_std 0.001, 8-bit leaves, ADMM capped at 40 iterations.
    start = time.monotonic()
    defaults = cli.ExperimentConfig()
    x = make_chirp(defaults.signal_n)
    system = make_blur_subsample_system(seed=defaults.seed)
    w = acquire(x, system)
    codec = TreeCodecPlug(q_bits=8)
    admm_cfg = AdmmConfig(beta_tilde=defaults.admm_beta_tilde, max_iters=40, tol=defaults.admm_tol)
    regular = sweep(x, w, system, codec, defaults.sweep_params, "regular")
    proposed = sweep(x, w, system, codec, defaults.sweep_params, "proposed", admm_cfg)
    elapsed = time.monotonic() - start

    margins = []
    for r in regular:
        if r.rate_bpp < 1.5:
            continue
        best = max((p.psnr_db for p in proposed if p.rate_bpp <= r.rate_bpp), default=-np.inf)
        margins.append(best - r.psnr_db)
    ok = bool(margins) and all(m >= 0.5 for m in margins) and elapsed < 60.0
    report(
        1,
        "chirp dominance",
        ok,
        f" (worst margin {min(margins):+.3f} dB over {len(margins)} points, {elapsed:.1f} s)",
    )


def test_2_identity_reduction():
    start = time.monotonic()
    w = make_chirp(256)
    codec = TreeCodecPlug(q_bits=8)
    theta = 1e-3
    system = SystemModel(256, [1.0], 1, 0.0, 0)
    blob, trace, _ = admm.run(w, system.symbol, codec, theta, AdmmConfig(max_iters=1))
    ok = blob == codec.compress(w, theta) and len(trace) == 1
    report(2, "identity reduction", ok, f" ({time.monotonic() - start:.2f} s)")


def test_3_tree_codec_global_optimality():
    start = time.monotonic()

    def all_partitions(level, start_i, stop_i, depth_left):
        yield ((level, start_i, stop_i),)
        if depth_left == 0:
            return
        mid = (start_i + stop_i) // 2
        for left in all_partitions(level + 1, start_i, mid, depth_left - 1):
            for right in all_partitions(level + 1, mid, stop_i, depth_left - 1):
                yield left + right

    partitions = list(all_partitions(0, 0, 16, 4))
    assert len(partitions) == 677

    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(50):
        w = rng.uniform(size=16)
        # one cost table per signal; both routes sum the same entries
        sse = {}
        for level in range(5):
            width = 16 >> level
            for i in range(1 << level):
                seg = w[i * width : (i + 1) * width]
                index = int(np.floor(np.clip(seg.mean(), 0.0, 1.0) * 255 + 0.5))
                sse[(level, i * width)] = float(((seg - index / 255) ** 2).sum())
        for nu in (0.0, 1e-4, 1e-3, 1e-2, 1.0):
            leaf_price = nu * 8

            def cost(partition):
                return sum(sse[(lv, s)] + leaf_price for lv, s, _ in partition)

            stream = tree_codec.encode(w, nu=nu, d=4, q_bits=8)
            widths = 16 >> stream.leaf_levels
            stops = np.cumsum(widths)
            leaves = zip(stream.leaf_levels.tolist(), (stops - widths).tolist(), stops.tolist())
            chosen = cost(tuple(leaves))
            ok &= chosen == min(cost(p) for p in partitions)
    report(3, "tree codec global optimality", ok, f" ({time.monotonic() - start:.1f} s)")


def test_4_water_filling_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(4242)
    ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 65))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        a[rng.random(n) < 0.25] = 0.0
        b[rng.random(n) < 0.25] = 0.0
        model = SpectralModel(n=n, lambda_x=rng.uniform(0.0, 3.0, size=n), a_f=a, b_f=b)
        weighted = model.gain * model.lambda_w_tilde
        saturation = float(weighted[model.k_ab].sum())
        if saturation == 0.0:
            continue
        total_d = float(rng.uniform(0.05, 0.95)) * saturation / n
        alloc = water_fill(model, total_d)
        target = n * total_d
        ok &= abs(alloc.total_distortion - target) <= 1e-9 * target
        for k in range(n):
            if alloc.r_k[k] > 0.0:
                ok &= abs(alloc.d_k[k] * model.gain[k] - alloc.theta) <= 1e-12 * max(
                    alloc.theta, 1.0
                )
            else:
                ok &= abs(alloc.d_k[k] - (model.lambda_w_tilde[k] if model.k_ab[k] else 0.0)) == 0.0
        checked += 1

    # identity system against a classical bisection oracle, per bin
    for _ in range(10):
        n = int(rng.integers(2, 65))
        lam = rng.uniform(0.0, 2.0, size=n)
        model = SpectralModel(n=n, lambda_x=lam, a_f=np.ones(n), b_f=np.ones(n))
        total_d = float(rng.uniform(0.1, 0.9)) * float(lam.sum()) / n
        lo, hi = 0.0, float(lam.max())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(np.minimum(mid, lam).sum()) < n * total_d:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        alloc = water_fill(model, total_d)
        ok &= bool(np.all(np.abs(alloc.d_k - np.minimum(theta, lam)) <= 1e-10))
    report(4, "water-filling correctness", ok, f" ({time.monotonic() - start:.1f} s)")


def test_5_distortion_floor_formula():
    start = time.monotonic()
    hand = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=[1, 0, 0, 1])
    full_rank = SpectralModel(n=4, lambda_x=[4.0, 3, 2, 1], a_f=[1, 1, 0, 1], b_f=np.ones(4))
    ok = expected_min_distortion(hand) == 0.75 and expected_min_distortion(full_rank) == 0.0
    report(5, "distortion floor formula", ok, f" ({time.monotonic() - start:.2f} s)")


def test_6_z_update_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(66)
    ok = True
    for n in (8, 16):
        f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        for _ in range(25):
            a = CirculantSpectral(kernel_spectrum(n, rng.normal(size=4)))
            b = CirculantSpectral(kernel_spectrum(n, rng.normal(size=3)))
            w = rng.normal(size=n)
            v = rng.normal(size=n)
            beta = float(rng.uniform(0.1, 2.0))
            ad = (f.conj().T @ np.diag(a.freq_response) @ f / n).real
            bd = (f.conj().T @ np.diag(b.freq_response) @ f / n).real
            dense = np.linalg.solve(
                bd.T @ ad.T @ ad @ bd + beta * np.eye(n), bd.T @ ad.T @ w + beta * v
            )
            z_dft = solve_regularized(ZUpdateTerms(circulant_symbol(Compose([b, a])), w, beta), v)
            z_cg = cg_regularized_solve(ad, bd, w, v, beta)
            scale = float(np.linalg.norm(dense))
            ok &= float(np.linalg.norm(z_dft - dense)) <= 1e-10 * scale
            ok &= float(np.linalg.norm(z_cg - dense)) <= 1e-10 * scale
            ok &= float(np.linalg.norm(z_cg - z_dft)) <= 1e-10 * scale
    report(6, "z-update equivalence", ok, f" ({time.monotonic() - start:.1f} s)")


def test_7_range_decomposition_identity():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 33))
        h = kernel_spectrum(n, rng.normal(size=int(rng.integers(1, n + 1))))
        zeros = rng.random(n) < 0.3
        zeros &= zeros[(-np.arange(n)) % n]  # keep the response conjugate-symmetric
        h[zeros] = 0.0
        op = CirculantSpectral(h)
        w = rng.normal(size=n)
        v = rng.normal(size=n)
        lhs = float(np.sum((w - op.apply(v)) ** 2))
        out_of_range = w - project_range(op, w)
        in_range = op.apply(pseudoinverse_apply(op, w) - v)
        rhs = float(np.sum(out_of_range**2) + np.sum(in_range**2))
        ok &= abs(lhs - rhs) <= 1e-10 * max(lhs, rhs, 1e-12)
    report(7, "range decomposition identity", ok, f" ({time.monotonic() - start:.1f} s)")


def test_8_noise_concentration():
    start = time.monotonic()
    x = make_chirp(4096)
    ok = True
    for seed in range(10):
        system = SystemModel(4096, [1.0], 1, 1e-3, seed)
        d_s = ideal_distortion_check(x, system)
        ok &= abs(d_s - 1e-6) <= 0.1 * 1e-6
    report(8, "noise concentration", ok, f" ({time.monotonic() - start:.2f} s)")


def test_9_cli_determinism(tmp_path):
    start = time.monotonic()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    ok = cli.main(["run", "--out", str(out1)]) == 0
    ok &= cli.main(["run", "--out", str(out2)]) == 0
    if ok:
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        ok &= names1 == names2
        ok &= all((out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names1)
        methods = {
            line.split(",")[0]
            for line in (out1 / "rd_curve.csv").read_text().strip().split("\n")[1:]
        }
        ok &= methods == {"regular", "proposed"}
        ok &= json.loads((out1 / "manifest.json").read_text())["outputs"] != {}
    report(9, "cli determinism", bool(ok), f" ({time.monotonic() - start:.1f} s)")


def test_acceptance_summary_banner(capsys):
    # placed last so -v output groups the nine verdict lines above this point
    print("acceptance criteria evaluated: 9")
