"""CLI behavior: configs, exit codes, artifacts, determinism."""

import hashlib
import inspect
import json
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from sysaware import admm, cli, system_sim, tree_codec
from sysaware.system_sim import make_chirp, save_signal

from oracles import blur_subsample_system


def write_config(path, text):
    path.write_text(text)
    return str(path)


SMALL_RUN = """
# reduced chirp experiment for fast tests
signal.kind = chirp
signal.n = 256
system.subsample_factor = 4
system.noise_std = 0.001
system.seed = 77
sweep.param_values = 0.0001, 0.001, 0.01
"""


def run_cli(args):
    return cli.main([str(a) for a in args])


# ---------------------------------------------------------------- run cmd #


def test_run_small_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    csv_lines = (out / "rd_curve.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "method,param,rate_bpp,psnr_db,iterations,seed,stop_reason"
    methods = {line.split(",")[0] for line in csv_lines[1:]}
    assert methods == {"regular", "proposed"}
    for line in csv_lines[1:]:
        method, *_, stop_reason = line.split(",")
        if method == "regular":
            assert stop_reason == ""
        else:
            assert stop_reason in ("converged", "repeat", "stall", "max_iters")
    assert len(csv_lines) == 1 + 6
    assert (out / "source.txt").exists()
    assert (out / "acquired.txt").exists()
    for i in range(3):
        for method in ("regular", "proposed"):
            blob = (out / f"{method}_{i:02d}.bin").read_bytes()
            assert tree_codec.decode(blob).shape == (64,)
            recon = (out / f"recon_{method}_{i:02d}.txt").read_text().strip().split("\n")
            assert len(recon) == 256


def test_run_acquires_and_probes_once_and_passes_the_admm_settings(tmp_path, monkeypatch):
    acquired, cfgs = [], []
    acquire, run = system_sim.acquire, admm.run
    run_signature = inspect.signature(run)

    def counted_acquire(*args, **kwargs):
        acquired.append(args)
        return acquire(*args, **kwargs)

    def recorded_run(*args, **kwargs):
        arguments = run_signature.bind(*args, **kwargs).arguments
        cfgs.append(arguments["cfg"])
        assert arguments["symbol"] is acquired[0][1].symbol  # the one system's symbol
        return run(*args, **kwargs)

    monkeypatch.setattr(system_sim, "acquire", counted_acquire)
    monkeypatch.setattr(admm, "run", recorded_run)
    settings = "admm.beta_tilde = 0.5\nadmm.max_iters = 12\nadmm.tol = 0.01\n"
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN + settings)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert len(acquired) == 1
    assert cfgs == [admm.AdmmConfig(beta_tilde=0.5, max_iters=12, tol=0.01)] * 3


def test_run_recon_files_render_their_blobs(tmp_path):
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    system = blur_subsample_system(n=256, factor=4, seed=77)
    recons = sorted(out.glob("recon_*.txt"))
    assert len(recons) == 6
    for recon in recons:
        blob = (out / recon.name.removeprefix("recon_").replace(".txt", ".bin")).read_bytes()
        expected = tmp_path / "expected.txt"
        save_signal(expected, system_sim.render(tree_codec.decode(blob), system))
        assert recon.read_bytes() == expected.read_bytes()


def test_manifest_lists_every_output_with_hash(tmp_path):
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == files
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert manifest["seed"] == 77
    assert manifest["config"]["seed"] == "77"
    assert set(manifest["versions"]) == {"sysaware", "numpy", "python"}


def test_run_identity_system_rows_match(tmp_path):
    cfg = write_config(
        tmp_path / "exp.cfg",
        """
        signal.n = 64
        system.kernel_support = 1
        system.subsample_factor = 1
        system.noise_std = 0.0
        admm.max_iters = 1
        sweep.param_values = 0.0001, 0.001, 0.01
        """,
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    lines = (out / "rd_curve.csv").read_text().strip().split("\n")[1:]
    by_method = {"regular": {}, "proposed": {}}
    for line in lines:
        method, param, rest = line.split(",", 2)
        by_method[method][param] = rest.rsplit(",", 2)[0]  # rate and psnr
    assert by_method["regular"] == by_method["proposed"]
    for i in range(3):
        assert (out / f"regular_{i:02d}.bin").read_bytes() == (
            out / f"proposed_{i:02d}.bin"
        ).read_bytes()


def test_run_determinism_and_seed_override(tmp_path):
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(["run", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["run", "--config", cfg, "--out", out2]) == 0
    for name in ("rd_curve.csv", "manifest.json", "regular_00.bin", "acquired.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert run_cli(["run", "--config", cfg, "--out", out3, "--seed", "5"]) == 0
    assert (out1 / "rd_curve.csv").read_text() != (out3 / "rd_curve.csv").read_text()
    manifest = json.loads((out3 / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_run_stage_failure_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "exp.cfg",
        "signal.n = 102\nsystem.subsample_factor = 4\n",
    )
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "system setup" in err


def test_run_unknown_signal_kind_exits_1_in_signal(tmp_path, capsys):
    body = SMALL_RUN.replace("signal.kind = chirp", "signal.kind = sawtooth")
    cfg = write_config(tmp_path / "exp.cfg", body)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "stage 'signal' failed" in err and "unknown signal kind 'sawtooth'" in err
    assert not out.exists()


def test_run_non_finite_noise_exits_1(tmp_path, capsys):
    body = SMALL_RUN.replace("system.noise_std = 0.001", "system.noise_std = nan")
    cfg = write_config(tmp_path / "exp.cfg", body)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "stage 'system setup' failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "system.kernel_std = 0",
        "system.kernel_std = nan",
        "admm.beta_tilde = inf",
        "codec.q_bits = 0",
        "codec.depth = 0",
    ],
    ids=["kernel_std-0", "kernel_std-nan", "beta_tilde-inf", "q_bits-0", "depth-0"],
)
# as in a user's run, where a numpy warning does not stop the program: the
# parameter must be rejected by a check, not by a warning turned into an error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_bad_system_or_admm_parameter_exits_1_in_system_setup(tmp_path, capsys, line):
    cfg = write_config(tmp_path / "exp.cfg", SMALL_RUN + line + "\n")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "stage 'system setup' failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["config", "flag"])
def test_run_negative_seed_exits_1_in_system_setup_naming_rng_seed(tmp_path, capsys, route):
    body = SMALL_RUN.replace("system.seed = 77", "system.seed = -1") if route == "config" else SMALL_RUN
    cfg = write_config(tmp_path / "exp.cfg", body)
    flag = ["--seed", "-1"] if route == "flag" else []
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out, *flag]) == 1
    err = capsys.readouterr().err
    assert "stage 'system setup' failed: rng_seed must be a non-negative integer, got -1" in err
    assert not out.exists()


def test_run_zero_subsample_factor_names_the_factor_rule(tmp_path, capsys):
    body = SMALL_RUN.replace("system.subsample_factor = 4", "system.subsample_factor = 0")
    cfg = write_config(tmp_path / "exp.cfg", body)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "stage 'system setup' failed" in err
    assert "subsampling factor must be >= 1, got 0" in err


# seeds 11, 28, 32 and 34 once returned a theta = 3e-2 point dominated by 0.0005 dB
@pytest.mark.parametrize("seed", [1234, *range(40)])
def test_default_run_has_no_proposed_point_dominated_by_a_regular_one(tmp_path, seed):
    out = tmp_path / "out"
    assert run_cli(["run", "--seed", seed, "--out", out]) == 0
    rows = [line.split(",") for line in (out / "rd_curve.csv").read_text().strip().split("\n")[1:]]
    curve = {"regular": [], "proposed": []}
    for method, _, rate, psnr_db, _, _, _ in rows:
        curve[method].append((float(rate), float(psnr_db)))
    assert len(curve["regular"]) == len(curve["proposed"]) == 8
    for p in curve["proposed"]:
        # dominated: a regular point with no more rate and no less PSNR, not equal on both
        assert not [r for r in curve["regular"] if r[0] <= p[0] and r[1] >= p[1] and r != p], p


def test_run_failed_sweep_point_exits_1(tmp_path, capsys, monkeypatch):
    class Picky(tree_codec.TreeCodecPlug):
        def compress(self, signal, theta):
            if theta == 666.0:
                raise RuntimeError("unsupported setting")
            return super().compress(signal, theta)

    monkeypatch.setattr(cli, "TreeCodecPlug", Picky)
    small = SMALL_RUN.replace("0.0001, 0.001, 0.01", "0.001, 666")
    cfg = write_config(tmp_path / "exp.cfg", small)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "sweep (regular)" in err
    assert "param=666.0" in err


def test_run_with_an_infinite_sweep_parameter_exits_1_naming_nu(tmp_path, capsys):
    body = SMALL_RUN.replace("sweep.param_values = 0.0001, 0.001, 0.01", "sweep.param_values = 1e-3, inf")
    cfg = write_config(tmp_path / "exp.cfg", body)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "stage 'sweep (regular)' failed" in err
    assert "nu * q_bits must be finite, got nu=inf" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "0.5\n"], ids=["empty", "one-sample"])
def test_run_signal_file_shorter_than_two_samples_exits_1_in_signal(tmp_path, capsys, text):
    (tmp_path / "sig.txt").write_text(text)
    cfg = write_config(
        tmp_path / "exp.cfg",
        f"signal.kind = file\nsignal.path = {tmp_path / 'sig.txt'}\nsystem.subsample_factor = 1\n",
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "stage 'signal' failed: n must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
def test_run_signal_file_with_non_finite_sample_exits_1_in_signal(tmp_path, capsys, sample):
    (tmp_path / "sig.txt").write_text(f"0.5\n{sample}\n0.25\n-0.5\n")
    cfg = write_config(
        tmp_path / "exp.cfg",
        f"signal.kind = file\nsignal.path = {tmp_path / 'sig.txt'}\nsystem.subsample_factor = 1\n",
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 1
    assert "stage 'signal' failed: signal contains non-finite samples" in capsys.readouterr().err
    assert not out.exists()


def test_run_signal_from_file(tmp_path):
    x = make_chirp(128)
    save_signal(tmp_path / "sig.txt", x)
    cfg = write_config(
        tmp_path / "exp.cfg",
        f"""
        signal.kind = file
        signal.path = {tmp_path / 'sig.txt'}
        system.subsample_factor = 4
        sweep.param_values = 0.001
        """,
    )
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert (out / "source.txt").read_text() == (tmp_path / "sig.txt").read_text()


# ----------------------------------------------------------- config errors #


CONFIG_ERRORS = [
    ("run", "signal.m = 7\n", "signal.m"),  # unknown key
    ("run", "signal.n = seven\n", "line 1"),  # bad value
    ("run", "signal.n = 8\nsignal.n = 16\n", "duplicate"),
    ("run", "signal.n 8\n", "key = value"),  # missing equals
    ("run", "sweep.param_values =\n", "sweep.param_values"),  # empty list
    ("run", "sweep.param_values = , \n", "sweep.param_values"),
    ("theory", "theory.d_grid =\n", "theory.d_grid"),
    ("run", "= 5\n", "empty key"),
    ("run", "theory.n = 8\n", "unknown key 'theory.n'"),  # the other command's key
    ("theory", "signal.n = 8\n", "unknown key 'signal.n'"),
]


@pytest.mark.parametrize(
    "command,body,needle", CONFIG_ERRORS, ids=[f"{body}-{needle}" for _, body, needle in CONFIG_ERRORS]
)
def test_config_errors_exit_2(tmp_path, capsys, command, body, needle):
    cfg = write_config(tmp_path / "exp.cfg", body)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert needle in err


# key -> (text, value) for every key of each command, each value off its default
RUN_KEYS = {
    "signal.kind": ("file", "file"),
    "signal.n": ("512", 512),
    "signal.path": ("sig.txt", "sig.txt"),
    "system.kernel_std": ("9.5", 9.5),
    "system.kernel_support": ("9", 9),
    "system.subsample_factor": ("2", 2),
    "system.noise_std": ("0.002", 0.002),
    "system.seed": ("99", 99),
    "codec.depth": ("6", 6),
    "codec.q_bits": ("6", 6),
    "admm.beta_tilde": ("0.5", 0.5),
    "admm.max_iters": ("12", 12),
    "admm.tol": ("0.01", 0.01),
    "sweep.param_values": ("1e-4, 1e-3", (1e-4, 1e-3)),
    "output_dir": ("elsewhere", "elsewhere"),
}
THEORY_KEYS = {
    "theory.n": ("128", 128),
    "theory.lambda_x": ("powerlaw:2.0,1.5", "powerlaw:2.0,1.5"),
    "theory.a_response": ("lowpass:40", "lowpass:40"),
    "theory.b_response": ("zeros", "zeros"),
    "theory.d_grid": ("0, 0.5", (0.0, 0.5)),
    "output_dir": ("elsewhere", "elsewhere"),
}


@pytest.mark.parametrize("cls,table", [(cli.ExperimentConfig, RUN_KEYS), (cli.TheoryConfig, THEORY_KEYS)],
                         ids=["run", "theory"])
def test_config_sets_each_key_through_its_field_and_parser(tmp_path, cls, table):
    # the table lists the keys in field order: a key wired to another field, or
    # a parser that reads another type, changes the echo the manifest writes
    cfg = write_config(tmp_path / "all.cfg", "".join(f"{key} = {text}\n" for key, (text, _) in table.items()))
    names = [f.name for f in fields(cls)]
    expected = cls(**dict(zip(names, (value for _, value in table.values()), strict=True)))
    assert all(getattr(expected, name) != getattr(cls(), name) for name in names)
    assert cli._config_echo(cli.load_config(cls, cfg)) == cli._config_echo(expected)


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_cli(["run", "--config", tmp_path / "nope.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_comments_and_blanks_are_ignored(tmp_path):
    entries = cli.read_key_values(
        write_config(tmp_path / "c.cfg", "\n# full comment\nsignal.n = 64  # trailing\n\n")
    )
    assert entries == {"signal.n": ("64", 3)}


# ------------------------------------------------------------- theory cmd #


def test_theory_classical_white_curve(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg",
        """
        theory.n = 16
        theory.lambda_x = constant:2.0
        theory.d_grid = 0.125, 0.5, 2.0
        """,
    )
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 0
    lines = (out / "theory_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "# e_d0 = 0.0"
    assert lines[1] == "D,total_distortion,rate_bits_per_sample,theta"
    for line, d in zip(lines[2:], (0.125, 0.5, 2.0)):
        cols = [float(c) for c in line.split(",")]
        assert cols[0] == d
        assert cols[1] == d
        assert abs(cols[2] - 0.5 * math.log2(2.0 / d)) <= 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"theory_curve.csv"}


def test_theory_reports_distortion_floor(tmp_path):
    cfg = write_config(
        tmp_path / "t.cfg",
        """
        theory.n = 16
        theory.lambda_x = constant:2.0
        theory.b_response = lowpass:4
        theory.d_grid = 0.1
        """,
    )
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 0
    header = (out / "theory_curve.csv").read_text().split("\n")[0]
    assert header == "# e_d0 = 0.875"  # 7 of 16 bins lost, variance 2 each


def test_theory_empty_support_warns(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "t.cfg",
        """
        theory.n = 8
        theory.b_response = zeros
        theory.d_grid = 0.1
        """,
    )
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 0
    assert "empty joint support" in capsys.readouterr().err
    row = (out / "theory_curve.csv").read_text().strip().split("\n")[2]
    assert float(row.split(",")[2]) == 0.0  # zero rate


def test_theory_nan_distortion_budget_exits_1_in_curve(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.cfg", "theory.d_grid = 0.01, nan, 0.5\n")
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert "stage 'curve' failed" in capsys.readouterr().err
    assert not (out / "theory_curve.csv").exists()


@pytest.mark.parametrize("key", ["lambda_x", "a_response", "b_response"])
def test_theory_non_finite_model_exits_1(tmp_path, capsys, key):
    values = tmp_path / "values.txt"
    values.write_text("1.0\nnan\n1.0\n1.0\n")
    spec = "constant:nan" if key == "lambda_x" else f"file:{values}"
    cfg = write_config(tmp_path / "t.cfg", f"theory.n = 4\ntheory.{key} = {spec}\n")
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert "stage 'model setup' failed" in capsys.readouterr().err
    assert not out.exists()


def test_theory_powerlaw_file_and_lowpass_specs(tmp_path):
    # lambda_x_k = 2 (1 + min(k, n - k))^-1.5; a passes bins 0-5 from DC and b
    # bins 0-3, so bins 4 and 5 on both sides are lost to the floor
    n = 16
    folded = np.minimum(np.arange(n), n - np.arange(n))
    lam = 2.0 * (1.0 + folded) ** -1.5
    grid = "0, 0.01, 0.1, 100"  # the last budget is beyond saturation
    powerlaw = tmp_path / "powerlaw.cfg"
    write_config(
        powerlaw,
        f"theory.n = {n}\ntheory.lambda_x = powerlaw:2.0,1.5\n"
        f"theory.a_response = lowpass:5\ntheory.b_response = lowpass:3\ntheory.d_grid = {grid}\n",
    )
    assert run_cli(["theory", "--config", powerlaw, "--out", tmp_path / "p"]) == 0
    curve = (tmp_path / "p" / "theory_curve.csv").read_text()
    lines = curve.strip().split("\n")
    lost = (folded > 3) & (folded <= 5)
    assert abs(float(lines[0].split("=")[1]) - lam[lost].sum() / n) <= 1e-15
    beyond = [float(c) for c in lines[-1].split(",")]
    assert beyond[2] == 0.0 and beyond[3] == lam[folded <= 3].max()

    # the same spectrum and a's response read from value files, one per line
    (tmp_path / "lam.txt").write_text("".join(f"{v!r}\n" for v in lam.tolist()))
    (tmp_path / "a.txt").write_text("".join(f"{int(k <= 5)}+0j\n\n" for k in folded))
    files = tmp_path / "files.cfg"
    write_config(
        files,
        f"theory.n = {n}\ntheory.lambda_x = file:{tmp_path / 'lam.txt'}\n"
        f"theory.a_response = file:{tmp_path / 'a.txt'}\ntheory.b_response = lowpass:3\n"
        f"theory.d_grid = {grid}\n",
    )
    assert run_cli(["theory", "--config", files, "--out", tmp_path / "f"]) == 0
    assert (tmp_path / "f" / "theory_curve.csv").read_text() == curve


@pytest.mark.parametrize(
    "key,spec,needle",
    [
        ("lambda_x", "gaussian:1.0", "unknown spectrum spec 'gaussian:1.0'"),
        ("a_response", "bandpass:2", "a_response: unknown response spec 'bandpass:2'"),
        ("lambda_x", "file:{values}", "lambda_x: file has 3 values, expected 4"),
        ("b_response", "file:{values}", "b_response: file has 3 values, expected 4"),
        ("lambda_x", "powerlaw:1.0",
         "lambda_x: bad spectrum spec 'powerlaw:1.0': could not convert string to float: ''"),
        ("lambda_x", "constant:one",
         "lambda_x: bad spectrum spec 'constant:one': could not convert string to float: 'one'"),
        ("a_response", "lowpass:abc",
         "a_response: bad response spec 'lowpass:abc': invalid literal for int() with base 10: 'abc'"),
        ("b_response", "lowpass:1e3",
         "b_response: bad response spec 'lowpass:1e3': invalid literal for int() with base 10: '1e3'"),
    ],
    ids=["unknown-spectrum", "unknown-response", "spectrum-file-length", "response-file-length",
         "powerlaw-without-exponent", "constant-not-a-number", "lowpass-not-a-number", "lowpass-not-an-int"],
)
def test_theory_bad_spec_exits_1_in_model_setup(tmp_path, capsys, key, spec, needle):
    values = tmp_path / "values.txt"
    values.write_text("1.0\n\n1.0\n1.0\n")
    spec = spec.format(values=values)
    cfg = write_config(tmp_path / "t.cfg", f"theory.n = 4\ntheory.{key} = {spec}\n")
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    # the message starts with the field it is about
    assert f"stage 'model setup' failed: {key}: " in err and needle in err
    assert not out.exists()


@pytest.mark.parametrize(
    "n,spectrum,needle",
    [
        (0, "powerlaw:1,2", "n must be >= 1"),
        (-3, "powerlaw:1,2", "n must be >= 1"),
        (-3, "file:{values}", "lambda_x: file has 3 values, expected 0"),
    ],
    ids=["zero", "negative", "negative-file-spectrum"],
)
def test_theory_n_below_1_exits_1_in_model_setup(tmp_path, capsys, n, spectrum, needle):
    # n is the model's to reject; a spec error found while parsing comes first
    values = tmp_path / "values.txt"
    values.write_text("1.0\n1.0\n1.0\n")
    cfg = write_config(
        tmp_path / "t.cfg",
        f"theory.n = {n}\ntheory.lambda_x = {spectrum.format(values=values)}\n"
        "theory.a_response = lowpass:3\ntheory.b_response = lowpass:1\n",
    )
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: stage 'model setup' failed: {needle}\n"
    assert not out.exists()


def test_signal_and_spectrum_files_read_alike(tmp_path):
    # a `file:` spectrum and a signal file are the same format: one value per non-blank line
    path = tmp_path / "values.txt"
    path.write_text("0.25\n\n  1e-3 \n-0.0\n")
    spectrum = cli._parse_spectrum(f"file:{path}", 3)
    assert np.array_equal(spectrum.view(np.int64), system_sim.load_signal(path).view(np.int64))
    path.write_text("0.25\nx\n")
    errors = []
    for read in (lambda: cli._parse_spectrum(f"file:{path}", 2),
                 lambda: system_sim.load_signal(path)):
        with pytest.raises(ValueError) as exc:
            read()
        errors.append(str(exc.value))
    assert errors == ["could not convert string to float: 'x\\n'"] * 2


THEORY_SIZES = [*range(1, 10), 4096, 4097]


@pytest.mark.parametrize("exponent", [1.0, 0.0, -0.0, -0.5, -1.0, -2.0, 0.9, 1.5])
def test_powerlaw_spectrum_has_the_bits_of_the_plain_expression(exponent):
    # the row is raised and scaled in place on bins 0 … n // 2 and mirrored;
    # numpy's fast paths for the exponents -1, 0, 0.5, 1 and 2 must give the
    # bits they give out of place over all n bins
    for n in THEORY_SIZES:
        k = np.arange(n)
        for amp in (1.0, 2.5, 1e-300):
            got = cli._parse_spectrum(f"powerlaw:{amp!r},{exponent!r}", n)
            want = amp * (1.0 + np.minimum(k, n - k)) ** -exponent
            assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_builtin_responses_are_masks_of_their_plain_expressions():
    for n in THEORY_SIZES:
        k = np.arange(n)
        for spec, want in [("ones", np.ones(n, dtype=bool)), ("zeros", np.zeros(n, dtype=bool)),
                           *((f"lowpass:{cut}", np.minimum(k, n - k) <= cut)
                             for cut in (-1, 0, n // 3, n // 2, n))]:
            got = cli._parse_response(spec, n, "a_response")
            assert got.dtype == np.bool_ and got.shape == (n,) and np.array_equal(got, want), (n, spec)


@pytest.mark.parametrize(
    "spec", ["powerlaw:1e308,-2", "powerlaw:1,-1000", "powerlaw:0,-1000"],
    ids=["multiply", "power", "zero-times-inf"],
)
def test_theory_powerlaw_that_overflows_exits_1_naming_lambda_x(tmp_path, capsys, spec):
    # numpy warns of nothing; the model names the row that is not finite
    cfg = write_config(tmp_path / "t.cfg", f"theory.n = 64\ntheory.lambda_x = {spec}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "stage 'model setup' failed: lambda_x must be finite" in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_theory_job_hands_the_model_masks_not_float_responses(tmp_path, monkeypatch):
    # the built-in responses reach the model as n-byte bool masks, so no
    # float64 n-row response is built for it; lambda_x is its one float row
    models = []
    model = cli.SpectralModel
    monkeypatch.setattr(cli, "SpectralModel", lambda **kw: models.append(kw) or model(**kw))
    for a, b in (("lowpass:20", "lowpass:9"), ("ones", "zeros")):
        cfg = cli.TheoryConfig(n=64, lambda_x="powerlaw:1.3,0.9", a_response=a, b_response=b)
        cli.cmd_theory_curve(cfg, tmp_path / a)
        assert (tmp_path / a / "theory_curve.csv").exists()
    assert len(models) == 2
    for kw in models:
        assert kw["lambda_x"].dtype == np.float64
        assert kw["a_f"].dtype == kw["b_f"].dtype == np.bool_
        assert kw["a_f"].shape == kw["b_f"].shape == (64,)


def test_theory_large_job_traces_under_four_and_a_half_float_rows(tmp_path):
    # CI's theory_large config: the spectrum is the one float row the job
    # keeps, the responses are masks and no other n-length row is built
    # for the parse, so the traced peak stays under 4.5 float64 rows
    n = 1 << 16
    cfg = cli.TheoryConfig(
        n=n, lambda_x="powerlaw:1.3,0.9", a_response="lowpass:12000", b_response="lowpass:5000",
        d_grid=(0, 5.36e-08, 1.38e-07, 3.56e-07, 9.16e-07, 2.36e-06, 6.08e-06, 1.57e-05, 4.04e-05,
                0.000104, 0.000268, 1.0),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli.cmd_theory_curve(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n, peak / (8 * n)


def test_theory_response_that_overflows_exits_1_in_model_setup(tmp_path, capsys):
    # |a_k|^2 of 1e200 overflows; the bin must not drop silently out of the curve
    values = tmp_path / "a.txt"
    values.write_text("".join(f"{v!r}\n" for v in [1 + 0j] * 3 + [1e200 + 0j] + [1 + 0j] * 4))
    cfg = write_config(tmp_path / "t.cfg", f"theory.n = 8\ntheory.a_response = file:{values}\n")
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "stage 'model setup' failed: gain is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "b_response, needle",
    [("ones", "saturation sum is not finite"), ("lowpass:3", "distortion floor is not finite")],
    ids=["saturation", "floor"],
)
def test_theory_sums_that_overflow_exit_1_in_model_setup(tmp_path, capsys, b_response, needle):
    # each bin's weighted variance is 1e307, and a sum over 64 bins (or over
    # the 57 that lowpass:3 loses) is not finite
    cfg = write_config(
        tmp_path / "t.cfg",
        "theory.n = 64\ntheory.lambda_x = constant:1e307\ntheory.a_response = ones\n"
        f"theory.b_response = {b_response}\ntheory.d_grid = 1.0, 1e306, 1e308\n",
    )
    out = tmp_path / "out"
    assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert f"stage 'model setup' failed: {needle}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("action", ["always", "error"], ids=["warnings-shown", "warnings-as-errors"])
def test_theory_rate_that_overflows_at_the_theta_floor_exits_1_in_curve(tmp_path, capsys, action):
    # at budget 0 each rate is 0.5 * ln(1e300 / 1e-15), which overflows:
    # the curve names it instead of writing inf, and numpy warns of nothing
    cfg = write_config(tmp_path / "t.cfg", "theory.n = 4\ntheory.lambda_x = constant:1e300\ntheory.d_grid = 0, 0.1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert run_cli(["theory", "--config", cfg, "--out", out]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "stage 'curve' failed: rate at the theta floor 1e-15 is not finite" in err
    assert "RuntimeWarning" not in err and not out.exists()


# -------------------------------------------------------------- codec cmd #


def test_codec_round_trip_constant(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    save_signal(sig, np.full(16, 0.5))
    bit = tmp_path / "c.bin"
    rec = tmp_path / "rec.txt"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.01"]) == 0
    assert "8 rate bits" in capsys.readouterr().out  # one leaf at q_bits=8
    assert run_cli(["codec", "decode", bit, rec]) == 0
    values = [float(v) for v in rec.read_text().split()]
    assert values == [128 / 255] * 16


def test_codec_encode_reports_clamped_samples(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    save_signal(sig, np.array([-0.5, 0.0, 0.25, 1.0, 1.5, 2.0, -0.0, 0.75]))
    bit = tmp_path / "c.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.0", "--depth", "3"]) == 0
    assert "3 samples clamped to [0, 1]" in capsys.readouterr().out
    assert tree_codec.decode(bit.read_bytes()).tolist() == [0.0, 0.0, 64 / 255, 1.0, 1.0, 1.0, 0.0, 191 / 255]
    save_signal(sig, np.full(8, 0.5))
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.0"]) == 0
    assert "0 samples clamped" in capsys.readouterr().out


def test_codec_encode_matches_library_bit_exact(tmp_path):
    x = make_chirp(1024)
    sig = tmp_path / "chirp.txt"
    save_signal(sig, x)
    bit = tmp_path / "chirp.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.0005"]) == 0
    stream = tree_codec.encode(x, nu=0.0005)
    assert bit.read_bytes() == stream.to_bytes()


def test_codec_decode_truncated_exits_1(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    save_signal(sig, np.full(16, 0.5))
    bit = tmp_path / "c.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.01"]) == 0
    truncated = tmp_path / "t.bin"
    truncated.write_bytes(bit.read_bytes()[:-1])
    assert run_cli(["codec", "decode", truncated, tmp_path / "rec.txt"]) == 1
    assert "byte offset" in capsys.readouterr().err


@pytest.mark.parametrize("nu", ["inf", "1e308"])
def test_codec_encode_with_an_overflowing_nu_exits_1_naming_nu(tmp_path, capsys, nu):
    sig = tmp_path / "sig.txt"
    save_signal(sig, np.linspace(0.0, 1.0, 256))
    bit = tmp_path / "c.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", nu]) == 1
    assert "nu * q_bits must be finite" in capsys.readouterr().err
    assert not bit.exists()


def test_codec_encode_with_a_sample_beyond_max_abs_exits_1(tmp_path, capsys):
    sig = tmp_path / "sig.txt"
    x = np.full(16, 0.5)
    x[3] = 1e200
    save_signal(sig, x)
    bit = tmp_path / "c.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.001"]) == 1
    assert "MAX_ABS" in capsys.readouterr().err
    assert not bit.exists()


def test_codec_encode_depth_and_qbits_flags(tmp_path):
    sig = tmp_path / "sig.txt"
    save_signal(sig, make_chirp(64))
    bit = tmp_path / "c.bin"
    assert run_cli(["codec", "encode", sig, bit, "--nu", "0.0", "--q-bits", "5", "--depth", "3"]) == 0
    stream = tree_codec.Bitstream.from_bytes(bit.read_bytes())
    assert stream.q_bits == 5
    assert stream.d == 3
    assert len(stream.leaf_indices) == 8  # nu=0 keeps the full depth-3 tree
