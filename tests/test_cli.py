import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kblab
from kblab import cli
from kblab.csvio import write_matrix_path
from kblab.model import serialize_config
from kblab.propagate import MatrixPath, make_grid
from kblab.scenarios import builtin_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, cfg, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(serialize_config(cfg))
    return str(p)


def test_riccati_command_artifacts_and_exit(tmp_path):
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0)
    out = tmp_path / "out"
    code = cli.main(["riccati", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    assert (out / "dre_path.csv").exists()
    assert (out / "closed_form_residual.csv").exists()
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "config_hash" in manifest and "wall_time_s" in manifest


@pytest.mark.parametrize("command, stages", [("riccati", ("riccati", "oracle", "write")),
                                              ("stability-cov", ("riccati", "write"))])
def test_riccati_manifests_record_stage_times_and_min_eig(tmp_path, capsys, command, stages):
    cfg = replace(builtin_scenario("rotation"), horizon=2.0)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    if command == "stability-cov":
        # the verdict states the factorization's range
        assert "holds to fourth order in dt, not at float precision" in capsys.readouterr().out
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    times = sorted(k for k in manifest if k.startswith("time."))
    assert times == sorted(f"time.{s}" for s in stages)
    assert all(float(manifest[f"time.{s}"]) >= 0.0 for s in stages)
    # rotation's P stays positive definite
    assert float(manifest["health.min_eig_P"]) > 0.0


# the riccati and stability-cov manifests are checked by the test above
@pytest.mark.parametrize("command, name, stages", [
    ("gramian", "rotation_partial", ("transition", "gramian", "write")),
    ("stability-mean", "scalar_unstable",
     ("simulate", "riccati", "filter", "decomposition", "lyapunov", "write")),
    ("nongaussian", "two_atom", ("simulate", "riccati", "filter", "merging", "write")),
    ("smallnoise", "smallnoise_stable", ("riccati", "simulate", "filter", "write")),
])
def test_manifests_record_stage_times_including_write(tmp_path, command, name, stages):
    cfg = replace(builtin_scenario(name), horizon=8.0, dt=0.01, mc_runs=3)
    out = tmp_path / "out"
    cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    times = sorted(k for k in manifest if k.startswith("time."))
    assert times == sorted(f"time.{s}" for s in stages)
    assert all(float(manifest[f"time.{s}"]) >= 0.0 for s in stages)


def test_gramian_command_reports_verdict(tmp_path, capsys):
    cfg = builtin_scenario("rotation_partial")
    out = tmp_path / "out"
    code = cli.main(["gramian", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    assert "UCO plausible on horizon: True" in capsys.readouterr().out
    rows = (out / "gramian_windows.csv").read_text().splitlines()
    assert rows[0] == "t_end,lambda_min,lambda_max"
    assert len(rows) > 10


def test_smallnoise_command_zero_forcing_is_a_degenerate_failure(tmp_path, capsys):
    # F = 0: every sup gap is 0, so the fit has no slopes; that fails the
    # verdict instead of raising
    cfg = builtin_scenario("smallnoise_stable")
    cfg = replace(cfg, model=replace(cfg.model, F0=np.zeros((1, 1))), horizon=4.0, mc_runs=4)
    out = tmp_path / "out"
    code = cli.main(["smallnoise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 1
    assert text.startswith("FAIL smallnoise") and "degenerate fit" in text
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert manifest["degenerate"] == "True"
    assert manifest["mean_slope"] == manifest["cov_slope"] == "none"

def test_stability_mean_pass_and_csv_schema(tmp_path, capsys):
    # shorter horizon -> weaker contraction; the threshold override in the
    # config document is part of what is being exercised here
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=10.0, mc_runs=3,
                  thresholds={"tol_terminal_gap_ratio": 0.05})
    out = tmp_path / "out"
    code = cli.main(["stability-mean", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    header = (out / "sample_path.csv").read_text().splitlines()[0]
    assert header == "t,gap_mean,gap_cov,term1,znorm,V"
    per_seed = (out / "per_seed.csv").read_text().splitlines()
    assert per_seed[0] == "seed,initial_gap,terminal_gap,ratio,max_residual"
    assert len(per_seed) == 4


def test_stability_mean_threshold_failure_exit_code(tmp_path):
    # too short a horizon for the gap to contract below the threshold
    cfg = replace(builtin_scenario("scalar_basic"), horizon=1.0, mc_runs=2)
    out = tmp_path / "out"
    code = cli.main(["stability-mean", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    assert (out / "per_seed.csv").exists()  # artifacts written even on FAIL


def test_nongaussian_command(tmp_path):
    code = cli.main(["nongaussian", "--config", str(CONFIG_DIR / "two_atom.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    header = (tmp_path / "out" / "merging.csv").read_text().splitlines()[0]
    assert header.startswith("t,mean_gap,gap_cos_a1")
    assert header.endswith("w_1,w_2")


def test_stability_mean_requires_initial_gap(tmp_path, capsys):
    # the shipped rotation_partial document leaves mbar at its default, m0
    code = cli.main(["stability-mean", "--config", str(CONFIG_DIR / "rotation_partial.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mbar != m0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stability-mean", "smallnoise"])
def test_zero_mc_runs_is_a_config_error(tmp_path, capsys, command):
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=2.0, mc_runs=0,
                  mbar=np.array([0.0]))
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "mc_runs must be >= 1" in capsys.readouterr().err
    code = cli.main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out"),
                     "--horizon", "0.004", "--dt", "0.01"])
    assert code == 2
    assert "horizon 0.004 shorter than one step" in capsys.readouterr().err


def test_singular_pbar_is_a_config_error(tmp_path, capsys):
    # the mismatched filter's Lyapunov path solves with Pbar's flow
    cfg = replace(builtin_scenario("rotation"), horizon=2.0, mc_runs=2,
                  mbar=np.array([2.0, 0.0]), Pbar=np.diag([1.0, 0.0]))
    code = cli.main(["stability-mean", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "Pbar not invertible" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_epsilons_are_a_config_error(tmp_path, capsys):
    # one noise level three times has no log-log slope
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=2.0, epsilons=(0.1, 0.1, 0.1))
    code = cli.main(["smallnoise", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "epsilons must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stability_mean_sample_path_is_the_first_seed_column(tmp_path):
    cfg = replace(builtin_scenario("rotation"), horizon=30.0, dt=0.02, mc_runs=5)
    out = tmp_path / "out"
    cli.main(["stability-mean", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    sample = (out / "sample_path.csv").read_text().splitlines()
    per_seed = (out / "per_seed.csv").read_text().splitlines()
    assert len(sample) == 1 + 1501
    assert sample[-1].split(",")[1] == per_seed[1].split(",")[2]


def test_nongaussian_requires_atoms(tmp_path):
    cfg = replace(builtin_scenario("scalar_basic"), horizon=1.0)
    code = cli.main(["nongaussian", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2


def test_smallnoise_command_known_mean_slope_failure(tmp_path, capsys):
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=4.0, mc_runs=4)
    out = tmp_path / "out"
    code = cli.main(["smallnoise", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    text = capsys.readouterr().out
    # quadratic mean-gap rate: the [0.7, 1.3] default band fails by design
    assert code == 1
    assert "known discrepancy" in text
    assert (out / "sweep.csv").read_text().splitlines()[0] == "epsilon,seed,sup_mean_gap,sup_cov_gap"
    assert (out / "summary.csv").exists()
    manifest = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    for stage in ("riccati", "simulate", "filter"):
        assert float(manifest[f"time.{stage}"]) >= 0.0


def test_byte_identical_reruns(tmp_path):
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0, mc_runs=2,
                  thresholds={"tol_terminal_gap_ratio": 1.0})
    cfgpath = write_cfg(tmp_path, cfg)
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert cli.main(["stability-mean", "--config", cfgpath, "--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) == 2


def test_seed_override_changes_artifacts(tmp_path):
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0, mc_runs=2,
                  thresholds={"tol_terminal_gap_ratio": 1.0})
    cfgpath = write_cfg(tmp_path, cfg)
    outs = []
    for i, seed in enumerate((1, 2)):
        out = tmp_path / f"s{i}"
        assert cli.main(["stability-mean", "--config", cfgpath, "--out", str(out),
                         "--seed", str(seed)]) == 0
        outs.append((out / "per_seed.csv").read_bytes())
    assert outs[0] != outs[1]


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nm = 1\nbogus = 1\n")
    assert cli.main(["riccati", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["riccati", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_matrix_the_family_ignores_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nfamily = constant\nm = 1\nA1.data = 2\n")
    assert cli.main(["riccati", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "takes no A1" in capsys.readouterr().err


def test_invalid_config_values_exit_code(tmp_path):
    cfg = builtin_scenario("scalar_basic")
    text = serialize_config(cfg).replace("P0.data = 1", "P0.data = 0")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert cli.main(["riccati", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, fields, args, message", [
    ("stability-mean", {}, ["--seed", "-3"], "seed must be >= 0"),
    ("gramian", {"uco_window": -1.0}, [], "uco_window must be positive"),
    ("gramian", {"uco_window": 0.0004}, [], "shorter than one grid step"),
    ("gramian", {}, ["--horizon", "0.5"], "exceeds the horizon"),
], ids=["negative-seed", "negative-window", "window-under-one-step", "window-over-horizon"])
def test_bad_run_inputs_exit_with_an_error_line(tmp_path, capsys, command, fields, args, message):
    # scalar_unstable: dt = 0.001, uco_window = 1
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=2.0, mc_runs=2, **fields)
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_short_horizon_passes_where_the_window_is_not_read(tmp_path):
    cfg = builtin_scenario("scalar_unstable")
    argv = ["riccati", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--horizon", "0.5"]) == 0


def test_verify_filter_runs_subset(capsys):
    code = cli.main(["verify", "--filter", "criterion-9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion-9-grid-order" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_filter(capsys):
    assert cli.main(["verify", "--filter", "no-such-check"]) == 2


def test_verify_criterion8_hides_nested_subcommand_verdicts(capsys):
    code = cli.main(["verify", "--filter", "criterion-8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 checks passed" in out
    assert "PASS riccati" not in out
    assert "FAIL stability-mean" not in out


def test_verify_surfaces_injected_failure(monkeypatch, capsys):
    import kblab.checks as checks

    broken = checks.Check(name="hook-corrupted-tolerance",
                          fn=lambda: (False, "tolerance corrupted by test hook"))
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS + [broken])
    code = cli.main(["verify", "--filter", "hook-corrupted"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "hook-corrupted-tolerance" in out


def test_module_entry_point(tmp_path):
    cfg = replace(builtin_scenario("scalar_basic"), horizon=1.0)
    cfgpath = write_cfg(tmp_path, cfg)
    # the child imports the kblab under test, installed or not
    src = str(Path(kblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "kblab", "riccati", "--config", cfgpath,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0
    assert "PASS riccati" in proc.stdout


def test_help_documents_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for sub in ("riccati", "gramian", "stability-cov", "stability-mean",
                "nongaussian", "smallnoise", "verify"):
        assert sub in out


def test_matrix_path_csv_roundtrip(tmp_path):
    grid = make_grid(1.0, 0.25)
    vals = np.arange(5 * 4, dtype=float).reshape(5, 2, 2) / 7.0
    mp = MatrixPath(grid, vals)
    path = tmp_path / "p.csv"
    write_matrix_path(path, mp, "P")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(raw[:, 0], grid)
    assert np.array_equal(raw[:, 1:].reshape(-1, 2, 2), vals)
