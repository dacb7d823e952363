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


def test_gramian_command_reports_verdict(tmp_path, capsys):
    cfg = builtin_scenario("rotation_partial")
    out = tmp_path / "out"
    code = cli.main(["gramian", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    assert "UCO plausible on horizon: True" in capsys.readouterr().out
    rows = (out / "gramian_windows.csv").read_text().splitlines()
    assert rows[0] == "t_end,lambda_min,lambda_max"
    assert len(rows) > 10


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


def test_invalid_config_values_exit_code(tmp_path):
    cfg = builtin_scenario("scalar_basic")
    text = serialize_config(cfg).replace("P0.data = 1", "P0.data = 0")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert cli.main(["riccati", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


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
