from dataclasses import replace

import numpy as np
import pytest

from kblab.model import ExperimentConfig, ModelValidationError, constant_model
from kblab.kalman import (
    filter_pieces,
    lyapunov_increments,
    lyapunov_path,
    mean_decomposition_diagnostics,
    mismatched_mc,
    mismatched_pair,
    run_filter,
    window_decrease_margin,
)
from kblab.propagate import closed_loop_propagator, fundamental_matrix, make_grid, uco_gramian
from kblab.simulate import generate_observation_path
from kblab.scenarios import builtin_scenario


def test_no_observation_filter_follows_free_flow():
    mdl = constant_model([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.eye(2))
    cfg = ExperimentConfig(model=mdl, horizon=3.0, dt=1e-3, substeps=1, seed=0,
                           m0=[1.0, 0.0], P0=np.eye(2))
    obs = generate_observation_path(cfg)
    run = run_filter(mdl, obs, (cfg.m0, cfg.P0))
    phi = fundamental_matrix(mdl, obs.grid)
    assert np.abs(run.means - np.einsum("kij,j->ki", phi.values, cfg.m0)).max() <= 1e-12


def test_exact_init_tracks_constant_truth():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg, noise_off=True)
    run = run_filter(cfg.model, obs, (obs.truth[0], cfg.P0))
    assert np.abs(run.means - obs.truth).max() <= 1e-12
    assert np.abs(run.innovations).max() <= 1e-15


def test_scalar_worked_case_decay():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg, noise_off=True)
    x0 = obs.truth[0, 0]
    run = run_filter(cfg.model, obs, (np.zeros(1), np.eye(1)))
    analytic = x0 + (0.0 - x0) / (1.0 + obs.grid)
    assert np.abs(run.means[:, 0] - analytic).max() <= 1e-9


def test_eps_gain_selects_perturbed_riccati():
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=5.0)
    obs = generate_observation_path(cfg, eps=0.1)
    run0 = run_filter(cfg.model, obs, (cfg.m0, cfg.P0), eps_gain=0.0)
    run1 = run_filter(cfg.model, obs, (cfg.m0, cfg.P0), eps_gain=0.1)
    assert run1.riccati.eps == 0.1
    assert np.abs(run0.means - run1.means).max() > 0.0


def test_identical_initializations_identical_paths():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg)
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.m0, cfg.P0))
    assert pair.mean_gap.max() == 0.0
    assert pair.cov_gap.max() == 0.0
    assert np.abs(mean_decomposition_diagnostics(pair).zhat).max() == 0.0


def test_reconstruction_identity_generic_scalar():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg)
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar))
    diag = mean_decomposition_diagnostics(pair)
    assert diag.max_residual <= 1e-6
    # martingale part stabilizes
    assert diag.zhat_drift <= 0.1 * (1.0 + np.abs(diag.zhat).max())


def test_mean_only_mismatch_has_zero_martingale_part():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg)
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.P0))
    diag = mean_decomposition_diagnostics(pair)
    assert np.abs(diag.zhat).max() == 0.0
    assert np.abs(pair.gap - diag.term1).max() <= 1e-12


def test_reconstruction_identity_rotation():
    cfg = replace(builtin_scenario("rotation"), horizon=10.0)
    obs = generate_observation_path(cfg)
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar))
    diag = mean_decomposition_diagnostics(pair)
    assert diag.max_residual <= 1e-6


def test_reconstruction_identity_partial_observation():
    # C = [1 0] lacks full column rank: the gain remainders E_k are of
    # discretization size and the decomposition needs its third term
    cfg = builtin_scenario("rotation_partial")
    cfg = replace(cfg, model=replace(cfg.model, damping=0.2), mbar=np.array([3.0, -2.0]),
                  Pbar=np.diag([4.0, 0.5]), horizon=45.0, dt=0.02)
    obs = generate_observation_path(cfg, seed=(1, 2))
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar))
    diag = mean_decomposition_diagnostics(pair)
    assert diag.max_residual <= 1e-6
    assert np.abs(diag.term3).max() >= 1e-4
    assert pair.mean_gap[-1].max() <= 1e-3 * np.linalg.norm(cfg.m0 - cfg.mbar)


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation", "periodic3", "rotation_atoms"])
def test_gain_remainder_vanishes_for_full_column_rank(name):
    cfg = builtin_scenario(name)
    grid = make_grid(10.0, 0.02)
    pieces = filter_pieces(cfg.model, grid, cfg.Pbar)
    assert np.linalg.matrix_rank(cfg.model.C_at(grid[:1])[0]) == cfg.model.m
    assert np.abs(pieces.remainder).max() <= 1e-14
    partial = builtin_scenario("rotation_partial")
    assert np.abs(filter_pieces(partial.model, grid, partial.P0).remainder).max() >= 1e-6


def test_filter_rejects_mismatched_grid_pieces():
    cfg = builtin_scenario("scalar_basic")
    obs = generate_observation_path(cfg)
    other = filter_pieces(cfg.model, make_grid(1.0, cfg.dt), cfg.P0)
    with pytest.raises(ValueError):
        run_filter(cfg.model, obs, (cfg.m0, cfg.P0), pieces=other)


def test_nan_observations_raise_with_step():
    cfg = replace(builtin_scenario("scalar_basic"), horizon=1.0)
    obs = generate_observation_path(cfg)
    obs.increments[500] = np.nan
    with pytest.raises(FloatingPointError, match="step"):
        run_filter(cfg.model, obs, (cfg.m0, cfg.P0))


def test_mismatched_mc_small_run():
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=10.0, mc_runs=4)
    sweep = mismatched_mc(cfg.model, cfg)
    assert sweep.terminal_gaps.shape == (4,)
    assert sweep.initial_gap == pytest.approx(2.0)
    assert sweep.max_residuals.max() <= 1e-6
    assert sweep.worst_ratio < 1.0  # gaps contract


def test_mismatched_mc_rejects_zero_initial_gap():
    # rotation_partial leaves mbar at its default, m0
    cfg = replace(builtin_scenario("rotation_partial"), horizon=2.0, mc_runs=2)
    with pytest.raises(ModelValidationError, match="mbar != m0"):
        mismatched_mc(cfg.model, cfg)


def test_mismatched_mc_noise_off_reproducible():
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0, mc_runs=2)
    a = mismatched_mc(cfg.model, cfg, noise_off=True)
    b = mismatched_mc(cfg.model, cfg, noise_off=True)
    assert np.array_equal(a.terminal_gaps, b.terminal_gaps)


def _single_seed_terminal_gaps(cfg, seeds):
    return np.array([mismatched_pair(cfg.model, generate_observation_path(cfg, seed=s),
                                     (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar)).mean_gap[-1]
                     for s in seeds])


def test_mismatched_mc_equals_single_seed_pairs_scalar():
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=30.0, dt=0.02, mc_runs=3)
    sweep = mismatched_mc(cfg.model, cfg)
    assert np.array_equal(sweep.terminal_gaps, _single_seed_terminal_gaps(cfg, sweep.seeds))


def test_mismatched_mc_matches_single_seed_pairs_rotation():
    # batched (m, S) and single-seed (m,) matrix products round differently
    cfg = replace(builtin_scenario("rotation"), horizon=15.0, dt=0.02, mc_runs=3)
    sweep = mismatched_mc(cfg.model, cfg)
    single = _single_seed_terminal_gaps(cfg, sweep.seeds)
    assert np.abs(sweep.terminal_gaps - single).max() <= 1e-6 * np.abs(single).max()


def test_mismatched_mc_carries_its_filter_pieces():
    cfg = replace(builtin_scenario("scalar_unstable"), horizon=2.0, mc_runs=2)
    sweep = mismatched_mc(cfg.model, cfg)
    pieces, piecesbar = sweep.pair.run.pieces, sweep.pair.runbar.pieces
    assert np.array_equal(pieces.riccati.init, cfg.P0)
    assert np.array_equal(piecesbar.riccati.init, cfg.Pbar)
    pair = mismatched_pair(cfg.model, generate_observation_path(cfg, seed=sweep.seeds),
                           (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar),
                           pieces=pieces, piecesbar=piecesbar)
    diag = mean_decomposition_diagnostics(pair)
    assert diag.residual.shape == (len(pair.grid), 2)
    assert np.array_equal(diag.residual.max(axis=0), sweep.max_residuals)
    assert np.array_equal(pair.gap, sweep.pair.gap)
    for name in ("term1", "zhat", "term2", "term3"):
        assert np.array_equal(getattr(diag, name), getattr(sweep.diag, name))


def test_lyapunov_value_nonincreasing():
    cfg = builtin_scenario("scalar_basic")
    grid = make_grid(10.0, cfg.dt)
    pieces = filter_pieces(cfg.model, grid, cfg.Pbar)
    psi = closed_loop_propagator(pieces.riccati)
    z0s = np.random.default_rng(1).standard_normal((1, 10))
    assert lyapunov_increments(psi, pieces.riccati, z0s) <= 1e-9


def test_lyapunov_scalar_matches_analytic():
    # V(t) = (Psi_t z0)^2 / P_t = z0^2 / (1 + t) for p0 = 1
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(5.0, 1e-3)
    pieces = filter_pieces(mdl, grid, np.eye(1))
    v = lyapunov_path(closed_loop_propagator(pieces.riccati), pieces.riccati, np.array([[2.0]]))
    assert np.abs(v[:, 0] - 4.0 / (1.0 + grid)).max() <= 1e-8


def test_window_decrease_bounded_by_start_anchored_gramian():
    cfg = builtin_scenario("rotation")
    grid = make_grid(15.0, cfg.dt)
    pieces = filter_pieces(cfg.model, grid, cfg.Pbar)
    psi = closed_loop_propagator(pieces.riccati)
    z0s = np.random.default_rng(3).standard_normal((2, 10))
    rho3 = uco_gramian(cfg.model, psi, cfg.uco_window, normalize="start", free_flow=False).rho1
    margin = window_decrease_margin(psi, pieces.riccati, z0s, cfg.uco_window)
    assert margin >= 0.9 * rho3
