import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from kblab.model import ExperimentConfig, LtvModel, constant_model
from kblab.kalman import filter_pieces, run_filter
from kblab.propagate import MatrixPath, closed_loop_propagator, make_grid
from kblab.riccati import covariance_gap, integrate_dre
from kblab.simulate import generate_observation_path
from kblab.smallnoise import (
    EpsilonSweep,
    epsilon_sweep,
    exponential_stability_estimate,
    fit_scaling,
)
from kblab.scenarios import builtin_scenario


@dataclass
class EpsilonPairResult:
    eps: float
    seed: int | tuple
    sup_mean_gap: float | np.ndarray    # (S,) for a tuple of seeds
    sup_cov_gap: float


def run_epsilon_pair(model: LtvModel, cfg: ExperimentConfig, eps: float, seed,
                     pieces_eps=None, pieces_zero=None) -> EpsilonPairResult:
    """One (eps, seed) cell: identical initialization, identical observations.

    The single-cell reference of epsilon_sweep, built independently of it:
    the path of this eps alone and two run_filter calls. A tuple of seeds
    runs one cell per seed, as seed columns.
    """
    grid = cfg.grid()
    if pieces_eps is None:
        pieces_eps = filter_pieces(model, grid, cfg.P0, eps_gain=eps)
    if pieces_zero is None:
        pieces_zero = filter_pieces(model, grid, cfg.P0, eps_gain=0.0)
    obs = generate_observation_path(cfg, seed=seed, eps=eps)
    run_eps = run_filter(model, obs, (cfg.m0, cfg.P0), pieces=pieces_eps)
    run_zero = run_filter(model, obs, (cfg.m0, cfg.P0), pieces=pieces_zero)
    mean_gap = np.linalg.norm(run_eps.means - run_zero.means, axis=1)
    _, _, sup_cov, _ = covariance_gap(pieces_eps.riccati, pieces_zero.riccati)
    return EpsilonPairResult(eps=eps, seed=seed, sup_mean_gap=mean_gap.max(axis=0),
                             sup_cov_gap=sup_cov)


def small_cfg(horizon=5.0, mc_runs=4):
    return replace(builtin_scenario("smallnoise_stable"), horizon=horizon, mc_runs=mc_runs)


def _two_time_decay_constant(psi: MatrixPath, alpha: float, n_samples: int = 40) -> float:
    """max over sampled s <= t of ||Psi_t Psi_s^-1|| e^{alpha (t-s)}.

    This is the constant that actually appears in the exponential-stability
    bound; the tail fit of log||Psi_t|| only recovers the s = 0 constant.
    """
    ks = np.linspace(0, len(psi.grid) - 1, n_samples, dtype=int)
    best = 0.0
    for i, ks_i in enumerate(ks):
        psi_s_inv = np.linalg.inv(psi.values[ks_i])
        for kt in ks[i:]:
            val = np.linalg.norm(psi.values[kt] @ psi_s_inv, 2) * np.exp(
                alpha * (psi.grid[kt] - psi.grid[ks_i]))
            best = max(best, float(val))
    return best


def test_zero_eps_pair_is_identically_zero():
    cfg = small_cfg()
    r = run_epsilon_pair(cfg.model, cfg, 0.0, cfg.seed)
    assert r.sup_mean_gap == 0.0
    assert r.sup_cov_gap == 0.0


def test_zero_forcing_pair_is_identically_zero():
    mdl = constant_model([[-0.5]], [[1.0]], [[1.0]], F=[[0.0]])
    cfg = replace(small_cfg(), model=mdl)
    r = run_epsilon_pair(mdl, cfg, 0.25, cfg.seed)
    assert r.sup_mean_gap == 0.0
    assert r.sup_cov_gap == 0.0


def test_pair_matches_sweep_cell_bitwise():
    cfg = small_cfg(horizon=4.0, mc_runs=3)
    sweep = epsilon_sweep(replace(cfg, epsilons=(0.1, 0.05, 0.025)))
    r = run_epsilon_pair(cfg.model, cfg, 0.05, cfg.seed + 2)
    assert r.sup_mean_gap == sweep.sup_mean_gaps[1, 2]
    assert r.sup_cov_gap == sweep.sup_cov_gaps[1, 2]


def test_every_sweep_cell_equals_its_pair():
    cfg = small_cfg(horizon=4.0, mc_runs=3)
    sweep = epsilon_sweep(replace(cfg, epsilons=(0.1, 0.05, 0.025)))
    for i, eps in enumerate(sweep.epsilons):
        pieces_eps = filter_pieces(cfg.model, cfg.grid(), cfg.P0, eps_gain=eps)
        for j, seed in enumerate(sweep.seeds):
            r = run_epsilon_pair(cfg.model, cfg, eps, seed, pieces_eps=pieces_eps,
                                 pieces_zero=sweep.pieces_zero)
            assert r.sup_mean_gap == sweep.sup_mean_gaps[i, j]
            assert r.sup_cov_gap == sweep.sup_cov_gaps[i, j]


def test_sweep_requires_epsilons():
    cfg = replace(small_cfg(), epsilons=())
    with pytest.raises(ValueError):
        epsilon_sweep(cfg)


def test_sweep_orders_epsilons_descending():
    cfg = small_cfg(horizon=2.0, mc_runs=2)
    sweep = epsilon_sweep(replace(cfg, epsilons=(0.05, 0.2, 0.1)))
    assert sweep.epsilons == (0.2, 0.1, 0.05)


def test_fit_scaling_synthetic_slopes():
    eps = (0.2, 0.1, 0.05, 0.025)
    sweep = EpsilonSweep(epsilons=eps, seeds=(0,),
                         sup_mean_gaps=np.array([[3.0 * e * e] for e in eps]),
                         sup_cov_gaps=np.array([[0.5 * e] for e in eps]))
    fit = fit_scaling(sweep)
    assert fit.mean_slope == pytest.approx(2.0, abs=1e-10)
    assert fit.cov_slope == pytest.approx(1.0, abs=1e-10)
    assert not fit.degenerate


def test_fit_scaling_degenerate_all_zero():
    eps = (0.2, 0.1, 0.05)
    sweep = EpsilonSweep(epsilons=eps, seeds=(0,),
                         sup_mean_gaps=np.zeros((3, 1)), sup_cov_gaps=np.zeros((3, 1)))
    fit = fit_scaling(sweep)
    assert fit.degenerate
    assert fit.mean_slope is None and fit.cov_slope is None


def test_fit_scaling_needs_three_epsilons():
    sweep = EpsilonSweep(epsilons=(0.1, 0.05), seeds=(0,),
                         sup_mean_gaps=np.ones((2, 1)), sup_cov_gaps=np.ones((2, 1)))
    with pytest.raises(ValueError):
        fit_scaling(sweep)


def test_fit_scaling_needs_three_distinct_epsilons():
    # three values but one level: no slope can be fitted
    sweep = EpsilonSweep(epsilons=(0.1, 0.1, 0.1), seeds=(0,),
                         sup_mean_gaps=np.ones((3, 1)), sup_cov_gaps=np.ones((3, 1)))
    with pytest.raises(ValueError, match="distinct"):
        fit_scaling(sweep)


def test_stability_estimate_pure_exponential():
    mdl = constant_model([[-1.0]], [[0.0]], [[1.0]])
    grid = make_grid(10.0, 1e-3)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    est = exponential_stability_estimate(psi)
    assert est.alpha == pytest.approx(1.0, abs=1e-6)
    assert est.k_fit == pytest.approx(1.0, abs=1e-6)
    assert est.plausibly_exponential


def test_stability_estimate_flags_algebraic_decay():
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    grid = make_grid(40.0, 1e-2)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    est = exponential_stability_estimate(psi)
    assert est.alpha > 0  # slow drift still fits a small positive slope
    assert not est.plausibly_exponential  # flagged by the fit residual


def test_stability_estimate_flags_growth():
    mdl = constant_model([[0.4]], [[0.0]], [[1.0]])
    grid = make_grid(10.0, 1e-3)
    sol = integrate_dre(mdl, [[1.0]], grid)
    psi = closed_loop_propagator(sol)
    est = exponential_stability_estimate(psi)
    assert est.alpha < 0
    assert not est.plausibly_exponential


def test_two_time_constant_dominates_fit_constant():
    cfg = small_cfg(horizon=20.0)
    pieces = filter_pieces(cfg.model, cfg.grid(), cfg.P0)
    psi = closed_loop_propagator(pieces.riccati)
    est = exponential_stability_estimate(psi)
    k2 = _two_time_decay_constant(psi, est.alpha)
    assert k2 >= est.k_fit
    # the bound constant certifies the covariance gap at every eps (||F|| = 1)
    for eps in cfg.epsilons:
        sup = run_epsilon_pair(cfg.model, cfg, eps, cfg.seed, pieces_zero=pieces).sup_cov_gap
        assert sup <= 1.25 * eps ** 2 * k2 / (2.0 * est.alpha), eps


def test_sweep_monotone_per_seed():
    cfg = small_cfg(horizon=8.0, mc_runs=6)
    sweep = epsilon_sweep(cfg)
    assert np.all(np.diff(sweep.sup_mean_gaps, axis=0) <= 0.05 * sweep.sup_mean_gaps[:-1])
    assert np.all(np.diff(sweep.sup_cov_gaps, axis=0) <= 0.0)


def test_cov_gap_slope_is_quadratic():
    cfg = small_cfg(horizon=8.0, mc_runs=4)
    sweep = epsilon_sweep(cfg)
    fit = fit_scaling(sweep)
    assert 1.8 <= fit.cov_slope <= 2.2


# traced heap peak, in bytes, of one epsilon_sweep on the small-noise
# documents of the benchmark (T 25, dt 0.02, 10 substeps, four eps), as
# measured before the sweep ran its eps-gain filters as members of one scan;
# the sweep may not hold more than that at any point
SWEEP_PEAK_BYTES = {"rotation_partial": 4_345_172, "rotation": 7_033_560}


@pytest.mark.parametrize("name", sorted(SWEEP_PEAK_BYTES))
def test_epsilon_sweep_heap_peak_is_bounded(name):
    cfg = replace(builtin_scenario(name), horizon=25.0, dt=0.02, substeps=10,
                  epsilons=(0.2, 0.1, 0.05, 0.025))
    epsilon_sweep(replace(cfg, horizon=1.0))    # first-call allocations outside the count
    tracemalloc.start()
    try:
        epsilon_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SWEEP_PEAK_BYTES[name]
