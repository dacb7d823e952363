"""Small system-noise protocol: eps-gain vs zero-noise-gain filters on shared data.

For each (eps, seed): simulate the eps-noisy system and its observations, run
the filter with the eps-perturbed Riccati gain and the filter with the
noise-free Riccati gain on the SAME observation path (the zero-noise-gain
filter is deliberately driven by the noisy observations — that is the whole
comparison), and record sup-path mean and covariance gaps. Sweeps fit log-log
scaling exponents of the median sup gaps against eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kalman import FilterPieces, filter_pieces, filter_pieces_batch, run_filter
from .model import ExperimentConfig, LtvModel
from .propagate import MatrixPath
from .riccati import covariance_gap
from .simulate import generate_observation_path


@dataclass
class EpsilonPairResult:
    eps: float
    seed: int | tuple
    sup_mean_gap: float | np.ndarray    # (S,) for a tuple of seeds
    sup_cov_gap: float


def run_epsilon_pair(model: LtvModel, cfg: ExperimentConfig, eps: float, seed,
                     pieces_eps=None, pieces_zero=None) -> EpsilonPairResult:
    """One (eps, seed) cell: identical initialization, identical observations.

    A tuple of seeds runs one cell per seed, as seed columns.
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
    _, _, sup_cov, _ = covariance_gap(eps, pieces_eps.riccati, pieces_zero.riccati)
    return EpsilonPairResult(eps=eps, seed=seed, sup_mean_gap=mean_gap.max(axis=0),
                             sup_cov_gap=sup_cov)


@dataclass
class EpsilonSweep:
    epsilons: tuple
    seeds: tuple
    sup_mean_gaps: np.ndarray   # (n_eps, n_seeds)
    sup_cov_gaps: np.ndarray    # (n_eps, n_seeds)
    pieces_zero: FilterPieces | None = None   # the noise-free-gain filter of the sweep
    median_mean: np.ndarray = field(init=False)
    median_cov: np.ndarray = field(init=False)

    def __post_init__(self):
        self.median_mean = np.median(self.sup_mean_gaps, axis=1)
        self.median_cov = np.median(self.sup_cov_gaps, axis=1)


def epsilon_sweep(model: LtvModel, cfg: ExperimentConfig, epsilons=None) -> EpsilonSweep:
    """Run the (eps, seed) grid with seeds cfg.seed + i, i < cfg.mc_runs.

    Epsilons are processed in descending order (the convention the per-seed
    monotonicity check relies on). The Riccati flows of eps = 0 and of every
    eps integrate in one batched sweep; each eps runs every seed at once
    through run_epsilon_pair.
    """
    epsilons = tuple(sorted(cfg.epsilons if epsilons is None else epsilons, reverse=True))
    if not epsilons:
        raise ValueError("no epsilon values configured")
    seeds = tuple(cfg.seed + i for i in range(cfg.mc_runs))
    grid = cfg.grid()

    members = tuple(dict.fromkeys((0.0,) + epsilons))
    pieces = dict(zip(members, filter_pieces_batch(model, grid, cfg.P0, eps_gain=members)))
    pieces_zero = pieces[0.0]
    sup_mean = np.empty((len(epsilons), len(seeds)))
    sup_cov = np.empty((len(epsilons), len(seeds)))
    for i, eps in enumerate(epsilons):
        cell = run_epsilon_pair(model, cfg, eps, seeds, pieces[eps], pieces_zero)
        sup_mean[i] = cell.sup_mean_gap
        sup_cov[i] = cell.sup_cov_gap
    return EpsilonSweep(epsilons=epsilons, seeds=seeds, sup_mean_gaps=sup_mean,
                        sup_cov_gaps=sup_cov, pieces_zero=pieces_zero)


@dataclass
class ScalingFit:
    mean_slope: float | None
    cov_slope: float | None
    degenerate: bool = False


def _loglog_slope(eps, vals):
    vals = np.asarray(vals, dtype=float)
    if np.all(vals == 0.0):
        return None
    x = np.log(np.asarray(eps, dtype=float))
    return float(np.polyfit(x, np.log(vals), 1)[0])


def fit_scaling(sweep: EpsilonSweep) -> ScalingFit:
    """Least-squares slopes of log(median sup gap) against log eps.

    Requires >= 3 distinct positive eps values; all-zero gaps are reported as
    degenerate with no fit.
    """
    eps = [e for e in sweep.epsilons if e > 0]
    if len(eps) < 3:
        raise ValueError("need at least 3 positive epsilon values to fit a slope")
    keep = [i for i, e in enumerate(sweep.epsilons) if e > 0]
    mean_slope = _loglog_slope(eps, sweep.median_mean[keep])
    cov_slope = _loglog_slope(eps, sweep.median_cov[keep])
    return ScalingFit(mean_slope=mean_slope, cov_slope=cov_slope,
                      degenerate=(mean_slope is None and cov_slope is None))


@dataclass
class StabilityEstimate:
    k_fit: float
    alpha: float
    rms_residual: float

    @property
    def plausibly_exponential(self) -> bool:
        return self.alpha > 0.0 and self.rms_residual <= 1e-3


def exponential_stability_estimate(psi: MatrixPath) -> StabilityEstimate:
    """Fit log ||Psi_t|| ~ log K - alpha t on the tail half of the horizon.

    alpha > 0 with a small residual declares exponential closed-loop decay
    plausible for the scenario; algebraic decay shows up as a large residual,
    growth as alpha <= 0.
    """
    norms = np.linalg.norm(psi.values, ord=2, axis=(1, 2))
    half = len(psi.grid) // 2
    t = psi.grid[half:]
    y = np.log(norms[half:])
    coef = np.polyfit(t, y, 1)
    fitted = np.polyval(coef, t)
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return StabilityEstimate(k_fit=float(np.exp(coef[1])), alpha=float(-coef[0]),
                             rms_residual=rms)


__all__ = [
    "EpsilonPairResult",
    "EpsilonSweep",
    "ScalingFit",
    "StabilityEstimate",
    "epsilon_sweep",
    "exponential_stability_estimate",
    "fit_scaling",
    "run_epsilon_pair",
]
