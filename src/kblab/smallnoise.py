"""Small system-noise protocol: eps-gain vs zero-noise-gain filters on shared data.

For each (eps, seed): simulate the eps-noisy system and its observations, run
the filter with the eps-perturbed Riccati gain and the filter with the
noise-free Riccati gain on the SAME observation path (the zero-noise-gain
filter is deliberately driven by the noisy observations — that is the whole
comparison), and record sup-path mean and covariance gaps. Sweeps fit log-log
scaling exponents of the median sup gaps against eps.

A sweep makes one Riccati sweep, one streamed simulation pass and two filter
scans: the zero-noise-gain filter over the paths of every eps, and the E
eps-gain filters as members of one scan, each on the path of its eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import timed
from .kalman import FilterPieces, _scan, filter_pieces_batch
from .model import ExperimentConfig
from .propagate import MatrixPath, spectral_norms
from .riccati import covariance_gap
from .simulate import generate_observation_path


@dataclass
class EpsilonSweep:
    epsilons: tuple
    seeds: tuple
    sup_mean_gaps: np.ndarray   # (n_eps, n_seeds)
    sup_cov_gaps: np.ndarray    # (n_eps, n_seeds)
    pieces_zero: FilterPieces | None = None   # the noise-free-gain filter of the sweep
    stage_times: dict = field(default_factory=dict)   # stage name -> wall seconds
    median_mean: np.ndarray = field(init=False)
    median_cov: np.ndarray = field(init=False)

    def __post_init__(self):
        self.median_mean = np.median(self.sup_mean_gaps, axis=1)
        self.median_cov = np.median(self.sup_cov_gaps, axis=1)


def epsilon_sweep(cfg: ExperimentConfig) -> EpsilonSweep:
    """Run the (eps, seed) grid of cfg.model, eps in cfg.epsilons and seeds cfg.seed + i, i < mc_runs.

    Epsilons are processed in descending order (the convention the per-seed
    monotonicity check relies on). The Riccati flows of eps = 0 and of every
    eps integrate in one batched sweep, and the observation paths of every
    eps come from one streamed simulation pass, side by side as seed
    columns. The zero-noise-gain filter runs once over the columns of every
    eps, and the E eps-gain filters run as E members of one scan, each on the
    columns of its eps. Every cell is bitwise the cell of one eps and one seed
    run alone: that eps's path from generate_observation_path and the two
    filters from run_filter. The scans keep only the means. The wall time of
    the three stages goes to stage_times.
    """
    epsilons = tuple(sorted(cfg.epsilons, reverse=True))
    if not epsilons:
        raise ValueError("no epsilon values configured")
    seeds = tuple(cfg.seed + i for i in range(cfg.mc_runs))
    grid = cfg.grid()
    times = {}

    with timed(times, "riccati"):
        members = tuple(dict.fromkeys((0.0,) + epsilons))
        pieces = dict(zip(members, filter_pieces_batch(cfg.model, grid, cfg.P0, eps_gain=members)))
    pieces_zero = pieces[0.0]
    with timed(times, "simulate"):
        # the paths of every eps side by side as seed columns; the buffer
        # the paths are views of is released before the filters run
        paths = generate_observation_path(cfg, seed=seeds, eps=epsilons)
        increments = np.concatenate([p.increments for p in paths], axis=2)
        del paths
    with timed(times, "filter"):
        n_eps, n_seeds, m = len(epsilons), len(seeds), cfg.model.m
        mean0 = np.reshape(cfg.m0, (1, m, 1))
        # the zero-noise-gain filter once over the seed columns of every eps,
        # and the E eps-gain filters as E members of one scan, each on the
        # seed columns of its eps
        means_zero = _scan([pieces_zero], increments,
                           np.broadcast_to(mean0, (1, m, n_eps * n_seeds)))[:, 0]
        means_eps = _scan([pieces[eps] for eps in epsilons], increments,
                          np.broadcast_to(mean0, (n_eps, m, n_seeds)))
        sup_mean = np.empty((n_eps, n_seeds))
        sup_cov = np.empty((n_eps, n_seeds))
        for i, eps in enumerate(epsilons):
            # the gap and its square overwrite the eps-gain means; the sum
            # over m and the root are np.linalg.norm's, without its temporaries
            gap = means_eps[:, i]
            np.subtract(gap, means_zero[:, :, i * n_seeds:(i + 1) * n_seeds], out=gap)
            np.multiply(gap, gap, out=gap)
            sup_mean[i] = np.sqrt(np.add.reduce(gap, axis=1)).max(axis=0)
            sup_cov[i] = covariance_gap(pieces[eps].riccati, pieces_zero.riccati)[2]
    return EpsilonSweep(epsilons=epsilons, seeds=seeds, sup_mean_gaps=sup_mean,
                        sup_cov_gaps=sup_cov, pieces_zero=pieces_zero, stage_times=times)


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
    if len(set(eps)) < 3:
        raise ValueError("need at least 3 distinct positive epsilon values to fit a slope")
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
    norms = spectral_norms(psi.values)
    half = len(psi.grid) // 2
    t = psi.grid[half:]
    y = np.log(norms[half:])
    coef = np.polyfit(t, y, 1)
    fitted = np.polyval(coef, t)
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return StabilityEstimate(k_fit=float(np.exp(coef[1])), alpha=float(-coef[0]),
                             rms_residual=rms)


__all__ = [
    "EpsilonSweep",
    "ScalingFit",
    "StabilityEstimate",
    "epsilon_sweep",
    "exponential_stability_estimate",
    "fit_scaling",
]
