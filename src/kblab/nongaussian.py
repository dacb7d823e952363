"""Optimal filtering for initial conditions x0 = v0 + Gaussian with atomic v0.

The posterior over the state is a finite Gaussian mixture: a shared Gaussian
part (the mean/covariance filter started from the Gaussian component's
moments), a propagator G_t coupling each atom location into the component
means, and log-weights that are quadratic in the atom locations:

    log w_i(t) ∝ log pi_i + 0.5 x_i^T weight_quad_t x_i + x_i^T b_t,

with weight_quad_t = -∫ G^T C^T R^-1 C G ds the observed information along
the closed loop, and b_t = ∫ G^T C^T R^-1 dnu driven by the innovations of the
shared Gaussian filter. G_t satisfies the closed-loop flow
dG = (A - P C^T R^-1 C) G dt with G_0 = I: it is the closed-loop propagator
Psi_t of the shared filter (propagate.closed_loop_propagator). weight_quad and
b use the start-of-node rectangle rule, under which the mixture weights
coincide with a bank-of-filters likelihood recursion exactly in the discrete
algebra.

bank_oracle is the structurally independent cross-check: one mean filter per
atom plus classical log-likelihood increments. It is used only in tests and
verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kalman import FilterPieces, FilterRun, _checked_pieces, _scan, run_filter
from .model import LtvModel
from .propagate import closed_loop_propagator
from .riccati import RiccatiSolution
from .simulate import ObservationPath


def logsumexp(a: np.ndarray, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


@dataclass
class ExtendedSystemPaths:
    """Joint paths of the shared Gaussian filter and the atom-coupling terms."""

    mean: np.ndarray            # (K+1, m) shared Gaussian filter mean
    cov: RiccatiSolution        # shared covariance path and its grid
    propagator: np.ndarray      # (K+1, m, m) G_t (atom-to-mean coupling)
    weight_quad: np.ndarray     # (K+1, m, m) -int G^T C^T R^-1 C G ds
    linear: np.ndarray          # (K+1, m) b_t


def integrate_extended_system(model: LtvModel, obs: ObservationPath, init,
                              pieces: FilterPieces | None = None) -> ExtendedSystemPaths:
    """Integrate the shared filter plus the coupling/weight paths on the grid of obs.

    init = (mean, cov) of the Gaussian component of x0; the covariance must be
    nonsingular for the weights to be meaningful.
    """
    run = run_filter(model, obs, init, pieces=pieces)
    prop = closed_loop_propagator(run.pieces.riccati).values
    grid = obs.grid
    h = grid[1:] - grid[:-1]
    c = model.C_at(grid[:-1])
    rinv = model.Rinv_at(grid[:-1])
    g_lo = prop[:-1]
    # G_k^T C_k^T R_k^-1, the factor of both the quadratic and the linear increments
    gcr = np.swapaxes(g_lo, 1, 2) @ np.swapaxes(c, 1, 2) @ rinv
    k1 = len(grid)
    weight_quad = np.zeros((k1, model.m, model.m))
    np.cumsum(-(gcr @ (c @ g_lo)) * h[:, None, None], axis=0, out=weight_quad[1:])
    # b increments: G_k^T C_k^T R_k^-1 dnu_k, dnu the shared filter's innovations
    linear = np.zeros((k1, model.m))
    np.cumsum(np.einsum("kij,kj->ki", gcr, run.innovations), axis=0, out=linear[1:])
    return ExtendedSystemPaths(mean=run.means, cov=run.pieces.riccati, propagator=prop,
                               weight_quad=weight_quad, linear=linear)


@dataclass
class MixturePosterior:
    """Posterior path of a finite Gaussian mixture belief."""

    grid: np.ndarray
    log_weights: np.ndarray     # (K+1, n_atoms), normalized per node
    component_means: np.ndarray  # (K+1, n_atoms, m)
    component_cov: np.ndarray   # (K+1, m, m) shared across components
    mean: np.ndarray            # (K+1, m) posterior mean
    cov: np.ndarray             # (K+1, m, m) posterior covariance

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _atoms(atoms, m: int):
    """(n_atoms, m) locations and log prior weights of a sequence of (x_i, pi_i)."""
    atoms = list(atoms)
    if not atoms:
        raise ValueError("atoms must be nonempty")
    locs = np.stack([np.asarray(x, dtype=float).reshape(m) for x, _ in atoms])
    return locs, np.log(np.array([w for _, w in atoms], dtype=float))


def _posterior_moments(grid, logw, comp_means, shared_cov):
    w = np.exp(logw)                                   # (K+1, k)
    mean = np.einsum("tk,tkm->tm", w, comp_means)
    dev = comp_means - mean[:, None, :]
    spread = np.einsum("tk,tkm,tkn->tmn", w, dev, dev)
    return MixturePosterior(grid=grid, log_weights=logw, component_means=comp_means,
                            component_cov=shared_cov, mean=mean, cov=shared_cov + spread)


def mixture_filter(ext: ExtendedSystemPaths | LtvModel, atoms, model_atoms=None,
                   gaussian_init=None) -> MixturePosterior:
    """Exact mixture posterior for atomic v0 from the extended-system paths ext.

    atoms: sequence of (x_i, pi_i); weights must sum to 1. Raises on NaN in
    the weight exponents; underflow is handled by log-domain normalization.

    mixture_filter(model, obs, model_atoms, gaussian_init), the form
    perfbench/limit.py calls, is mixture_filter(integrate_extended_system(model,
    obs, gaussian_init), model_atoms); it goes once that script moves.
    """
    if isinstance(ext, LtvModel):
        return mixture_filter(integrate_extended_system(ext, atoms, gaussian_init), model_atoms)
    grid = ext.cov.grid
    locs, logpi = _atoms(atoms, ext.mean.shape[1])
    quad = 0.5 * np.einsum("ki,tij,kj->tk", locs, ext.weight_quad, locs)
    lin = np.einsum("tj,kj->tk", ext.linear, locs)
    raw = logpi[None, :] + quad + lin
    if np.isnan(raw).any():
        t_bad = grid[np.isnan(raw).any(axis=1).argmax()]
        raise FloatingPointError(f"mixture weight exponent NaN at t={t_bad:.6g}")
    logw = raw - logsumexp(raw, axis=1)[:, None]
    comp_means = ext.mean[:, None, :] + np.einsum("tij,kj->tki", ext.propagator, locs)
    return _posterior_moments(grid, logw, comp_means, ext.cov.values)


def bank_oracle(model: LtvModel, obs: ObservationPath, atoms, gaussian_init,
                pieces: FilterPieces | None = None) -> MixturePosterior:
    """Static multiple-model bank: one mean filter per atom plus log-likelihoods.

    Component i runs the filter from (m' + x_i, P'). Its log-likelihood is
    accumulated relative to component 1's with start-of-node values:
    (C (m_i - m_1))^T R^-1 (dy - C (m_i + m_1) dt / 2), the difference of
    the classical increments (C m)^T R^-1 dy - 0.5 (C m)^T R^-1 (C m) dt.
    Each likelihood alone grows with the signal's energy on unstable
    dynamics; their differences do not, so no digits cancel when the weights
    are normalized. Structurally independent of mixture_filter; used as the
    test oracle. Pieces built from another covariance than P' raise
    ValueError, as in kalman.run_filter.
    """
    locs, logpi = _atoms(atoms, model.m)
    mprime, pprime = gaussian_init
    mprime = np.asarray(mprime, dtype=float).reshape(model.m)
    grid = obs.grid
    pieces = _checked_pieces(model, grid, pprime, pieces)
    x0 = (mprime[:, None] + locs.T)                    # (m, k)
    means = _scan([pieces], obs.increments[:, :, None], x0[None])[:, 0]      # (K+1, m, k)

    h = grid[1:] - grid[:-1]
    c = model.C_at(grid[:-1])
    rinv = model.Rinv_at(grid[:-1])
    n_steps = len(grid) - 1
    k = locs.shape[0]
    loglik = np.zeros((n_steps + 1, k))
    first = means[:-1, :, :1]
    cdiff = np.einsum("tij,tjk->tik", c, means[:-1] - first)              # (K, n, k)
    csum = np.einsum("tij,tjk->tik", c, means[:-1] + first)
    resid = obs.increments[:, :, None] - 0.5 * h[:, None, None] * csum
    np.cumsum(np.einsum("tik,tij,tjk->tk", cdiff, rinv, resid), axis=0, out=loglik[1:])
    raw = logpi[None, :] + loglik
    logw = raw - logsumexp(raw, axis=1)[:, None]
    comp_means = np.swapaxes(means, 1, 2)              # (K+1, k, m)
    return _posterior_moments(grid, logw, comp_means, pieces.riccati.values)


@dataclass
class MergingReport:
    """Distributional proximity of the mixture posterior to a reference Gaussian."""

    mean_gap: np.ndarray        # (K+1,)
    cos_gaps: np.ndarray        # (K+1, n_freq)
    ratios: dict                # gap(T)/gap(1) per tracked quantity


def _gaussian_cos(mean, cov, freqs):
    """E[cos(a^T X)] for X ~ N(mean, cov), batched over nodes and frequencies."""
    phase = np.einsum("fi,ti->tf", freqs, mean)
    damp = np.exp(-0.5 * np.einsum("fi,tij,fj->tf", freqs, cov, freqs))
    return np.cos(phase) * damp


def merging_report(posterior: MixturePosterior, reference: FilterRun,
                   frequencies) -> MergingReport:
    """Gap paths |pi_t(g_a) - N(ref mean, ref cov)(g_a)| for g_a = cos(a^T x).

    The reference Gaussian is the filter run's mean and covariance paths.

    Mixture expectations are exact finite sums of Gaussian characteristic
    values; ratios compare the horizon end against the grid node nearest t = 1.
    """
    grid = posterior.grid
    freqs = np.atleast_2d(np.asarray(frequencies, dtype=float))
    w = posterior.weights
    phase = np.einsum("fi,tki->tkf", freqs, posterior.component_means)
    damp = np.exp(-0.5 * np.einsum("fi,tij,fj->tf", freqs, posterior.component_cov, freqs))
    mix = np.einsum("tk,tkf->tf", w, np.cos(phase)) * damp
    ref = _gaussian_cos(reference.means, reference.pieces.riccati.values, freqs)
    cos_gaps = np.abs(mix - ref)
    mean_gap = np.linalg.norm(posterior.mean - reference.means, axis=1)
    kref = int(np.argmin(np.abs(grid - 1.0)))

    def ratio(end, ref_val):
        if ref_val <= 1e-300:
            return 0.0 if end <= 1e-300 else np.inf
        return float(end / ref_val)

    ratios = {"mean": ratio(mean_gap[-1], mean_gap[kref])}
    for i in range(freqs.shape[0]):
        ratios[f"cos_{i}"] = ratio(cos_gaps[-1, i], cos_gaps[kref, i])
    return MergingReport(mean_gap=mean_gap, cos_gaps=cos_gaps, ratios=ratios)


__all__ = [
    "ExtendedSystemPaths",
    "MergingReport",
    "MixturePosterior",
    "bank_oracle",
    "integrate_extended_system",
    "logsumexp",
    "merging_report",
    "mixture_filter",
]
