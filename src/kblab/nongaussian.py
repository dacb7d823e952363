"""Optimal filtering for initial conditions x0 = v0 + Gaussian with atomic v0.

The posterior over the state is a finite Gaussian mixture: a shared Gaussian
part (the mean/covariance filter started from the Gaussian component's
moments), a propagator G_t coupling each atom location into the component
means, and log-weights that are quadratic in the atom locations:

    log w_i(t) ∝ log pi_i + 0.5 x_i^T (Q_t - M_t) x_i + x_i^T b_t,

where M_t accumulates observed information along the free flow, Q_t the
corresponding quantity along the closed loop, and b_t is driven by the
innovations of the shared Gaussian filter. G_t satisfies the closed-loop flow
dG = (A - P C^T R^-1 C) G dt with G_0 = I, so it is computed as the running
product of the shared filter's one-step matrices; Q, M and b use the
start-of-node rectangle rule, under which the mixture weights coincide with a
bank-of-filters likelihood recursion exactly in the discrete algebra.

bank_oracle is the structurally independent cross-check: one mean filter per
atom plus classical log-likelihood increments. It is used only in tests and
verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kalman import FilterPieces, FilterRun, _scan, filter_pieces, run_filter
from .model import LtvModel
from .propagate import closed_loop_propagator, fundamental_matrix
from .riccati import RiccatiSolution
from .simulate import ObservationPath


def logsumexp(a: np.ndarray, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


@dataclass
class ExtendedSystemPaths:
    """Joint paths of the shared Gaussian filter and the atom-coupling terms."""

    grid: np.ndarray
    mean: np.ndarray            # (K+1, m) shared Gaussian filter mean
    cov: RiccatiSolution        # shared covariance path
    propagator: np.ndarray      # (K+1, m, m) G_t (atom-to-mean coupling)
    coupling: np.ndarray        # (K+1, m, m) S_t = G_t - Phi_t
    quad_closed: np.ndarray     # (K+1, m, m) Q_t
    quad_info: np.ndarray       # (K+1, m, m) M_t
    linear: np.ndarray          # (K+1, m) b_t
    gauss_run: FilterRun

    @property
    def weight_quad(self) -> np.ndarray:
        return self.quad_closed - self.quad_info


def integrate_extended_system(model: LtvModel, grid, obs: ObservationPath,
                              init, pieces: FilterPieces | None = None) -> ExtendedSystemPaths:
    """Integrate the shared filter plus the coupling/weight paths on one grid.

    init = (mean, cov) of the Gaussian component of x0; the covariance must be
    nonsingular for the weights to be meaningful.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.array_equal(grid, obs.grid):
        raise ValueError("grid does not match the observation grid")
    mprime, pprime = init
    if pieces is None:
        pieces = filter_pieces(model, grid, pprime)
    run = run_filter(model, obs, (mprime, pprime), pieces=pieces)
    phi = fundamental_matrix(model, grid)
    prop = closed_loop_propagator(pieces.riccati).values
    coupling = prop - phi.values

    h = grid[1:] - grid[:-1]
    c = model.C_at(grid[:-1])
    rinv = np.linalg.inv(model.R_at(grid[:-1]))
    g = np.swapaxes(c, 1, 2) @ rinv @ c              # (K, m, m)

    phi_lo = phi.values[:-1]
    s_lo = coupling[:-1]
    gp = g @ phi_lo
    gs = g @ s_lo
    m_inc = (np.swapaxes(phi_lo, 1, 2) @ gp) * h[:, None, None]
    q_inc = -(np.swapaxes(phi_lo, 1, 2) @ gs
              + np.swapaxes(s_lo, 1, 2) @ gp
              + np.swapaxes(s_lo, 1, 2) @ gs) * h[:, None, None]
    k1 = len(grid)
    quad_info = np.zeros((k1, model.m, model.m))
    quad_closed = np.zeros_like(quad_info)
    np.cumsum(m_inc, axis=0, out=quad_info[1:])
    np.cumsum(q_inc, axis=0, out=quad_closed[1:])

    # b increments: G_k^T C_k^T R_k^-1 (dy_k - C_k mean_k dt)
    resid = obs.increments - np.einsum("kij,kj->ki", c * h[:, None, None], run.means[:-1])
    gcr = np.swapaxes(prop[:-1], 1, 2) @ np.swapaxes(c, 1, 2) @ rinv
    b_inc = np.einsum("kij,kj->ki", gcr, resid)
    linear = np.zeros((k1, model.m))
    np.cumsum(b_inc, axis=0, out=linear[1:])

    return ExtendedSystemPaths(grid=grid, mean=run.means, cov=pieces.riccati,
                               propagator=prop, coupling=coupling,
                               quad_closed=quad_closed, quad_info=quad_info,
                               linear=linear, gauss_run=run)


@dataclass
class MixturePosterior:
    """Posterior path of a finite Gaussian mixture belief."""

    grid: np.ndarray
    atoms: np.ndarray           # (n_atoms, m) locations of v0
    log_weights: np.ndarray     # (K+1, n_atoms), normalized per node
    component_means: np.ndarray  # (K+1, n_atoms, m)
    component_cov: np.ndarray   # (K+1, m, m) shared across components
    mean: np.ndarray            # (K+1, m) posterior mean
    cov: np.ndarray             # (K+1, m, m) posterior covariance

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _posterior_moments(grid, atoms, logw, comp_means, shared_cov):
    w = np.exp(logw)                                   # (K+1, k)
    mean = np.einsum("tk,tkm->tm", w, comp_means)
    dev = comp_means - mean[:, None, :]
    spread = np.einsum("tk,tkm,tkn->tmn", w, dev, dev)
    return MixturePosterior(grid=grid, atoms=atoms, log_weights=logw,
                            component_means=comp_means, component_cov=shared_cov,
                            mean=mean, cov=shared_cov + spread)


def mixture_filter(model: LtvModel, obs: ObservationPath, atoms, gaussian_init,
                   ext: ExtendedSystemPaths | None = None) -> MixturePosterior:
    """Exact mixture posterior for atomic v0 via the extended-system paths.

    atoms: sequence of (x_i, pi_i); weights must sum to 1. Raises on NaN in
    the weight exponents; underflow is handled by log-domain normalization.
    """
    atoms = list(atoms)
    if not atoms:
        raise ValueError("atoms must be nonempty")
    locs = np.stack([np.asarray(x, dtype=float).reshape(model.m) for x, _ in atoms])
    logpi = np.log(np.array([w for _, w in atoms], dtype=float))
    if ext is None:
        ext = integrate_extended_system(model, obs.grid, obs, gaussian_init)
    wq = ext.weight_quad                               # (K+1, m, m)
    quad = 0.5 * np.einsum("ki,tij,kj->tk", locs, wq, locs)
    lin = np.einsum("tj,kj->tk", ext.linear, locs)
    raw = logpi[None, :] + quad + lin
    if np.isnan(raw).any():
        t_bad = ext.grid[np.isnan(raw).any(axis=1).argmax()]
        raise FloatingPointError(f"mixture weight exponent NaN at t={t_bad:.6g}")
    logw = raw - logsumexp(raw, axis=1)[:, None]
    comp_means = ext.mean[:, None, :] + np.einsum("tij,kj->tki", ext.propagator, locs)
    return _posterior_moments(ext.grid, locs, logw, comp_means, ext.cov.values)


def bank_oracle(model: LtvModel, obs: ObservationPath, atoms, gaussian_init,
                pieces: FilterPieces | None = None) -> MixturePosterior:
    """Static multiple-model bank: one mean filter per atom plus log-likelihoods.

    Component i runs the filter from (m' + x_i, P'); its log-likelihood
    accumulates (C x_i)^T R^-1 dy - 0.5 (C x_i)^T R^-1 (C x_i) dt with
    start-of-node values. Structurally independent of mixture_filter; used as
    the test oracle.
    """
    atoms = list(atoms)
    if not atoms:
        raise ValueError("atoms must be nonempty")
    mprime, pprime = gaussian_init
    mprime = np.asarray(mprime, dtype=float).reshape(model.m)
    locs = np.stack([np.asarray(x, dtype=float).reshape(model.m) for x, _ in atoms])
    logpi = np.log(np.array([w for _, w in atoms], dtype=float))
    grid = obs.grid
    if pieces is None:
        pieces = filter_pieces(model, grid, pprime)
    x0 = (mprime[:, None] + locs.T)                    # (m, k)
    means, _ = _scan(pieces, obs.increments[:, :, None], x0)   # (K+1, m, k)

    h = grid[1:] - grid[:-1]
    c = model.C_at(grid[:-1])
    rinv = np.linalg.inv(model.R_at(grid[:-1]))
    n_steps = len(grid) - 1
    k = locs.shape[0]
    loglik = np.zeros((n_steps + 1, k))
    cx = np.einsum("tij,tjk->tik", c, means[:-1])      # (K, n, k)
    rcx = np.einsum("tij,tjk->tik", rinv, cx)
    inc = (np.einsum("tik,ti->tk", rcx, obs.increments)
           - 0.5 * np.einsum("tik,tik->tk", cx, rcx) * h[:, None])
    np.cumsum(inc, axis=0, out=loglik[1:])
    raw = logpi[None, :] + loglik
    logw = raw - logsumexp(raw, axis=1)[:, None]
    comp_means = np.swapaxes(means, 1, 2)              # (K+1, k, m)
    return _posterior_moments(grid, locs, logw, comp_means, pieces.riccati.values)


@dataclass
class MergingReport:
    """Distributional proximity of the mixture posterior to a reference Gaussian."""

    grid: np.ndarray
    frequencies: np.ndarray     # (n_freq, m) cosine test-function frequencies
    mean_gap: np.ndarray        # (K+1,)
    cos_gaps: np.ndarray        # (K+1, n_freq)
    ratios: dict                # gap(T)/gap(1) per tracked quantity


def _gaussian_cos(mean, cov, freqs):
    """E[cos(a^T X)] for X ~ N(mean, cov), batched over nodes and frequencies."""
    phase = np.einsum("fi,ti->tf", freqs, mean)
    damp = np.exp(-0.5 * np.einsum("fi,tij,fj->tf", freqs, cov, freqs))
    return np.cos(phase) * damp


def merging_report(posterior: MixturePosterior, reference: FilterRun,
                   reference_ric: RiccatiSolution, frequencies) -> MergingReport:
    """Gap paths |pi_t(g_a) - N(ref mean, ref cov)(g_a)| for g_a = cos(a^T x).

    Mixture expectations are exact finite sums of Gaussian characteristic
    values; ratios compare the horizon end against the grid node nearest t = 1.
    """
    grid = posterior.grid
    freqs = np.atleast_2d(np.asarray(frequencies, dtype=float))
    w = posterior.weights
    phase = np.einsum("fi,tki->tkf", freqs, posterior.component_means)
    damp = np.exp(-0.5 * np.einsum("fi,tij,fj->tf", freqs, posterior.component_cov, freqs))
    mix = np.einsum("tk,tkf->tf", w, np.cos(phase)) * damp
    ref = _gaussian_cos(reference.means, reference_ric.values, freqs)
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
    return MergingReport(grid=grid, frequencies=freqs, mean_gap=mean_gap,
                         cos_gaps=cos_gaps, ratios=ratios)


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
