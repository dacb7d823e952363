"""Kalman-Bucy mean filtering, mismatched-initialization pairs, and diagnostics.

Discretization (see the gain construction in _integrators.gain_steps): per
coarse step the mean update is

    x_{k+1} = M_k x_k + D_k dy_k,

with M_k the RK4 one-step matrix of the closed-loop flow and
D_k = (Phi_step_k - M_k) pinv(C_k dt) the consistent gain. Its remainder
E_k = (Phi_step_k - M_k) - D_k C_k dt is zero up to rounding for C of full
column rank (pinv(C) C = I) and of discretization size otherwise. Two
filters differing only in their initialization satisfy, for every C, the
exact discrete recursion

    gap_{k+1} = Mbar_k gap_k + (D_k - Dbar_k) dnu_k - (E_k - Ebar_k) x_k,

dnu and x being the correct filter's innovation and mean. This makes the
mean-gap decomposition gap_t = Psibar_t (m0 - mbar) + Psibar_t Zhat_t + term3_t,
with term3_t the propagated sum of the remainder terms, an algebraic
identity of the implementation rather than an approximation.

Observation paths may carry one seed per column; filters, pairs and the
decomposition then run on every column at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrators import gain_steps, transition_steps
from .model import LtvModel, ModelValidationError
from .propagate import MatrixPath, closed_loop_propagator, same_grid
from .riccati import RiccatiSolution, integrate_dre, integrate_dre_batch
from .simulate import ObservationPath, generate_observation_path


@dataclass
class FilterPieces:
    """Per-step affine update pieces shared by every run on one (P0, eps) pair."""

    grid: np.ndarray
    riccati: RiccatiSolution
    msteps: np.ndarray          # (K, m, m) closed-loop one-step matrices
    gains: np.ndarray           # (K, m, n)
    cdt: np.ndarray             # (K, n, m) C_k * dt
    remainder: np.ndarray       # (K, m, m) E_k = (Phi_step_k - M_k) - D_k C_k dt


def filter_pieces(model: LtvModel, grid, P0, eps_gain: float = 0.0) -> FilterPieces:
    grid = np.asarray(grid, dtype=float)
    return _assemble(model, grid, [integrate_dre(model, P0, grid, eps=eps_gain)])[0]


def filter_pieces_batch(model: LtvModel, grid, P0, eps_gain=0.0) -> list[FilterPieces]:
    """filter_pieces for B (P0, eps) members from one Riccati sweep.

    P0 is (B, m, m) and/or eps_gain has B entries (see integrate_dre_batch);
    member b is bitwise filter_pieces(model, grid, P0[b], eps_gain[b]).
    """
    grid = np.asarray(grid, dtype=float)
    return _assemble(model, grid, integrate_dre_batch(model, P0, grid, eps=eps_gain))


def _assemble(model: LtvModel, grid, rics) -> list[FilterPieces]:
    """Pieces per Riccati solution; the gains of all members come from one call."""
    phi_steps = transition_steps(model, grid)
    msteps = np.stack([r.closed_loop_steps for r in rics])
    gains = gain_steps(model, grid, msteps, phi_steps)
    h = (grid[1:] - grid[:-1])[:, None, None]
    cdt = model.C_at(grid[:-1]) * h
    remainders = (phi_steps - msteps) - gains @ cdt
    return [FilterPieces(grid=grid, riccati=r, msteps=r.closed_loop_steps, gains=g, cdt=cdt,
                         remainder=e)
            for r, g, e in zip(rics, gains, remainders)]


@dataclass
class FilterRun:
    """One filter trajectory driven by an observation path."""

    grid: np.ndarray
    means: np.ndarray           # (K+1, m); (K+1, m, S) for S seed columns
    innovations: np.ndarray     # (K, n), dnu_k = dy_k - C_k x_k dt; (K, n, S)
    riccati: RiccatiSolution
    init_mean: np.ndarray       # (m,); (m, S)
    pieces: FilterPieces


def _scan(pieces: FilterPieces, increments: np.ndarray, x0: np.ndarray):
    """Run the affine recursion; states may be batched as columns.

    x0 of shape (m,) or (m, S); increments (K, n) or (K, n, S).
    Returns (means, innovations) with matching batch shape.
    """
    msteps, cdt = pieces.msteps, pieces.cdt
    n_steps = msteps.shape[0]
    x = np.asarray(x0, dtype=float)
    means = np.empty((n_steps + 1,) + x.shape)
    means[0] = x
    # the loop carries only the mean recursion; the gain and innovation
    # products are stacked over steps (one state vector per step stays a
    # matrix-vector product)
    if x.ndim == 1:
        gdy = (pieces.gains @ increments[..., None])[..., 0]
    else:
        gdy = pieces.gains @ increments
    for k in range(n_steps):
        x = msteps[k] @ x + gdy[k]
        means[k + 1] = x
    if not np.all(np.isfinite(x)):
        bad = np.nonzero(~np.isfinite(means).all(axis=tuple(range(1, means.ndim))))[0]
        raise FloatingPointError(f"filter mean not finite from step {bad[0]}")
    if x.ndim == 1:
        innov = increments - (cdt @ means[:-1, :, None])[..., 0]
    else:
        innov = increments - cdt @ means[:-1]
    return means, innov


def run_filter(model: LtvModel, obs: ObservationPath, init, eps_gain: float = 0.0,
               pieces: FilterPieces | None = None) -> FilterRun:
    """Run the mean filter for initial belief init = (mean, cov).

    eps_gain selects the Riccati flow feeding the gain (0 recovers the
    noise-free gain); the same observation increments are consumed either way.
    Observations with seed columns start every column from the same mean.
    """
    mean0, P0 = init
    mean0 = np.asarray(mean0, dtype=float).reshape(model.m)
    if obs.increments.ndim == 3:
        mean0 = np.repeat(mean0[:, None], obs.increments.shape[2], axis=1)
    if pieces is None:
        pieces = filter_pieces(model, obs.grid, P0, eps_gain=eps_gain)
    elif not np.array_equal(pieces.grid, obs.grid):
        raise ValueError("pieces grid does not match the observation grid")
    means, innov = _scan(pieces, obs.increments, mean0)
    return FilterRun(grid=obs.grid, means=means, innovations=innov,
                     riccati=pieces.riccati, init_mean=mean0, pieces=pieces)


@dataclass
class PairRun:
    """Two filters on identical observations, differing only in initialization."""

    run: FilterRun              # correct initialization
    runbar: FilterRun           # mismatched initialization
    psibar: MatrixPath          # propagator of the mismatched closed loop
    mean_gap: np.ndarray        # (K+1,) Euclidean norms; (K+1, S)
    cov_gap: np.ndarray         # (K+1,) spectral norms ||P - Pbar||
    gap: np.ndarray             # (K+1, m); (K+1, m, S)

    @property
    def grid(self):
        return self.run.grid


def mismatched_pair(model: LtvModel, obs: ObservationPath, correct, wrong,
                    pieces=None, piecesbar=None) -> PairRun:
    run = run_filter(model, obs, correct, pieces=pieces)
    runbar = run_filter(model, obs, wrong, pieces=piecesbar)
    gap = run.means - runbar.means
    cov_gap = np.linalg.norm(run.riccati.values - runbar.riccati.values, ord=2, axis=(1, 2))
    return PairRun(run=run, runbar=runbar, psibar=closed_loop_propagator(runbar.riccati),
                   mean_gap=np.linalg.norm(gap, axis=1), cov_gap=cov_gap, gap=gap)


@dataclass
class DecompositionDiagnostics:
    """Pathwise pieces of the mean-gap decomposition and its residual.

    Arrays carry a trailing seed axis S when the pair has seed columns.
    """

    term1: np.ndarray           # (K+1, m) Psibar_t (m0 - mbar)
    zhat: np.ndarray            # (K+1, m) martingale-part integrand sum
    term2: np.ndarray           # (K+1, m) Psibar_t Zhat_t
    term3: np.ndarray           # (K+1, m) discretization term of the gain remainders
    residual: np.ndarray        # (K+1,) reconstruction residual norms
    max_residual: float         # over nodes and seeds
    zhat_drift: float           # ||Zhat_T - Zhat_{T/2}|| (max over seeds), stabilization evidence


def mean_decomposition_diagnostics(pair: PairRun) -> DecompositionDiagnostics:
    """Reconstruct the mean gap as Psibar_t (m0 - mbar) + Psibar_t Zhat_t + term3_t.

    Zhat accumulates Psibar_{k+1}^-1 (D_k - Dbar_k) dnu_k with dnu the correct
    filter's innovations — the discrete realization of the continuous-time
    martingale integrand (P_s - Pbar_s) C^T R^-1 dnu_s. The discretization
    term term3_t = Psibar_t sum_{k<t} Psibar_{k+1}^-1 (-(E_k - Ebar_k) x_k)
    carries the gain remainders E_k (FilterPieces.remainder) against the
    correct filter's means x_k; it is rounding-level for C of full column
    rank. The residual against the measured gap is an algebraic-identity
    check of the filter integrator, for every C. Seed columns of the pair
    are decomposed column by column.
    """
    psibar = pair.psibar.values
    psibar_inv = np.linalg.inv(psibar)
    run, runbar = pair.run, pair.runbar

    def propagated_sum(mats, vecs):
        # Psibar_t sum_{k<t} Psibar_{k+1}^-1 mats_k vecs_k, and the sum itself
        incr = np.einsum("kij,kjl,kl...->ki...", psibar_inv[1:], mats, vecs)
        acc = np.zeros((len(pair.grid),) + incr.shape[1:])
        np.cumsum(incr, axis=0, out=acc[1:])
        return np.einsum("kij,kj...->ki...", psibar, acc), acc

    term2, zhat = propagated_sum(run.pieces.gains - runbar.pieces.gains, run.innovations)
    term3, _ = propagated_sum(runbar.pieces.remainder - run.pieces.remainder, run.means[:-1])
    d0 = run.init_mean - runbar.init_mean
    term1 = np.einsum("kij,j...->ki...", psibar, d0)
    resid = np.linalg.norm(pair.gap - (term1 + term2 + term3), axis=1)
    half = len(pair.grid) // 2
    drift = float(np.linalg.norm(zhat[-1] - zhat[half], axis=0).max())
    return DecompositionDiagnostics(term1=term1, zhat=zhat, term2=term2, term3=term3,
                                    residual=resid, max_residual=float(resid.max()),
                                    zhat_drift=drift)


# ---------------------------------------------------------------------------
# Lyapunov diagnostics for the closed-loop flow


def lyapunov_path(psi: MatrixPath, ric: RiccatiSolution, z0s: np.ndarray) -> np.ndarray:
    """V(z_t, t) = z_t^T P_t^-1 z_t for z_t = Psi_t z0, batched over columns of z0s.

    Returns (K+1, n_z). Along the closed loop V is nonincreasing
    (dV/dt = -z^T C^T R^-1 C z <= 0).
    """
    if not same_grid(psi, ric.path):
        raise ValueError("propagator and Riccati solution are on different grids")
    z = psi.values @ z0s                      # (K+1, m, n_z)
    pinv_z = np.linalg.solve(ric.values, z)
    return np.einsum("kmz,kmz->kz", z, pinv_z)


def lyapunov_increments(psi: MatrixPath, ric: RiccatiSolution, z0s: np.ndarray) -> float:
    """Largest one-step increase of V over all nodes and test vectors."""
    v = lyapunov_path(psi, ric, z0s)
    return float(np.diff(v, axis=0).max())


def window_decrease_margin(psi: MatrixPath, ric: RiccatiSolution, z0s: np.ndarray,
                           window: float) -> float:
    """Smallest ratio [V(z_t,t) - V(z_{t+tau},t+tau)] / ||z_t||^2 over windows.

    Under uniform complete observability of the closed-loop pair this ratio is
    bounded below by the window-Gramian floor rho3.
    """
    grid = psi.grid
    dt = grid[1] - grid[0]
    wsteps = int(round(window / dt))
    if wsteps < 1 or wsteps > len(grid) - 1:
        raise ValueError("window must fit inside the horizon")
    v = lyapunov_path(psi, ric, z0s)
    z = psi.values @ z0s
    znorm2 = np.einsum("kmz,kmz->kz", z, z)
    drop = v[:-wsteps] - v[wsteps:]
    return float((drop / znorm2[:-wsteps]).min())


# ---------------------------------------------------------------------------
# Monte Carlo harness over observation seeds


@dataclass
class MismatchedSweep:
    """The mismatched-pair experiment over seed columns, with its decomposition."""

    seeds: tuple
    initial_gap: float
    pair: PairRun                   # seed columns; column 0 is seed cfg.seed
    diag: DecompositionDiagnostics

    @property
    def terminal_gaps(self) -> np.ndarray:
        """(S,) terminal mean-gap norms."""
        return self.pair.mean_gap[-1]

    @property
    def max_residuals(self) -> np.ndarray:
        """(S,) reconstruction-identity residuals."""
        return self.diag.residual.max(axis=0)

    @property
    def worst_ratio(self) -> float:
        return float(self.terminal_gaps.max() / self.initial_gap)


def mismatched_mc(model: LtvModel, cfg, noise_off=False) -> MismatchedSweep:
    """Run correct/mismatched filter pairs over seeds cfg.seed + i, i < cfg.mc_runs, batched.

    The observations of seed s are generate_observation_path(cfg, seed=s), one
    seed column each; both filters of a pair consume the identical
    increments, and their Riccati flows integrate in one batched sweep.
    Reconstruction residuals are tracked pathwise per seed.
    Raises ModelValidationError when mbar == m0: a zero initial gap has no
    terminal/initial ratio.
    """
    if np.array_equal(cfg.m0, cfg.mbar):
        raise ModelValidationError("mismatched pairs require mbar != m0 in [init] "
                                   "(a zero initial mean gap has no terminal/initial ratio)")
    seeds = tuple(cfg.seed + i for i in range(cfg.mc_runs))
    obs = generate_observation_path(cfg, seed=seeds, noise_off=noise_off)
    pieces, piecesbar = filter_pieces_batch(model, obs.grid, np.stack([cfg.P0, cfg.Pbar]))
    pair = mismatched_pair(model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar),
                           pieces=pieces, piecesbar=piecesbar)
    return MismatchedSweep(seeds=seeds, initial_gap=float(np.linalg.norm(cfg.m0 - cfg.mbar)),
                           pair=pair, diag=mean_decomposition_diagnostics(pair))


__all__ = [
    "DecompositionDiagnostics",
    "FilterPieces",
    "FilterRun",
    "MismatchedSweep",
    "PairRun",
    "filter_pieces",
    "filter_pieces_batch",
    "lyapunov_increments",
    "lyapunov_path",
    "mean_decomposition_diagnostics",
    "mismatched_mc",
    "mismatched_pair",
    "run_filter",
    "window_decrease_margin",
]
