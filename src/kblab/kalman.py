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
decomposition then run on every column at once. Filters on one grid run as
members of one scan (_scan): the gain products D_k dy_k of every member are
formed before the time loop, in the rows of the means they offset, and the
loop is _integrators.linear_recursion, a scan over chunks of steps whose
chunk ends differ from the per-step recursion at rounding level. Each
member takes the (m, m) @ (m, S) products it takes when run alone, so its
means are bitwise the same; the mismatched pair and the small-noise sweep
run their filters this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._integrators import gain_steps, linear_recursion, transition_steps
from .csvio import timed
from .model import LtvModel, ModelValidationError
from .propagate import MatrixPath, closed_loop_propagator, spectral_norms
from .riccati import RiccatiSolution, integrate_dre, integrate_dre_batch
from .simulate import ObservationPath, generate_observation_path


@dataclass
class FilterPieces:
    """Per-step affine update pieces shared by every run on one (P0, eps) pair."""

    riccati: RiccatiSolution    # its grid and closed-loop one-step matrices M_k
    gains: np.ndarray           # (K, m, n)
    cdt: np.ndarray             # (K, n, m) C_k * dt
    remainder: np.ndarray       # (K, m, m) E_k = (Phi_step_k - M_k) - D_k C_k dt


def filter_pieces(model: LtvModel, grid, P0, eps_gain: float = 0.0) -> FilterPieces:
    return _assemble(model, [integrate_dre(model, P0, grid, eps=eps_gain)])[0]


def filter_pieces_batch(model: LtvModel, grid, P0, eps_gain=0.0) -> list[FilterPieces]:
    """filter_pieces for B (P0, eps) members from one Riccati sweep.

    P0 is (B, m, m) and/or eps_gain has B entries (see integrate_dre_batch);
    member b is bitwise filter_pieces(model, grid, P0[b], eps_gain[b]).
    """
    return _assemble(model, integrate_dre_batch(model, P0, grid, eps=eps_gain))


def _assemble(model: LtvModel, rics) -> list[FilterPieces]:
    """Pieces per Riccati solution on one grid; the gains of all members come from one call."""
    grid = rics[0].grid
    phi_steps = transition_steps(model, grid)
    msteps = np.stack([r.closed_loop_steps for r in rics])
    gains, cdt = gain_steps(model, grid, msteps, phi_steps)
    remainders = (phi_steps - msteps) - gains @ cdt
    return [FilterPieces(riccati=r, gains=g, cdt=cdt, remainder=e)
            for r, g, e in zip(rics, gains, remainders)]


@dataclass
class FilterRun:
    """One filter trajectory driven by an observation path."""

    grid: np.ndarray
    means: np.ndarray           # (K+1, m); (K+1, m, S) for S seed columns
    innovations: np.ndarray     # (K, n), dnu_k = dy_k - C_k x_k dt; (K, n, S)
    pieces: FilterPieces        # its riccati is the filter's covariance path


def _scan(pieces, increments: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Run the affine mean recursions of B filters on one grid in one scan.

    pieces holds the B members' FilterPieces and x0 their (B, m, S) start
    states, one per seed column. increments are (K, n, G S): G blocks of S
    columns, one path per column, with member b on block b // (B / G) (so
    with G = 1 every member runs on the same paths); or (K, n, 1), one path
    shared by every column. Returns the (K+1, B, m, S) means. The gain
    products D_k dy_k are formed before the scan, in the rows of the means
    they offset, and the scan (_integrators.linear_recursion) carries only
    x_{k+1} = M_k x_k + D_k dy_k. Each member takes the products it takes
    when run alone.
    """
    n_members, _, n_cols = x0.shape
    blocks = increments.shape[2] // n_cols or 1
    if n_members % blocks:
        raise ValueError(f"{n_members} filters do not split over {blocks} column blocks")
    means = np.empty((len(increments) + 1,) + x0.shape)
    means[0] = x0
    for b, p in enumerate(pieces):
        lo = b // (n_members // blocks) * n_cols
        dy = increments[:, :, lo:lo + n_cols]
        if dy.shape[2] == n_cols:
            np.matmul(p.gains, dy, out=means[1:, b])
        else:
            means[1:, b] = p.gains @ dy
    steps = np.stack([p.riccati.closed_loop_steps for p in pieces], axis=1)
    linear_recursion(steps, means, offset=True)
    if not np.all(np.isfinite(means[-1])):
        bad = np.nonzero(~np.isfinite(means).all(axis=(1, 2, 3)))[0]
        raise FloatingPointError(f"filter mean not finite from step {bad[0]}")
    return means


def _checked_pieces(model: LtvModel, grid, P0, pieces) -> FilterPieces:
    """pieces, or the noise-free filter_pieces of P0 when None.

    Pieces on another grid or built from another covariance than P0 raise
    ValueError.
    """
    if pieces is None:
        return filter_pieces(model, grid, P0)
    if not np.array_equal(pieces.riccati.grid, grid):
        raise ValueError("pieces grid does not match the observation grid")
    if not np.array_equal(pieces.riccati.init, np.asarray(P0, dtype=float)):
        raise ValueError("pieces start from another covariance than init")
    return pieces


def _run_filters(model: LtvModel, obs: ObservationPath, inits, pieces) -> list[FilterRun]:
    """Run the mean filters of several initial beliefs on obs as members of one scan.

    inits holds (mean, cov) pairs and pieces one FilterPieces or None for
    each; see run_filter.
    """
    one_path = obs.increments.ndim == 2
    increments = obs.increments[..., None] if one_path else obs.increments
    members, x0 = [], []
    for (mean0, P0), p in zip(inits, pieces):
        members.append(_checked_pieces(model, obs.grid, P0, p))
        mean0 = np.asarray(mean0, dtype=float).reshape(model.m)
        x0.append(np.repeat(mean0[:, None], increments.shape[2], axis=1))
    means = _scan(members, increments, np.stack(x0))
    runs = []
    for b, p in enumerate(members):
        mb = means[:, b]
        innov = increments - p.cdt @ mb[:-1]
        if one_path:
            mb, innov = mb[..., 0], innov[..., 0]
        runs.append(FilterRun(grid=obs.grid, means=mb, innovations=innov, pieces=p))
    return runs


def run_filter(model: LtvModel, obs: ObservationPath, init,
               pieces: FilterPieces | None = None) -> FilterRun:
    """Run the mean filter for initial belief init = (mean, cov).

    Without pieces the gain follows the noise-free Riccati flow from cov; pass
    pieces=filter_pieces(model, obs.grid, cov, eps_gain) for another flow.
    Pieces whose flow starts from another covariance than cov raise
    ValueError. Observations with seed columns start every column from the
    same mean. A one-seed path runs as one column and its results drop the
    column axis. The innovations dnu_k = dy_k - C_k x_k dt are formed after
    the scan.
    """
    return _run_filters(model, obs, [init], [pieces])[0]


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
    """The correct and the mismatched filter on obs, run as two members of one scan."""
    run, runbar = _run_filters(model, obs, [correct, wrong], [pieces, piecesbar])
    gap = run.means - runbar.means
    ric, ricbar = run.pieces.riccati, runbar.pieces.riccati
    cov_gap = spectral_norms(ric.values - ricbar.values)
    return PairRun(run=run, runbar=runbar, psibar=closed_loop_propagator(ricbar),
                   mean_gap=np.linalg.norm(gap, axis=1), cov_gap=cov_gap, gap=gap)


@dataclass
class DecompositionDiagnostics:
    """Pathwise pieces of the mean-gap decomposition and its residual.

    Arrays carry a trailing seed axis S when the pair has seed columns.
    """

    term1: np.ndarray           # (K+1, m) Psibar_t (m0 - mbar)
    zhat: np.ndarray            # (K+1, m) martingale-part integrand sum
    term3: np.ndarray           # (K+1, m) discretization term of the gain remainders
    residual: np.ndarray        # (K+1,) reconstruction residual norms


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
    term1 = np.einsum("kij,j...->ki...", psibar, run.means[0] - runbar.means[0])
    resid = np.linalg.norm(pair.gap - (term1 + term2 + term3), axis=1)
    return DecompositionDiagnostics(term1=term1, zhat=zhat, term3=term3, residual=resid)


# ---------------------------------------------------------------------------
# Lyapunov diagnostics for the closed-loop flow


def lyapunov_path(psi: MatrixPath, ric: RiccatiSolution, z0s: np.ndarray) -> np.ndarray:
    """V(z_t, t) = z_t^T P_t^-1 z_t for z_t = Psi_t z0, batched over columns of z0s.

    Returns (K+1, n_z). Along the closed loop V is nonincreasing
    (dV/dt = -z^T C^T R^-1 C z <= 0).
    """
    if not np.array_equal(psi.grid, ric.grid):
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
    stage_times: dict = field(default_factory=dict)   # stage name -> wall seconds

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


def mismatched_mc(cfg) -> MismatchedSweep:
    """Run correct/mismatched filter pairs over seeds cfg.seed + i, i < cfg.mc_runs, batched.

    The observations of seed s are generate_observation_path(cfg, seed=s), one
    seed column each; both filters of a pair consume the identical
    increments, and their Riccati flows integrate in one batched sweep.
    Reconstruction residuals are tracked pathwise per seed. The wall time of
    the stages simulate, riccati, filter and decomposition goes to
    stage_times. Raises ModelValidationError when mbar == m0: a zero initial
    gap has no terminal/initial ratio.
    """
    if np.array_equal(cfg.m0, cfg.mbar):
        raise ModelValidationError("mismatched pairs require mbar != m0 in [init] "
                                   "(a zero initial mean gap has no terminal/initial ratio)")
    seeds = tuple(cfg.seed + i for i in range(cfg.mc_runs))
    times = {}
    with timed(times, "simulate"):
        obs = generate_observation_path(cfg, seed=seeds)
    with timed(times, "riccati"):
        pieces, piecesbar = filter_pieces_batch(cfg.model, obs.grid, np.stack([cfg.P0, cfg.Pbar]))
    with timed(times, "filter"):
        pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar),
                               pieces=pieces, piecesbar=piecesbar)
    with timed(times, "decomposition"):
        diag = mean_decomposition_diagnostics(pair)
    return MismatchedSweep(seeds=seeds, initial_gap=float(np.linalg.norm(cfg.m0 - cfg.mbar)),
                           pair=pair, diag=diag, stage_times=times)


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
