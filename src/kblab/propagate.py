"""Fundamental matrices, closed-loop propagators, Gramians and UCO estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._integrators import accumulate_transitions, rk4_linear_steps, transition_steps
from .model import LtvModel, ModelValidationError, make_grid


@dataclass
class MatrixPath:
    """A time grid plus one matrix value per grid node."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if self.values.shape[0] != self.grid.shape[0]:
            raise ValueError(
                f"{self.values.shape[0]} values for {self.grid.shape[0]} grid nodes")

    def __len__(self):
        return self.grid.shape[0]


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (K, m, m) stack.

    For m = 1 it is the absolute value: bitwise what the SVD gives wherever
    LAPACK does not rescale its input (about 1e-137 < |x| < 1e137), and
    exact outside that range. For m >= 2 it stays the SVD, whose last bit a
    closed form would move.
    """
    if mats.shape[-2:] == (1, 1):
        return np.abs(mats[..., 0, 0])
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


def fundamental_matrix(model: LtvModel, grid) -> MatrixPath:
    """State transition matrices of dx = A(t) x dt on the grid (identity at grid[0])."""
    grid = np.asarray(grid, dtype=float)
    steps = transition_steps(model, grid)
    return MatrixPath(grid, accumulate_transitions(steps))


def closed_loop_propagator(sol) -> MatrixPath:
    """Propagator Psi_t of the closed-loop flow dz = (A - P C^T R^-1 C) z dt.

    sol is a riccati.RiccatiSolution; Psi_t is the running product of the
    one-step matrices its sweep built alongside the covariance path.
    """
    return MatrixPath(sol.grid, accumulate_transitions(sol.closed_loop_steps))


def _half_step_transitions(model: LtvModel, grid) -> np.ndarray:
    """RK4 one-step matrices for the half intervals [t_k, t_k + h/2]."""
    lo = grid[:-1]
    hh = 0.5 * (grid[1:] - grid[:-1])
    a_mid = model.A_at(lo + 0.5 * hh)
    return rk4_linear_steps(model.A_at(lo), a_mid, a_mid, model.A_at(lo + hh), hh)


def accumulated_information(model: LtvModel, phi: MatrixPath,
                            free_flow: bool = True) -> MatrixPath:
    """Cumulative observed information int_0^t Phi^T C^T R^-1 C Phi ds.

    With free_flow=True the path is assumed to follow dPhi = A Phi dt and the
    quadrature is per-step Simpson with the midpoint transition obtained by a
    half RK4 step from each node (4th order). For paths following some other
    flow (e.g. a closed-loop propagator) pass free_flow=False to fall back to
    the trapezoid rule, which needs no midpoint values. Either way every
    increment is a nonnegative combination of PSD matrices, so the path is
    symmetric PSD and monotone nondecreasing in the PSD order by construction.
    """
    grid = phi.grid

    def weighted(ts, phis):
        return np.swapaxes(phis, 1, 2) @ model.G_at(ts) @ phis

    b_node = weighted(grid, phi.values)
    h = (grid[1:] - grid[:-1])[:, None, None]
    if free_flow:
        mids = 0.5 * (grid[:-1] + grid[1:])
        phi_mid = _half_step_transitions(model, grid) @ phi.values[:-1]
        b_mid = weighted(mids, phi_mid)
        inc = (h / 6.0) * (b_node[:-1] + 4.0 * b_mid + b_node[1:])
    else:
        inc = (h / 2.0) * (b_node[:-1] + b_node[1:])
    out = np.zeros_like(b_node)
    np.cumsum(inc, axis=0, out=out[1:])
    out = 0.5 * (out + np.swapaxes(out, 1, 2))
    return MatrixPath(grid, out)


# window ends kept by uco_gramian
_MAX_WINDOWS = 200

# condition number above which a matrix to invert counts as singular: a
# Phi anchor of uco_gramian, the core of riccati.closed_form_dre
COND_LIMIT = 1e12


@dataclass
class UcoEstimate:
    """Sliding-window observability Gramian eigenvalue ranges."""

    ends: np.ndarray            # window end times
    lambda_min: np.ndarray
    lambda_max: np.ndarray
    rho1: float = field(init=False)
    rho2: float = field(init=False)

    def __post_init__(self):
        self.rho1 = float(self.lambda_min.min()) if self.lambda_min.size else 0.0
        self.rho2 = float(self.lambda_max.max()) if self.lambda_max.size else 0.0

    @property
    def uco_plausible(self) -> bool:
        return self.rho1 > 0.0


def uco_gramian(model: LtvModel, phi: MatrixPath, window: float, normalize: str = "end",
                free_flow: bool = True) -> UcoEstimate:
    """Windowed observability Gramians of the pair driving the supplied propagator.

    normalize="end" is the classical definition Phi_t^-T (I_t - I_{t-tau})
    Phi_t^-1 (anchor at the window end); normalize="start" anchors at the
    window start, Phi_{t-tau}^-T (I_t - I_{t-tau}) Phi_{t-tau}^-1, which is
    the quadratic form of the Lyapunov-function drop over the window and the
    constant entering the windowed-decrease inequality. Pass free_flow=False
    when phi is not a free-flow fundamental path (see accumulated_information).
    Window ends are decimated to at most 200 nodes; an anchor Phi whose
    condition number exceeds COND_LIMIT raises naming its time, and a window
    shorter than one step or longer than the grid raises ModelValidationError,
    a configuration error. The verdict is a finite-horizon estimate
    ("plausible"), never a proof.
    """
    if normalize not in ("end", "start"):
        raise ValueError("normalize must be 'end' or 'start'")
    grid = phi.grid
    dt = grid[1] - grid[0]
    wsteps = int(round(window / dt))
    if wsteps < 1:
        raise ModelValidationError(f"window {window} is shorter than one grid step {dt}")
    if wsteps > len(grid) - 1:
        raise ModelValidationError(f"window {window} exceeds the horizon {grid[-1]}")
    info = accumulated_information(model, phi, free_flow=free_flow)
    ends = np.arange(wsteps, len(grid))
    if ends.size > _MAX_WINDOWS:
        ends = ends[:: int(np.ceil(ends.size / _MAX_WINDOWS))]
        if ends[-1] != len(grid) - 1:
            ends = np.append(ends, len(grid) - 1)
    anchors = ends if normalize == "end" else ends - wsteps
    ft = phi.values[anchors]
    bad = np.nonzero(np.linalg.cond(ft) > COND_LIMIT)[0]
    if bad.size:
        raise FloatingPointError(
            f"fundamental matrix numerically singular at t={grid[anchors[bad[0]]]:.6g}")
    ftt = ft.swapaxes(1, 2)
    w = info.values[ends] - info.values[ends - wsteps]
    gram = np.linalg.solve(ftt, np.linalg.solve(ftt, w.swapaxes(1, 2)).swapaxes(1, 2))
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.swapaxes(1, 2)))
    return UcoEstimate(ends=grid[ends], lambda_min=eigs[:, 0],
                       lambda_max=eigs[:, -1])


def psi_decay_integral(psi: MatrixPath):
    """Trapezoid quadrature of int_0^T Psi^T Psi ds plus tail-norm evidence.

    Returns (integral matrix, checkpoints) where checkpoints is a list of four
    (t_start, ||int_{t_start}^T Psi^T Psi ds||) with t_start sweeping the
    second half of the horizon; shrinking tail norms evidence convergence of
    the infinite-horizon integral.
    """
    grid = psi.grid
    integrand = np.swapaxes(psi.values, 1, 2) @ psi.values
    h = (grid[1:] - grid[:-1])[:, None, None]
    cum = np.zeros_like(integrand)
    np.cumsum(0.5 * h * (integrand[:-1] + integrand[1:]), axis=0, out=cum[1:])
    total = cum[-1]
    ks = np.linspace(len(grid) // 2, len(grid) - 1, 5, dtype=int)[:-1]
    tails = [(float(grid[k]), float(np.linalg.norm(total - cum[k], 2))) for k in ks]
    return 0.5 * (total + total.T), tails


__all__ = [
    "MatrixPath",
    "UcoEstimate",
    "accumulated_information",
    "closed_loop_propagator",
    "fundamental_matrix",
    "make_grid",
    "psi_decay_integral",
    "spectral_norms",
    "transition_steps",
    "uco_gramian",
]
