"""Dynamic Riccati equation: integration, exact solution, and stability checks.

The noise-free flow dP = A P + P A^T - P C^T R^-1 C P admits the exact
solution P_t = Phi_t sqrt(P) (I + sqrt(P) I_t sqrt(P))^-1 sqrt(P) Phi_t^T with
I_t the accumulated information matrix; integrate_dre and closed_form_dre are
kept as an independent pair (the closed form is the oracle of record for
eps = 0). The eps-perturbed flow adds the forcing eps^2 F F^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._integrators import riccati_sweep
from .model import LtvModel
from .propagate import MatrixPath, closed_loop_propagator, same_grid


def psd_sqrt(P: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues below zero are clamped to zero."""
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    w, v = np.linalg.eigh(P)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass
class RiccatiSolution:
    """Covariance path plus the closed-loop one-step matrices built alongside it."""

    path: MatrixPath
    init: np.ndarray
    eps: float
    min_eigs: np.ndarray
    closed_loop_steps: np.ndarray
    diagnostics: list = field(default_factory=list)

    @property
    def grid(self):
        return self.path.grid

    @property
    def values(self):
        return self.path.values


def _symmetric(P0) -> np.ndarray:
    P0 = np.asarray(P0, dtype=float)
    if np.abs(P0 - P0.swapaxes(-1, -2)).max() > 1e-12:
        raise ValueError("P0 must be symmetric")
    return P0


def _solution(grid, P0, eps: float, path, msteps) -> RiccatiSolution:
    min_eigs = np.linalg.eigvalsh(path)[:, 0]
    diags = []
    bad = np.nonzero(min_eigs < -1e-10)[0]
    if bad.size:
        diags.append(
            f"negative covariance eigenvalue {min_eigs[bad[0]]:.3e} at t={grid[bad[0]]:.6g} "
            f"({bad.size} nodes affected)")
    return RiccatiSolution(path=MatrixPath(grid, path), init=P0, eps=eps, min_eigs=min_eigs,
                           closed_loop_steps=msteps, diagnostics=diags)


def integrate_dre(model: LtvModel, P0, grid, eps: float = 0.0) -> RiccatiSolution:
    """4th-order integration of the Riccati flow with per-step symmetrization.

    Negative eigenvalues below -1e-10 are recorded as diagnostics; blow-up
    (||P|| > 1e12) raises naming the time.
    """
    grid = np.asarray(grid, dtype=float)
    P0 = _symmetric(P0)
    path, msteps = riccati_sweep(model, grid, P0, eps=eps)
    return _solution(grid, P0, eps, path, msteps)


def integrate_dre_batch(model: LtvModel, P0, grid, eps=0.0) -> list[RiccatiSolution]:
    """integrate_dre for B flows on one grid, in one sweep.

    P0 is (B, m, m) and/or eps has B entries (the other broadcasts). Member b
    is bitwise integrate_dre(model, P0[b], grid, eps[b]); a blow-up raises
    naming the member and the time.
    """
    grid = np.asarray(grid, dtype=float)
    P0 = _symmetric(P0)
    eps = np.asarray(eps, dtype=float)
    if P0.ndim != 3 and eps.ndim != 1:
        raise ValueError("a batch needs P0 of shape (B, m, m) or one eps per member")
    paths, msteps = riccati_sweep(model, grid, P0, eps=eps)
    P0 = np.broadcast_to(P0, paths.shape[:1] + P0.shape[-2:])
    eps = np.broadcast_to(eps, paths.shape[:1])
    return [_solution(grid, P0[b].copy(), float(eps[b]), paths[b], msteps[b])
            for b in range(len(paths))]


def closed_form_dre(model: LtvModel, P0, phi: MatrixPath, info: MatrixPath,
                    cond_limit: float = 1e12) -> MatrixPath:
    """Exact noise-free Riccati solution evaluated on the grid.

    P_t = Phi_t sqrt(P0) (I + sqrt(P0) I_t sqrt(P0))^-1 sqrt(P0) Phi_t^T,
    with I_t the accumulated information path. Serves as the independent
    oracle for integrate_dre with eps = 0.
    """
    if not same_grid(phi, info):
        raise ValueError("phi and info paths must share a grid")
    root = psd_sqrt(P0)
    core = np.eye(model.m) + root @ info.values @ root
    bad = np.nonzero(np.linalg.cond(core) > cond_limit)[0]
    if bad.size:
        raise FloatingPointError(f"closed form ill-conditioned at t={phi.grid[bad[0]]:.6g}")
    pk = phi.values @ root @ np.linalg.solve(core, root @ phi.values.swapaxes(1, 2))
    return MatrixPath(phi.grid, 0.5 * (pk + pk.swapaxes(1, 2)))


def error_factorization_check(model: LtvModel, P0, Pbar0, grid):
    """Residual of the covariance-difference factorization.

    The difference of two Riccati solutions factorizes through the two
    closed-loop propagators: P_t - Pbar_t = Psi_t (P0 - Pbar0) Psibar_t^T.
    Both flows integrate in one batched sweep, and each propagator is the
    running product of the one-step matrices that sweep built for its flow.
    Returns (residual path ||lhs - rhs||_2 per node, max residual, pieces).
    """
    sol, solbar = integrate_dre_batch(model, np.stack([P0, Pbar0]), grid)
    psi, psibar = closed_loop_propagator(sol), closed_loop_propagator(solbar)
    d0 = np.asarray(P0, dtype=float) - np.asarray(Pbar0, dtype=float)
    lhs = sol.values - solbar.values
    rhs = psi.values @ d0 @ np.swapaxes(psibar.values, 1, 2)
    resid = np.linalg.norm(lhs - rhs, ord=2, axis=(1, 2))
    pieces = {"sol": sol, "solbar": solbar, "psi": psi, "psibar": psibar}
    return resid, float(resid.max()), pieces


def covariance_gap(eps: float, qeps: RiccatiSolution, p: RiccatiSolution):
    """Per-node gap Q^eps_t - P_t, its spectral norm path and PSD check.

    Both solutions must share the grid and the initial condition. Returns
    (gap matrices, norm path, sup norm, min eigenvalue over the horizon);
    the gap should be PSD within -1e-10 (the perturbation only adds
    uncertainty).
    """
    if not same_grid(qeps.path, p.path):
        raise ValueError("Riccati solutions are on different grids")
    if not np.array_equal(qeps.init, p.init):
        raise ValueError("Riccati solutions have different initial conditions")
    gap = qeps.values - p.values
    norms = np.linalg.norm(gap, ord=2, axis=(1, 2))
    min_eig = float(np.linalg.eigvalsh(gap)[:, 0].min())
    return gap, norms, float(norms.max()), min_eig


__all__ = [
    "RiccatiSolution",
    "closed_form_dre",
    "covariance_gap",
    "error_factorization_check",
    "integrate_dre",
    "integrate_dre_batch",
    "psd_sqrt",
]
