"""Fixed-step classical 4th-order integration kernels for the matrix ODEs.

Every RK4 one-step matrix of a linear flow dz = B(t) z dt comes from one
kernel, rk4_linear_steps: the free-flow transition steps Phi (B = A), their
half steps, and the closed-loop steps M_k (B = A - P C^T R^-1 C at the
Riccati stage values). The Riccati sweep integrates P and keeps the stage
values the closed loop needs, so quantities that must agree in the discrete
algebra (filter one-step matrices, propagator products, Riccati stage values)
are built from bitwise-identical arithmetic.
"""

from __future__ import annotations

import numpy as np

from .model import LtvModel

# ||P|| above which the Riccati sweep stops and reports a blow-up
BLOWUP = 1e12


def _stage_times(grid):
    lo = grid[:-1]
    hi = grid[1:]
    return lo, 0.5 * (lo + hi), hi


def coefficient_stages(model: LtvModel, grid):
    """Coefficient matrices at step starts, midpoints and ends, batched.

    Returns a dict with keys 'A', 'G' (= C^T R^-1 C), 'C', 'Rinv', 'FFt',
    each a tuple of (lo, mid, hi) stacked arrays of shape (K, ., .).
    """
    lo, mid, hi = _stage_times(grid)
    out = {}
    a_all = [model.A_at(t) for t in (lo, mid, hi)]
    c_all = [model.C_at(t) for t in (lo, mid, hi)]
    r_all = [model.R_at(t) for t in (lo, mid, hi)]
    f_all = [model.F_at(t) for t in (lo, mid, hi)]
    rinv = [np.linalg.inv(r) for r in r_all]
    out["A"] = tuple(a_all)
    out["C"] = tuple(c_all)
    out["Rinv"] = tuple(rinv)
    out["G"] = tuple(np.swapaxes(c, 1, 2) @ ri @ c for c, ri in zip(c_all, rinv))
    out["FFt"] = tuple(f @ np.swapaxes(f, 1, 2) for f in f_all)
    return out


def rk4_linear_steps(b1, b2, b3, b4, h) -> np.ndarray:
    """Batched RK4 one-step matrices of the linear flow dz = B(t) z dt.

    b1 ... b4 are stacks (K, ..., m, m) of B at the four RK4 stages of each
    step; h holds the K step widths. The free flow passes A at (start, mid,
    mid, end); the closed loop passes A - P G at P_k and the Riccati stage
    values p2, p3, p4. This is the one place the linear RK4 sum is formed.
    """
    h = h.reshape((-1,) + (1,) * (b1.ndim - 1))
    eye = np.eye(b1.shape[-1])
    k = b2 @ (eye + (h / 2.0) * b1)
    acc = b1 + 2.0 * k
    k = b3 @ (eye + (h / 2.0) * k)
    acc += 2.0 * k
    acc += b4 @ (eye + h * k)
    acc *= h / 6.0
    acc += eye
    return acc


def transition_steps(model: LtvModel, grid) -> np.ndarray:
    """Batched RK4 one-step transition matrices for dz = A(t) z dt on the grid.

    The product step[k-1] @ ... @ step[0] is the fundamental matrix at grid[k].
    """
    lo, mid, hi = _stage_times(grid)
    a_mid = model.A_at(mid)
    return rk4_linear_steps(model.A_at(lo), a_mid, a_mid, model.A_at(hi), grid[1:] - grid[:-1])


def accumulate_transitions(steps: np.ndarray) -> np.ndarray:
    """Running products: out[0] = identity, out[k+1] = steps[k] @ out[k]."""
    n, m, _ = steps.shape
    out = np.empty((n + 1, m, m))
    out[0] = np.eye(m)
    if m == 1:
        out[1:, 0, 0] = np.cumprod(steps[:, 0, 0])
        return out
    cur = out[0]
    for k in range(n):
        cur = steps[k] @ cur
        out[k + 1] = cur
    return out


def riccati_sweep(model: LtvModel, grid, P0, eps=0.0):
    """Joint sweep of the Riccati flow and its closed-loop one-step matrices.

    Integrates dP = A P + P A^T - P C^T R^-1 C P + eps^2 F F^T with classical
    RK4 and per-step symmetrization, keeping the stage values p2, p3, p4 of
    each step. The RK4 one-step matrices M_k of the closed-loop flow
    dz = (A - P C^T R^-1 C) z are then built from the same stage values by
    rk4_linear_steps, so that products of M_k are consistent with the
    returned covariance path. This sweep is the only place M_k is built: the
    closed-loop propagator Psi_t is their running product
    (propagate.closed_loop_propagator). ||P|| > BLOWUP raises naming the time.

    Several flows on one grid run as members of one sweep: P0 of shape
    (B, m, m) and/or eps of shape (B,), the other broadcast. Each member is
    bitwise what a single sweep of its (P0, eps) returns; a blow-up names the
    member.

    Returns (P_path (K+1,m,m), M_steps (K,m,m)); members add a leading axis B.
    """
    n_steps = len(grid) - 1
    m = model.m
    P0 = np.asarray(P0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    batch = np.broadcast_shapes(P0.shape[:-2], eps.shape)
    if len(batch) > 1:
        raise ValueError("riccati_sweep batches members along one axis")
    eps = np.broadcast_to(eps, batch)
    stages = coefficient_stages(model, grid)
    a_lo, a_mid, a_hi = stages["A"]
    g_lo, g_mid, g_hi = stages["G"]
    q_lo, q_mid, q_hi = _forcing(stages["FFt"], eps, n_steps, m)
    h = grid[1:] - grid[:-1]

    # member-major results, written step by step through time-major views
    paths = np.empty(batch + (n_steps + 1, m, m))
    mpaths = np.empty(batch + (n_steps, m, m))
    path, msteps = np.moveaxis(paths, -3, 0), np.moveaxis(mpaths, -3, 0)
    P = 0.5 * (P0 + P0.swapaxes(-1, -2))
    path[0] = P
    # the loops carry only the P recursion and keep its stage values p2, p3, p4
    p234 = np.empty((3, n_steps) + batch + (m, m))
    p2s, p3s, p4s = p234

    if m == 1:
        coefs = [c[:, 0, 0].tolist() for c in (a_lo, a_mid, a_hi, g_lo, g_mid, g_hi)]
        hs = h.tolist()
        prows = paths.reshape(-1, n_steps + 1)
        srows = p234.reshape(3, n_steps, -1)
        qcols = [q.reshape(n_steps, -1) for q in (q_lo, q_mid, q_hi)]
        for b in range(len(prows)):
            _riccati_sweep_scalar(grid, hs, *coefs, *(q[:, b].tolist() for q in qcols),
                                  prows[b], srows[:, :, b],
                                  f" in member {b}" if batch else "")
    else:
        for k in range(n_steps):
            hk = h[k]
            A1, A2, A3 = a_lo[k], a_mid[k], a_hi[k]
            G1, G2, G3 = g_lo[k], g_mid[k], g_hi[k]

            ap = A1 @ P
            k1p = ap + ap.swapaxes(-1, -2) - (P @ G1) @ P + q_lo[k]
            p2 = P + (0.5 * hk) * k1p
            ap = A2 @ p2
            k2p = ap + ap.swapaxes(-1, -2) - (p2 @ G2) @ p2 + q_mid[k]
            p3 = P + (0.5 * hk) * k2p
            ap = A2 @ p3
            k3p = ap + ap.swapaxes(-1, -2) - (p3 @ G2) @ p3 + q_mid[k]
            p4 = P + hk * k3p
            ap = A3 @ p4
            k4p = ap + ap.swapaxes(-1, -2) - (p4 @ G3) @ p4 + q_hi[k]

            P = P + (hk / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            P = 0.5 * (P + P.swapaxes(-1, -2))
            if np.abs(P).max() > BLOWUP:
                where = ""
                if batch:
                    norms = np.abs(np.broadcast_to(P, batch + (m, m))).max(axis=(1, 2))
                    where = f" in member {np.argmax(norms > BLOWUP)}"
                raise _blowup_error(where, grid[k + 1])
            path[k + 1] = P
            p2s[k], p3s[k], p4s[k] = p2, p3, p4

    # closed-loop generators A - P G at the four stages, the last three in place
    shape = (n_steps,) + (1,) * len(batch) + (m, m)
    a_lo, a_mid, a_hi, g_lo, g_mid, g_hi = (c.reshape(shape) for c in
                                            (a_lo, a_mid, a_hi, g_lo, g_mid, g_hi))
    for s, a, g in zip(p234, (a_mid, a_mid, a_hi), (g_mid, g_mid, g_hi)):
        np.subtract(a, s @ g, out=s)
    msteps[...] = rk4_linear_steps(a_lo - path[:-1] @ g_lo, *p234, h)
    return paths, mpaths


def _forcing(ffts, eps: np.ndarray, n_steps: int, m: int):
    """eps^2 F F^T at the three stage times, per member.

    Members with eps = 0 get +0.0 (0 * F would give -0.0 where F F^T < 0),
    so they add exactly what a noise-free single sweep adds.
    """
    if not eps.any():
        z = np.zeros((n_steps,) + eps.shape + (m, m))
        return z, z, z
    e2 = (eps * eps)[..., None, None]
    members = tuple(range(1, 1 + eps.ndim))
    return tuple(np.where(e2 != 0.0, e2 * np.expand_dims(f, members), 0.0) for f in ffts)


def _blowup_error(where: str, t: float) -> FloatingPointError:
    return FloatingPointError(f"Riccati blow-up{where}: ||P|| > {BLOWUP:g} at t={t:.6g}")


def _riccati_sweep_scalar(grid, hs, a1, a2, a3, g1, g2, g3, q1, q2, q3, pout, sout, where):
    """Scalar (m = n = 1) P recursion of one member in plain float arithmetic; same stage formulas.

    Coefficients and steps come as lists; pout is the member's (K+1,) row of
    P and sout its (3, K) rows of the stage values p2, p3, p4.
    """
    p = float(pout[0])
    s2, s3, s4 = sout
    for k in range(len(hs)):
        hk = hs[k]
        A1, A2, A3 = a1[k], a2[k], a3[k]
        G1, G2, G3 = g1[k], g2[k], g3[k]
        k1p = 2.0 * A1 * p - G1 * p * p + q1[k]
        p2 = p + 0.5 * hk * k1p
        k2p = 2.0 * A2 * p2 - G2 * p2 * p2 + q2[k]
        p3 = p + 0.5 * hk * k2p
        k3p = 2.0 * A2 * p3 - G2 * p3 * p3 + q2[k]
        p4 = p + hk * k3p
        k4p = 2.0 * A3 * p4 - G3 * p4 * p4 + q3[k]
        p = p + (hk / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if abs(p) > BLOWUP:
            raise _blowup_error(where, grid[k + 1])
        pout[k + 1] = p
        s2[k] = p2
        s3[k] = p3
        s4[k] = p4


def gain_steps(model: LtvModel, grid, msteps: np.ndarray, phi_steps: np.ndarray) -> np.ndarray:
    """Per-step observation gain matrices D_k of the filter recursion.

    D_k := (Phi_step_k - M_k) pinv(C_k dt), with phi_steps the transition
    steps of the grid: a consistent realization of P_k C_k^T R_k^-1. The
    remainder E_k = (Phi_step_k - M_k) - D_k C_k dt is zero up to rounding
    whenever C_k has full column rank (pinv(C) C = I; always for square
    invertible C); otherwise it is the part of Phi_step_k - M_k that C_k dt
    does not reach, and the mismatched-pair error decomposition carries it
    as a third term (kalman.mean_decomposition_diagnostics).
    """
    h = (grid[1:] - grid[:-1])[:, None, None]
    return (phi_steps - msteps) @ np.linalg.pinv(model.C_at(grid[:-1]) * h)
