"""Fixed-step classical 4th-order integration kernels for the matrix ODEs.

Every RK4 one-step matrix of a linear flow dz = B(t) z dt comes from one
kernel, rk4_linear_steps: the free-flow transition steps Phi (B = A), their
half steps, and the closed-loop steps M_k (B = A - P C^T R^-1 C at the
Riccati stage values). The Riccati sweep integrates P and keeps the stage
values the closed loop needs, so quantities that must agree in the discrete
algebra (filter one-step matrices, propagator products, Riccati stage values)
are built from bitwise-identical arithmetic.

Every linear recursion over the steps of a grid, z_{k+1} = S_k z_k plus an
optional offset (running products, the truth at every noise level, the
filter means), runs in linear_recursion, a two-level scan over chunks of
CHUNK steps: about 2 CHUNK + K / CHUNK batched products in Python instead
of K. Its independent recursions run as members of each batched product.

The Riccati sweep runs one of two loops, chosen by the state dimension m
alone. For m <= 2 each member runs through a plain-float loop that reads and
writes the arrays in place through zero-copy memoryviews of their entries:
the scalar recursion for m = 1, and for m = 2 a recursion on the symmetric
triple (p00, p01, p11), so its stage values p2, p3, p4 are exactly
symmetric. m >= 3 runs all members together through a numpy matrix loop.
The loops share the stage formulas; the float loops round each two-term
product sum as a plain sum, where numpy's matmul may fuse it.
"""

from __future__ import annotations

import numpy as np

from .model import LtvModel

# ||P|| above which the Riccati sweep stops and reports a blow-up
BLOWUP = 1e12

# steps per chunk of the two-level scan in linear_recursion; a streamed
# recursion resumed at a multiple of it is bitwise the whole one
CHUNK = 32


def _stage_times(grid):
    lo = grid[:-1]
    hi = grid[1:]
    return lo, 0.5 * (lo + hi), hi


def coefficient_stages(model: LtvModel, grid):
    """Coefficient matrices at step starts, midpoints and ends, batched.

    Returns a dict with keys 'A', 'G' (= C^T R^-1 C) and 'FFt', each a
    tuple of (lo, mid, hi) stacked arrays of shape (K, m, m), taken from the
    model's paths: a constant one is a read-only broadcast of one matrix.
    """
    times = _stage_times(grid)
    return {"A": tuple(map(model.A_at, times)), "G": tuple(map(model.G_at, times)),
            "FFt": tuple(map(model.FFt_at, times))}


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


def linear_recursion(steps: np.ndarray, out: np.ndarray, offset: bool = False) -> np.ndarray:
    """Run out[k+1] = steps[k] @ out[k] in place, adding out[k+1] when offset is set.

    steps is (K, ..., m, m) and out is (K+1, ..., m, S) with out[0] the start
    (and out[1:] the offsets); the axes between time and matrix are members,
    which broadcast as in matmul. out may be any strided view. This is the
    one time loop of every linear recursion: running products, the truth
    (RK4 transition steps, or Euler-Maruyama steps I + h A with the noise
    terms as offsets), filter means.

    The steps are cut into chunks of CHUNK, anchored at step 0, and scanned
    in three passes, about 2 CHUNK + K / CHUNK batched products in all:
    - every whole chunk j runs side by side with the others from the
      identity and from zero, giving its product Pi_j and its offset sum y_j;
    - the chunk starts are chained: out[(j+1) CHUNK] = Pi_j out[j CHUNK] + y_j;
    - every chunk steps its inner rows from its start, all chunks side by
      side, with the per-step arithmetic of the sequential loop.
    So rows that are not a positive multiple of CHUNK are exactly the
    sequential step from the row before (a recursion of fewer than CHUNK
    steps keeps every bit of the sequential loop), a recursion resumed from
    out[j CHUNK] is bitwise the rest of the whole one, and each member takes
    the (m, m) @ (m, S) products it takes alone.
    """
    n_steps = len(steps)
    # member axes that steps broadcast over become explicit, so that the
    # chunk axis of every pass lines up with time
    steps = steps.reshape(steps.shape[:1] + (1,) * (out.ndim - steps.ndim) + steps.shape[1:])
    whole = n_steps // CHUNK
    span = whole * CHUNK
    if whole:
        # Pi_j and y_j of every whole chunk, side by side
        prod = steps[:span:CHUNK].copy()
        pbuf = np.empty_like(prod)
        if offset:
            ysum = out[1:span + 1:CHUNK].copy()
            ybuf = np.empty_like(ysum)
        for i in range(1, CHUNK):
            step = steps[i:span:CHUNK]
            np.matmul(step, prod, out=pbuf)
            prod, pbuf = pbuf, prod
            if offset:
                np.matmul(step, ysum, out=ybuf)
                np.add(out[i + 1:span + 1:CHUNK], ybuf, out=ysum)
        # the chunk starts, one product per chunk
        for j in range(whole):
            lo, hi = j * CHUNK, (j + 1) * CHUNK
            np.matmul(prod[j], out[lo], out=out[hi])
            if offset:
                np.add(out[hi], ysum[j], out=out[hi])
    # the inner rows of every chunk, stepped from the chunk starts
    buf = np.empty((-(-n_steps // CHUNK),) + out.shape[1:]) if offset else None
    for i in range(min(CHUNK - 1, n_steps)):
        step = steps[i::CHUNK]
        x, nxt = out[i:i + CHUNK * len(step):CHUNK], out[i + 1::CHUNK]
        if offset:
            np.add(nxt, np.matmul(step, x, out=buf[:len(step)]), out=nxt)
        else:
            np.matmul(step, x, out=nxt)
    return out


def accumulate_transitions(steps: np.ndarray) -> np.ndarray:
    """Running products: out[0] = identity, out[k+1] = steps[k] @ out[k].

    steps is (K, m, m), or (B, K, m, m) for B members that step together in
    one loop; out is (K+1, m, m), or (B, K+1, m, m) with each member
    contiguous. For m = 1 the products are a cumulative product along time,
    bitwise the same.
    """
    m = steps.shape[-1]
    if m == 1:
        out = np.empty(steps.shape[:-3] + (steps.shape[-3] + 1, 1, 1))
        out[..., 0, :, :] = 1.0
        np.cumprod(steps, axis=-3, out=out[..., 1:, :, :])
        return out
    # member-major result, written through its time-major view
    out = np.empty(steps.shape[:-3] + (steps.shape[-3] + 1, m, m))
    path = np.moveaxis(out, -3, 0)
    path[0] = np.eye(m)
    linear_recursion(np.moveaxis(steps, -3, 0), path)
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
    (propagate.closed_loop_propagator). ||P|| > BLOWUP or a non-finite entry
    raises naming the time.

    m <= 2 runs one member at a time in plain floats (the m = 2 loop on the
    triple (p00, p01, p11), so its stage values are exactly symmetric);
    m >= 3 runs the members together in a numpy matrix loop.

    Several flows on one grid run as members of one sweep: P0 of shape
    (B, m, m) and/or eps of shape (B,), the other broadcast. Each member is
    bitwise what a single sweep of its (P0, eps) returns; a blow-up names the
    member that crosses first (the lowest index on a tie), whichever loop runs.

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
    q_lo, q_mid, q_hi = _forcing(stages["FFt"], eps)
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
    stops = []  # per member of a float loop: the node of its blow-up, or None

    if m <= 2:
        loop, entries, triple = ((_riccati_sweep_scalar, _ONE, _ONE) if m == 1 else
                                 (_riccati_sweep_pair, _ENTRIES, _TRIPLE))
        coefs = [_entry_views(c, entries) for c in (a_lo, a_mid, a_hi, g_lo, g_mid, g_hi)]
        qmembers = [q.reshape(n_steps, -1, m, m) for q in (q_lo, q_mid, q_hi)]
        pmembers = paths.reshape(-1, n_steps + 1, m, m)
        smembers = p234.reshape(3, n_steps, -1, m, m)
        stops = [loop(memoryview(h), *coefs, *(_entry_views(q[:, b], triple) for q in qmembers),
                      _entry_views(pmembers[b], triple),
                      [_entry_views(s[:, b], triple) for s in smembers])
                 for b in range(len(pmembers))]
        if m == 2:
            # the float loop writes the upper triangle
            paths[..., 1, 0] = paths[..., 0, 1]
            p234[..., 1, 0] = p234[..., 0, 1]
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
            # "not <=" so that a nan entry counts as a blow-up
            if not np.abs(P).max() <= BLOWUP:
                norms = np.abs(np.broadcast_to(P, batch + (m, m))).max(axis=(-2, -1))
                raise _blowup_error(np.argmax(~(norms <= BLOWUP)) if batch else None, grid[k + 1])
            path[k + 1] = P
            p2s[k], p3s[k], p4s[k] = p2, p3, p4
    # as in the matrix loop, name the earliest blow-up (lowest member on a tie)
    hits = [(k, b) for b, k in enumerate(stops) if k is not None]
    if hits:
        k, b = min(hits)
        raise _blowup_error(b if batch else None, grid[k])

    # closed-loop generators A - P G at the four stages, the last three in place
    shape = (n_steps,) + (1,) * len(batch) + (m, m)
    a_lo, a_mid, a_hi, g_lo, g_mid, g_hi = (c.reshape(shape) for c in
                                            (a_lo, a_mid, a_hi, g_lo, g_mid, g_hi))
    for s, a, g in zip(p234, (a_mid, a_mid, a_hi), (g_mid, g_mid, g_hi)):
        np.subtract(a, s @ g, out=s)
    msteps[...] = rk4_linear_steps(a_lo - path[:-1] @ g_lo, *p234, h)
    return paths, mpaths


def _forcing(ffts, eps: np.ndarray):
    """eps^2 F F^T at the three stage times, per member.

    Members with eps = 0 get +0.0 (0 * F would give -0.0 where F F^T < 0),
    so they add exactly what a noise-free single sweep adds.
    """
    e2 = (eps * eps)[..., None, None]
    members = tuple(range(1, 1 + eps.ndim))
    return tuple(np.where(e2 != 0.0, e2 * np.expand_dims(f, members), 0.0) for f in ffts)


def _blowup_error(member, t: float) -> FloatingPointError:
    where = "" if member is None else f" in member {member}"
    return FloatingPointError(f"Riccati blow-up{where}: ||P|| > {BLOWUP:g} at t={t:.6g}")


def _riccati_sweep_scalar(hs, a_lo, a_mid, a_hi, g_lo, g_mid, g_hi, q_lo, q_mid, q_hi,
                          pout, sout):
    """m = 1 P recursion of one member in plain float arithmetic; same stage formulas.

    Arguments are laid out as for _riccati_sweep_pair, with one entry per
    matrix: a_*, g_* and q_* hold the rows of A, G and eps^2 F F^T, pout the
    member's row of P, starting from P0, and sout[s] its rows of the stage
    values p2, p3, p4. Every row is a memoryview of floats. Returns the node
    of a blow-up, None if there is none.
    """
    (a1,), (a2,), (a3,), (g1,), (g2,), (g3,) = a_lo, a_mid, a_hi, g_lo, g_mid, g_hi
    (q1,), (q2,), (q3,) = q_lo, q_mid, q_hi
    (prow,), ((s2,), (s3,), (s4,)) = pout, sout
    p = prow[0]
    for k in range(len(hs)):
        hk = hs[k]
        half, sixth = 0.5 * hk, hk / 6.0
        A1, A2, A3 = a1[k], a2[k], a3[k]
        G1, G2, G3 = g1[k], g2[k], g3[k]
        k1p = 2.0 * A1 * p - G1 * p * p + q1[k]
        p2 = p + half * k1p
        k2p = 2.0 * A2 * p2 - G2 * p2 * p2 + q2[k]
        p3 = p + half * k2p
        k3p = 2.0 * A2 * p3 - G2 * p3 * p3 + q2[k]
        p4 = p + hk * k3p
        k4p = 2.0 * A3 * p4 - G3 * p4 * p4 + q3[k]
        p = p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        # a chained compare is False for nan, so nan counts as a blow-up
        if not -BLOWUP <= p <= BLOWUP:
            return k + 1
        prow[k + 1] = p
        s2[k] = p2
        s3[k] = p3
        s4[k] = p4


# the entry of a 1x1 matrix; the entries of a 2x2 matrix: all four, and the
# upper triangle of a symmetric one
_ONE = ((0, 0),)
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))
_TRIPLE = ((0, 0), (0, 1), (1, 1))


def _entry_views(stack, entries):
    """Zero-copy memoryviews of the given (i, j) entries of a (K, m, m) stack.

    Each view reads and writes the stack in place, one float per step.
    """
    return [memoryview(stack[:, i, j]) for i, j in entries]


def _riccati_sweep_pair(hs, a_lo, a_mid, a_hi, g_lo, g_mid, g_hi, q_lo, q_mid, q_hi, pout, sout):
    """m = 2 P recursion of one member in plain float arithmetic; same stage formulas.

    P = [[a, b], [b, c]] and its stage values are carried as symmetric
    triples, and each stage derivative A P + (A P)^T - (P G) P + Q is formed
    entry by entry on the triple. a_*, g_* hold the entries 00, 01, 10, 11
    of A and G, q_* the triple of eps^2 F F^T; pout holds the member's rows
    of p00, p01, p11, starting from P0, and sout[s] those of the stage values
    p2, p3, p4. Every row is a memoryview of floats. Returns the node of a
    blow-up, None if there is none.
    """
    ra, rb, rc = pout
    (sa2, sb2, sc2), (sa3, sb3, sc3), (sa4, sb4, sc4) = sout
    xa1, xb1, xc1, xd1 = a_lo
    xa2, xb2, xc2, xd2 = a_mid
    xa3, xb3, xc3, xd3 = a_hi
    ya1, yb1, yc1, yd1 = g_lo
    ya2, yb2, yc2, yd2 = g_mid
    ya3, yb3, yc3, yd3 = g_hi
    qa1, qb1, qc1 = q_lo
    qa2, qb2, qc2 = q_mid
    qa3, qb3, qc3 = q_hi
    a, b, c = ra[0], rb[0], rc[0]
    for k in range(len(hs)):
        hk = hs[k]
        half, sixth = 0.5 * hk, hk / 6.0
        x00, x01, x10, x11 = xa1[k], xb1[k], xc1[k], xd1[k]
        y00, y01, y10, y11 = ya1[k], yb1[k], yc1[k], yd1[k]
        g00, g01, g10, g11 = (a * y00 + b * y10, a * y01 + b * y11,
                              b * y00 + c * y10, b * y01 + c * y11)
        k1a = 2.0 * (x00 * a + x01 * b) - (g00 * a + g01 * b) + qa1[k]
        k1b = (x00 * b + x01 * c) + (x10 * a + x11 * b) - (g00 * b + g01 * c) + qb1[k]
        k1c = 2.0 * (x10 * b + x11 * c) - (g10 * b + g11 * c) + qc1[k]
        a2, b2, c2 = a + half * k1a, b + half * k1b, c + half * k1c

        x00, x01, x10, x11 = xa2[k], xb2[k], xc2[k], xd2[k]
        y00, y01, y10, y11 = ya2[k], yb2[k], yc2[k], yd2[k]
        qa, qb, qc = qa2[k], qb2[k], qc2[k]
        g00, g01, g10, g11 = (a2 * y00 + b2 * y10, a2 * y01 + b2 * y11,
                              b2 * y00 + c2 * y10, b2 * y01 + c2 * y11)
        k2a = 2.0 * (x00 * a2 + x01 * b2) - (g00 * a2 + g01 * b2) + qa
        k2b = (x00 * b2 + x01 * c2) + (x10 * a2 + x11 * b2) - (g00 * b2 + g01 * c2) + qb
        k2c = 2.0 * (x10 * b2 + x11 * c2) - (g10 * b2 + g11 * c2) + qc
        a3, b3, c3 = a + half * k2a, b + half * k2b, c + half * k2c

        g00, g01, g10, g11 = (a3 * y00 + b3 * y10, a3 * y01 + b3 * y11,
                              b3 * y00 + c3 * y10, b3 * y01 + c3 * y11)
        k3a = 2.0 * (x00 * a3 + x01 * b3) - (g00 * a3 + g01 * b3) + qa
        k3b = (x00 * b3 + x01 * c3) + (x10 * a3 + x11 * b3) - (g00 * b3 + g01 * c3) + qb
        k3c = 2.0 * (x10 * b3 + x11 * c3) - (g10 * b3 + g11 * c3) + qc
        a4, b4, c4 = a + hk * k3a, b + hk * k3b, c + hk * k3c

        x00, x01, x10, x11 = xa3[k], xb3[k], xc3[k], xd3[k]
        y00, y01, y10, y11 = ya3[k], yb3[k], yc3[k], yd3[k]
        g00, g01, g10, g11 = (a4 * y00 + b4 * y10, a4 * y01 + b4 * y11,
                              b4 * y00 + c4 * y10, b4 * y01 + c4 * y11)
        k4a = 2.0 * (x00 * a4 + x01 * b4) - (g00 * a4 + g01 * b4) + qa3[k]
        k4b = (x00 * b4 + x01 * c4) + (x10 * a4 + x11 * b4) - (g00 * b4 + g01 * c4) + qb3[k]
        k4c = 2.0 * (x10 * b4 + x11 * c4) - (g10 * b4 + g11 * c4) + qc3[k]

        a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (-BLOWUP <= a <= BLOWUP and -BLOWUP <= b <= BLOWUP and -BLOWUP <= c <= BLOWUP):
            return k + 1
        ra[k + 1], rb[k + 1], rc[k + 1] = a, b, c
        sa2[k], sb2[k], sc2[k] = a2, b2, c2
        sa3[k], sb3[k], sc3[k] = a3, b3, c3
        sa4[k], sb4[k], sc4[k] = a4, b4, c4


def gain_steps(model: LtvModel, grid, msteps: np.ndarray, phi_steps: np.ndarray):
    """Per-step observation gain matrices D_k of the filter recursion, and C_k dt.

    D_k := (Phi_step_k - M_k) pinv(C_k dt), with phi_steps the transition
    steps of the grid: a consistent realization of P_k C_k^T R_k^-1. The
    remainder E_k = (Phi_step_k - M_k) - D_k C_k dt is zero up to rounding
    whenever C_k has full column rank (pinv(C) C = I; always for square
    invertible C); otherwise it is the part of Phi_step_k - M_k that C_k dt
    does not reach, and the mismatched-pair error decomposition carries it
    as a third term (kalman.mean_decomposition_diagnostics). Returns the
    (..., K, m, n) gains and the (K, n, m) products C_k dt they invert.
    """
    cdt = model.C_at(grid[:-1]) * (grid[1:] - grid[:-1])[:, None, None]
    return (phi_steps - msteps) @ np.linalg.pinv(cdt), cdt
