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
alone. For m <= FLOAT_LOOP_MAX_M each member runs through a plain-float
loop that reads and writes the arrays in place through zero-copy
memoryviews of their entries. That loop is straight-line Python generated
once per m from one stage formula (_float_loop_source) and carries the upper
triangle of P, so its stage values p2, p3, p4 are exactly symmetric. Larger
m runs all members together through a numpy matrix loop. The loops share
the stage formulas; the float loop rounds each product sum as a plain
left-to-right sum, where numpy's matmul may round it otherwise.
"""

from __future__ import annotations

import functools
import itertools
import linecache

import numpy as np

from .model import LtvModel

# ||P|| above which the Riccati sweep stops and reports a blow-up
BLOWUP = 1e12

# RK4 is stable for h lambda on the negative real axis down to -RK4_REAL_LIMIT,
# the real root of z + z^2/2 + z^3/6 + z^4/24 = 0
RK4_REAL_LIMIT = 2.785293563405282

# steps per chunk of the two-level scan in linear_recursion; a streamed
# recursion resumed at a multiple of it is bitwise the whole one
CHUNK = 32

# largest state dimension whose Riccati sweep runs the generated plain-float
# loop, one member at a time; above it the numpy matrix loop, which steps
# every member together, is faster (whole sweep per step on a random
# periodic model: 21.3 against 35.3 us at m = 4, 40.2 against 36.5 us at m = 5)
FLOAT_LOOP_MAX_M = 4


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
    raises naming the time: as a step too large for RK4 when a step up to
    the crossing started with h max(-Re(l_i + l_j)) > RK4_REAL_LIMIT over the
    eigenvalues l of A - P C^T R^-1 C (the linearized flow left RK4's
    stability interval), otherwise as a blow-up.

    m <= FLOAT_LOOP_MAX_M runs one member at a time through the plain-float
    loop generated for m (_float_loop), on the upper triangle of P, so its
    stage values are exactly symmetric; larger m runs the members together
    in a numpy matrix loop.

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
    stops = []  # (node, member) of each blow-up

    if m <= FLOAT_LOOP_MAX_M:
        full, upper = _entries(m)
        loop = _float_loop(m)
        coefs = [_entry_views(c, full) for c in (a_lo, a_mid, a_hi, g_lo, g_mid, g_hi)]
        qmembers = [q.reshape(n_steps, -1, m, m) for q in (q_lo, q_mid, q_hi)]
        pmembers = paths.reshape(-1, n_steps + 1, m, m)
        smembers = p234.reshape(3, n_steps, -1, m, m)
        for b in range(len(pmembers)):
            node = loop(memoryview(h), *coefs, *(_entry_views(q[:, b], upper) for q in qmembers),
                        _entry_views(pmembers[b], upper),
                        [_entry_views(s[:, b], upper) for s in smembers])
            if node is not None:
                stops.append((node, b))
        # the float loop writes the upper triangle
        for i, j in itertools.combinations(range(m), 2):
            paths[..., j, i] = paths[..., i, j]
            p234[..., j, i] = p234[..., i, j]
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
                stops = [(k + 1, int(np.argmax(~(norms <= BLOWUP))))]
                break
            path[k + 1] = P
            p2s[k], p3s[k], p4s[k] = p2, p3, p4
    if stops:
        # the earliest blow-up, the lowest member on a tie
        node, b = min(stops)
        starts = paths.reshape(-1, n_steps + 1, m, m)[b, :node]
        closed = np.linalg.eigvals(a_lo[:node] - starts @ g_lo[:node]).real
        raise _sweep_error(b if batch else None, -2.0 * h[:node] * closed.min(axis=-1),
                           grid, node)

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
    so they add exactly what a noise-free single sweep adds. A constant path
    (a read-only broadcast of one matrix, stride 0 along time) is formed on
    that one matrix, bitwise the per-node result; every path is returned as
    a read-only view.
    """
    e2 = (eps * eps)[..., None, None]
    members = tuple(range(1, 1 + eps.ndim))

    def path(f):
        one = f.strides[0] == 0
        q = np.where(e2 != 0.0, e2 * np.expand_dims(f[:1] if one else f, members), 0.0)
        return np.broadcast_to(q, (len(f),) + q.shape[1:])
    return tuple(map(path, ffts))


def _sweep_error(member, indicator: np.ndarray, grid, node: int) -> FloatingPointError:
    """The error of a sweep that crossed BLOWUP at grid[node], given each step's RK4 indicator."""
    where = "" if member is None else f" in member {member}"
    crossed = f"||P|| > {BLOWUP:g} at t={grid[node]:.6g}"
    k = int(np.argmax(indicator))
    if indicator[k] > RK4_REAL_LIMIT:
        return FloatingPointError(
            f"Riccati step too large for RK4{where}: h max(-Re(lambda_i + lambda_j)) = "
            f"{indicator[k]:.4g} > {RK4_REAL_LIMIT:.4g} in the step from t={grid[k]:.6g}; {crossed}")
    return FloatingPointError(f"Riccati blow-up{where}: {crossed}")


def _entry_views(stack, entries):
    """Zero-copy memoryviews of the given (i, j) entries of a (K, m, m) stack.

    Each view reads and writes the stack in place, one float per step.
    """
    return [memoryview(stack[:, i, j]) for i, j in entries]


def _entries(m: int):
    """Every (i, j) of an m x m matrix, and its upper triangle i <= j, row-major."""
    return (list(itertools.product(range(m), repeat=2)),
            list(itertools.combinations_with_replacement(range(m), 2)))


def _float_loop_source(m: int) -> str:
    """Straight-line source of the plain-float P recursion for dimension m.

    P = P^T and its stage values p2, p3, p4 are carried as their upper
    triangles (p01, p2_01, ...), so the stage values are exactly symmetric.
    Each stage derivative is formed entry by entry, every product sum left
    to right: PG in full, then on the upper triangle
        k_ii = 2.0 * (AP)_ii - (PGP)_ii + q_ii,
        k_ij = (AP)_ij + (AP)_ji - (PGP)_ij + q_ij,
    with PGP = (PG) P and q = eps^2 F F^T at the stage time.
    """
    full, upper = _entries(m)

    def listed(fmt, entries):
        # "n00, n01, ": a tuple target or value list of any length
        return "".join(fmt.format(i, j) + ", " for i, j in entries)

    def entry(name, i, j):
        # A (x), G (y) and PG (g) are full; a stage value of P is symmetric
        return f"{name}{i}{j}" if name in ("x", "y", "g") else f"{name}{min(i, j)}{max(i, j)}"

    def dot(left, right, i, j):
        return " + ".join(f"{entry(left, i, l)} * {entry(right, l, j)}" for l in range(m))

    def stage(s, pre, read, q):
        """Lines forming the derivative k{s} at the stage value named pre."""
        lines = [f"{c}{i}{j} = {c}{read}{i}{j}[k]" for c in "xy" for i, j in full] if read else []
        lines += [f"g{i}{j} = {dot(pre, 'y', i, j)}" for i, j in full]
        for i, j in upper:
            lead = (f"2.0 * ({dot('x', pre, i, i)})" if i == j else
                    f"({dot('x', pre, i, j)}) + ({dot('x', pre, j, i)})")
            lines.append(f"k{s}_{i}{j} = {lead} - ({dot('g', pre, i, j)}) + {q.format(i, j)}")
        return lines

    head = [f"{listed(name + '{}{}', full)}= {arg}" for arg, name in
            (("a_lo", "xlo"), ("a_mid", "xmid"), ("a_hi", "xhi"),
             ("g_lo", "ylo"), ("g_mid", "ymid"), ("g_hi", "yhi"))]
    head += [f"{listed(name + '{}{}', upper)}= {arg}" for arg, name in
             (("q_lo", "qlo"), ("q_mid", "qmid"), ("q_hi", "qhi"), ("pout", "r"))]
    head += ["".join(f"({listed(f's{s}_{{}}{{}}', upper)}), " for s in (2, 3, 4)) + "= sout",
             f"{listed('p{}{}', upper)}= {listed('r{}{}[0]', upper)}"]
    loop = ["hk = hs[k]", "half, sixth = 0.5 * hk, hk / 6.0"]
    loop += stage(1, "p", "lo", "qlo{}{}[k]")
    loop += [f"p2_{i}{j} = p{i}{j} + half * k1_{i}{j}" for i, j in upper]
    loop += [f"q{i}{j} = qmid{i}{j}[k]" for i, j in upper]
    loop += stage(2, "p2_", "mid", "q{}{}")
    loop += [f"p3_{i}{j} = p{i}{j} + half * k2_{i}{j}" for i, j in upper]
    loop += stage(3, "p3_", "", "q{}{}")
    loop += [f"p4_{i}{j} = p{i}{j} + hk * k3_{i}{j}" for i, j in upper]
    loop += stage(4, "p4_", "hi", "qhi{}{}[k]")
    loop += [f"p{i}{j} = p{i}{j} + sixth * (k1_{i}{j} + 2.0 * k2_{i}{j} + 2.0 * k3_{i}{j}"
             f" + k4_{i}{j})" for i, j in upper]
    # a chained compare is False for nan, so nan counts as a blow-up
    loop += ["if not (" + " and ".join(f"-BLOWUP <= p{i}{j} <= BLOWUP" for i, j in upper) + "):",
             "    return k + 1"]
    loop += [f"r{i}{j}[k + 1] = p{i}{j}" for i, j in upper]
    loop += [f"s{s}_{i}{j}[k] = p{s}_{i}{j}" for s in (2, 3, 4) for i, j in upper]
    return "\n".join([f"def float_loop_m{m}(hs, a_lo, a_mid, a_hi, g_lo, g_mid, g_hi, "
                      "q_lo, q_mid, q_hi, pout, sout):"]
                     + ["    " + line for line in head] + ["    for k in range(len(hs)):"]
                     + ["        " + line for line in loop]) + "\n"


@functools.cache
def _float_loop(m: int):
    """The plain-float P recursion of one member, compiled once per m.

    Its source is _float_loop_source(m), registered with linecache so that
    tracebacks and inspect.getsource show it. The loop takes the step
    widths; memoryviews of every entry of A and G at the three stage times
    (lo, mid, hi) and of the upper triangles of eps^2 F F^T; pout, the
    member's upper-triangle rows of P, starting from P0; and sout[s], those
    of the stage values p2, p3, p4. It writes the rows in place and returns
    the node of a blow-up, None if there is none.
    """
    source = _float_loop_source(m)
    filename = f"<kblab._integrators float loop m={m}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[f"float_loop_m{m}"]


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
    # one pinv per distinct C_k dt, told apart by their bytes so that -0.0
    # and +0.0 stay distinct: bitwise the per-node pinv
    rows = np.ascontiguousarray(cdt).reshape(len(cdt), -1)
    distinct, inverse = np.unique(rows.view((np.void, rows.itemsize * rows.shape[1]))[:, 0],
                                  return_inverse=True)
    pinvs = np.linalg.pinv(distinct.view(float).reshape((-1,) + cdt.shape[1:]))
    return (phi_steps - msteps) @ pinvs[inverse], cdt
