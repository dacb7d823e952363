"""Loops that carry only their recursion equal the per-step loops bitwise.

Each reference below is the per-step loop or kernel the current code
replaced, kept here verbatim in its arithmetic; every comparison is exact.
Linear recursions run in chunks (_integrators.linear_recursion): they equal
a plain chunked loop exactly, the per-step loop exactly in their first
CHUNK rows, and the per-step loop within a float bound everywhere. Those two
loops and the whole-path observation generator are in references.py.
"""

import functools
import inspect
import operator
import re
from dataclasses import replace

import numpy as np
import pytest

from kblab import simulate
from kblab._integrators import (
    CHUNK,
    FLOAT_LOOP_MAX_M,
    _float_loop,
    _float_loop_source,
    _forcing,
    accumulate_transitions,
    coefficient_stages,
    gain_steps,
    linear_recursion,
    riccati_sweep,
    transition_steps,
)
from kblab.kalman import _scan, filter_pieces, filter_pieces_batch, mismatched_mc, run_filter
from kblab.model import constant_model, make_grid, periodic_model, psd_sqrt
from kblab.propagate import (
    COND_LIMIT,
    _half_step_transitions,
    accumulated_information,
    fundamental_matrix,
    uco_gramian,
)
from kblab.riccati import closed_form_dre, integrate_dre_batch
from kblab.scenarios import SCENARIOS, builtin_scenario
from kblab.simulate import (
    ObservationPath,
    RngStream,
    fine_grid,
    generate_observation_path,
    simulate_truth,
)
from references import chunked_loop, euler_maruyama_steps, sequential_loop, whole_path_generator


def _dense_model(m):
    """Time-varying m x m model with full A0, A1, a two-row C, C1, R1 and F1.

    Unlike rotation_partial (A in {0, +-1}, G = diag(1, 0)), its products
    round, so a change in the order of a sum shows in the bits. m = 2 is a
    fixed model; larger m draws the coefficients from a seeded generator.
    """
    if m == 2:
        return periodic_model([[-0.3, 1.1], [-0.7, 0.2]], [[0.25, -0.4], [0.35, 0.15]],
                              [[0.9, 0.3], [-0.2, 0.8]], [[1.1, 0.2], [0.2, 0.5]], omega=1.7,
                              F=[[0.6, 0.2], [0.1, 0.7]], C1=[[0.2, -0.1], [0.05, 0.3]],
                              R1=[[0.3, 0.0], [0.0, 0.1]], F1=[[0.4, 0.1], [-0.2, 0.3]])
    rng = np.random.default_rng(40 + m)
    return periodic_model(rng.uniform(-0.8, 0.8, (m, m)) - 0.3 * np.eye(m),
                          rng.uniform(-0.4, 0.4, (m, m)), rng.uniform(-1.0, 1.0, (2, m)),
                          [[1.1, 0.2], [0.2, 0.5]], omega=1.7, F=rng.uniform(-0.7, 0.7, (m, m)),
                          C1=rng.uniform(-0.3, 0.3, (2, m)), R1=[[0.3, 0.0], [0.0, 0.1]],
                          F1=rng.uniform(-0.4, 0.4, (m, m)))


def _models():
    return {
        2: builtin_scenario("rotation_partial").model,
        3: periodic_model(builtin_scenario("periodic3").model.A0, 0.2 * np.ones((3, 3)),
                          np.eye(3), np.eye(3), omega=2.0, R1=0.3 * np.eye(3),
                          F1=[[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.4]]),
    }


def _spd_stack(m, count, seed):
    rng = np.random.default_rng(seed)
    roots = [rng.standard_normal((m, m)) for _ in range(count)]
    return np.stack([L @ L.T + 0.1 * np.eye(m) for L in roots])


def _sweep_loop(model, grid, P0, eps):
    """Per-step Riccati sweep building P and M_k in one loop (m > 1)."""
    n_steps, m = len(grid) - 1, model.m
    P0, eps = np.asarray(P0, dtype=float), np.asarray(eps, dtype=float)
    batch = np.broadcast_shapes(P0.shape[:-2], eps.shape)
    stages = coefficient_stages(model, grid)
    a_lo, a_mid, a_hi = stages["A"]
    g_lo, g_mid, g_hi = stages["G"]
    q_lo, q_mid, q_hi = _forcing(stages["FFt"], np.broadcast_to(eps, batch))
    eye = np.eye(m)
    h = grid[1:] - grid[:-1]
    path = np.empty((n_steps + 1,) + batch + (m, m))
    msteps = np.empty((n_steps,) + batch + (m, m))
    P = 0.5 * (P0 + P0.swapaxes(-1, -2))
    path[0] = P
    for k in range(n_steps):
        hk = h[k]
        A1, A2, A3 = a_lo[k], a_mid[k], a_hi[k]
        G1, G2, G3 = g_lo[k], g_mid[k], g_hi[k]
        Q1, Q2, Q3 = q_lo[k], q_mid[k], q_hi[k]
        pg = P @ G1
        ap = A1 @ P
        k1p = ap + ap.swapaxes(-1, -2) - pg @ P + Q1
        k1m = A1 - pg
        p2 = P + (0.5 * hk) * k1p
        pg = p2 @ G2
        ap = A2 @ p2
        k2p = ap + ap.swapaxes(-1, -2) - pg @ p2 + Q2
        k2m = (A2 - pg) @ (eye + (0.5 * hk) * k1m)
        p3 = P + (0.5 * hk) * k2p
        pg = p3 @ G2
        ap = A2 @ p3
        k3p = ap + ap.swapaxes(-1, -2) - pg @ p3 + Q2
        k3m = (A2 - pg) @ (eye + (0.5 * hk) * k2m)
        p4 = P + hk * k3p
        pg = p4 @ G3
        ap = A3 @ p4
        k4p = ap + ap.swapaxes(-1, -2) - pg @ p4 + Q3
        k4m = (A3 - pg) @ (eye + hk * k3m)
        P = P + (hk / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        P = 0.5 * (P + P.swapaxes(-1, -2))
        path[k + 1] = P
        msteps[k] = eye + (hk / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    return np.moveaxis(path, 0, -3), np.moveaxis(msteps, 0, -3)


def _float_sweep_loop(model, grid, P0, eps):
    """Sweep in plain float arithmetic, one member at a time, for any m.

    Matrix products are summed left to right over nested lists, each sum
    starting from its first product (not from 0, which would turn a -0.0
    sum into +0.0). Each stage derivative keeps its upper triangle and
    mirrors it, so P and its stage values stay exactly symmetric; M_k is
    built in the same step, in matrix form, from those stage values.
    """
    n_steps, m = len(grid) - 1, model.m
    P0, eps = np.asarray(P0, dtype=float), np.asarray(eps, dtype=float)
    batch = np.broadcast_shapes(P0.shape[:-2], eps.shape)
    stages = coefficient_stages(model, grid)
    a_lo, a_mid, a_hi = stages["A"]
    g_lo, g_mid, g_hi = stages["G"]
    qs = [q.reshape(n_steps, -1, m, m) for q in
          _forcing(stages["FFt"], np.broadcast_to(eps, batch))]
    p0s = np.broadcast_to(0.5 * (P0 + P0.swapaxes(-1, -2)), batch + (m, m)).reshape(-1, m, m)
    hs = (grid[1:] - grid[:-1]).tolist()
    eye = np.eye(m)

    def mul(x, y):
        return [[functools.reduce(operator.add, (x[i][l] * y[l][j] for l in range(m)))
                 for j in range(m)] for i in range(m)]

    def deriv(a, g, q, p):
        ap, pgp = mul(a, p), mul(mul(p, g), p)
        return [[ap[i][j] + ap[j][i] - pgp[i][j] + q[i][j] if i <= j else None
                 for j in range(m)] for i in range(m)]

    def step(p, s, d):
        out = [[p[i][j] + s * d[i][j] if i <= j else None for j in range(m)] for i in range(m)]
        for i in range(m):
            for j in range(i):
                out[i][j] = out[j][i]
        return out

    paths = np.empty((len(p0s), n_steps + 1, m, m))
    msteps = np.empty((len(p0s), n_steps, m, m))
    for b in range(len(p0s)):
        P = p0s[b].tolist()
        paths[b, 0] = P
        for k in range(n_steps):
            hk = hs[k]
            A1, A2, A3 = a_lo[k], a_mid[k], a_hi[k]
            G1, G2, G3 = g_lo[k], g_mid[k], g_hi[k]
            Q1, Q2, Q3 = (q[k, b].tolist() for q in qs)
            k1p = deriv(A1.tolist(), G1.tolist(), Q1, P)
            p2 = step(P, 0.5 * hk, k1p)
            k2p = deriv(A2.tolist(), G2.tolist(), Q2, p2)
            p3 = step(P, 0.5 * hk, k2p)
            k3p = deriv(A2.tolist(), G2.tolist(), Q2, p3)
            p4 = step(P, hk, k3p)
            k4p = deriv(A3.tolist(), G3.tolist(), Q3, p4)
            k1m = A1 - np.array(P) @ G1
            k2m = (A2 - np.array(p2) @ G2) @ (eye + (0.5 * hk) * k1m)
            k3m = (A2 - np.array(p3) @ G2) @ (eye + (0.5 * hk) * k2m)
            k4m = (A3 - np.array(p4) @ G3) @ (eye + hk * k3m)
            P = step(P, hk / 6.0, [[k1p[i][j] + 2.0 * k2p[i][j] + 2.0 * k3p[i][j] + k4p[i][j]
                                    if i <= j else None for j in range(m)] for i in range(m)])
            paths[b, k + 1] = P
            msteps[b, k] = eye + (hk / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    return (paths.reshape(batch + (n_steps + 1, m, m)),
            msteps.reshape(batch + (n_steps, m, m)))


def _member_cases(m, members):
    P0s = _spd_stack(m, 3, seed=20 + m)
    return {"single": (P0s[0], 0.1), "P0": (P0s, np.array([0.0, 0.1, 0.0])),
            "eps": (P0s[1], np.array([0.0, 0.1]))}[members]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("members", ["single", "P0", "eps"])
def test_riccati_sweep_equals_per_step_loop(m, members):
    # m <= FLOAT_LOOP_MAX_M runs the generated float loop, m = 5 the numpy
    # matrix loop
    if m <= FLOAT_LOOP_MAX_M:
        reference = _float_sweep_loop
        models = (_models()[m], _dense_model(m)) if m in _models() else (_dense_model(m),)
    else:
        reference, models = _sweep_loop, (_dense_model(m),)
    grid = make_grid(3.0, 0.01)
    P0, eps = _member_cases(m, members)
    for mdl in models:
        path, msteps = riccati_sweep(mdl, grid, P0, eps=eps)
        ref_path, ref_msteps = reference(mdl, grid, P0, eps)
        assert np.array_equal(path, ref_path)
        assert np.array_equal(msteps, ref_msteps)
        if members == "single":
            path, msteps = riccati_sweep(mdl, grid, P0)
            ref_path, ref_msteps = reference(mdl, grid, P0, 0.0)
            assert np.array_equal(path, ref_path) and np.array_equal(msteps, ref_msteps)


@pytest.mark.parametrize("members", ["single", "P0", "eps"])
def test_pair_float_recursion_agrees_with_matrix_loop(members):
    # m = 2 and 3 on models whose sums round: the float loop and the numpy
    # loop differ only in where each product sum rounds
    grid = make_grid(3.0, 0.01)
    for mdl in (_dense_model(2), _dense_model(3)):
        P0, eps = _member_cases(mdl.m, members)
        path, msteps = riccati_sweep(mdl, grid, P0, eps=eps)
        ref_path, ref_msteps = _sweep_loop(mdl, grid, P0, eps)
        assert np.abs(path - ref_path).max() <= 1e-13 * np.abs(ref_path).max()
        assert np.abs(msteps - ref_msteps).max() <= 1e-13 * np.abs(ref_msteps).max()


def test_float_loop_source_is_inspectable():
    # the generated loop shows in tracebacks and inspect.getsource
    loop = _float_loop(3)
    assert inspect.getsource(loop) == _float_loop_source(3)
    assert loop is _float_loop(3)


def _scalar_models():
    return [constant_model([[0.3]], [[1.0]], [[2.0]], F=[[0.7]]),
            periodic_model([[-0.2]], [[0.5]], [[1.0]], [[1.0]], omega=2.0, C1=[[0.3]],
                           R1=[[0.2]], F1=[[0.4]])]


def _scalar_sweep_loop(model, grid, P0, eps):
    """Scalar sweep building P and M_k in one float loop per member (m = 1)."""
    n_steps = len(grid) - 1
    P0, eps = np.asarray(P0, dtype=float), np.asarray(eps, dtype=float)
    batch = np.broadcast_shapes(P0.shape[:-2], eps.shape)
    stages = coefficient_stages(model, grid)
    a1, a2, a3 = (c[:, 0, 0].tolist() for c in stages["A"])
    g1, g2, g3 = (c[:, 0, 0].tolist() for c in stages["G"])
    qcols = [q.reshape(n_steps, -1) for q in
             _forcing(stages["FFt"], np.broadcast_to(eps, batch))]
    p0s = np.broadcast_to(0.5 * (P0 + P0.swapaxes(-1, -2)), batch + (1, 1)).reshape(-1)
    hs = (grid[1:] - grid[:-1]).tolist()
    paths = np.empty((p0s.size, n_steps + 1))
    msteps = np.empty((p0s.size, n_steps))
    for b in range(p0s.size):
        q1, q2, q3 = (q[:, b].tolist() for q in qcols)
        p = paths[b, 0] = float(p0s[b])
        for k in range(n_steps):
            hk = hs[k]
            A1, A2, A3 = a1[k], a2[k], a3[k]
            G1, G2, G3 = g1[k], g2[k], g3[k]
            k1p = 2.0 * A1 * p - G1 * p * p + q1[k]
            k1m = A1 - p * G1
            p2 = p + 0.5 * hk * k1p
            k2p = 2.0 * A2 * p2 - G2 * p2 * p2 + q2[k]
            k2m = (A2 - p2 * G2) * (1.0 + 0.5 * hk * k1m)
            p3 = p + 0.5 * hk * k2p
            k3p = 2.0 * A2 * p3 - G2 * p3 * p3 + q2[k]
            k3m = (A2 - p3 * G2) * (1.0 + 0.5 * hk * k2m)
            p4 = p + hk * k3p
            k4p = 2.0 * A3 * p4 - G3 * p4 * p4 + q3[k]
            k4m = (A3 - p4 * G3) * (1.0 + hk * k3m)
            p = p + (hk / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            paths[b, k + 1] = p
            msteps[b, k] = 1.0 + (hk / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
    return (paths.reshape(batch + (n_steps + 1, 1, 1)),
            msteps.reshape(batch + (n_steps, 1, 1)))


@pytest.mark.parametrize("model", [0, 1])
@pytest.mark.parametrize("members", ["single", "P0", "eps"])
def test_scalar_riccati_sweep_equals_float_loop(model, members):
    mdl = _scalar_models()[model]
    grid = make_grid(3.0, 0.01)
    P0s = np.array([0.5, 2.0, 1e-3]).reshape(3, 1, 1)
    cases = {"single": [(P0s[1], 0.0), (P0s[1], 0.1)],
             "P0": [(P0s, np.array([0.0, 0.1, 0.0]))],
             "eps": [(P0s[0], np.array([0.0, 0.2, 0.1, 0.05, 0.025]))]}[members]
    for P0, eps in cases:
        path, msteps = riccati_sweep(mdl, grid, P0, eps=eps)
        ref_path, ref_msteps = _scalar_sweep_loop(mdl, grid, P0, eps)
        assert np.array_equal(path, ref_path)
        assert np.array_equal(msteps, ref_msteps)


def _same_bits(out, ref):
    return (out.shape == ref.shape and np.array_equal(out, ref)
            and np.array_equal(np.signbit(out), np.signbit(ref)))


def test_forcing_equals_per_node_forcing():
    # a constant F F^T is formed once per member and broadcast; every bit,
    # the +0.0 of eps = 0 members and the -0.0 of negative entries included,
    # is that of the per-node, per-member formation
    F = [[0.6, 0.2], [0.1, -0.7]]  # F F^T has a negative off-diagonal entry
    A = [[-0.3, 1.1], [-0.7, 0.2]]
    grid = make_grid(1.0, 0.1)
    for mdl in (constant_model(A, [[1.0, 0.0]], [[1.0]], F=F),
                periodic_model(A, np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]], F=F, F1=np.eye(2))):
        ffts = coefficient_stages(mdl, grid)["FFt"]
        for eps in (np.array(0.0), np.array(0.3), np.array([0.0, 0.2, 0.0])):
            e2s = (eps * eps).reshape(-1)
            for q, f in zip(_forcing(ffts, eps), ffts):
                ref = np.array([[e2 * f[k] if e2 != 0.0 else np.zeros((2, 2)) for e2 in e2s]
                                for k in range(len(f))]).reshape(q.shape)
                assert _same_bits(q, ref)
                assert (q.strides[0] == 0) == (mdl.F1 is None)


def test_gains_take_one_pinv_per_distinct_input():
    # one pinv per distinct C_k dt, told apart by bytes: bitwise the pinv of
    # every node. The last model's zeros in C_k are +0.0 where sin >= 0 and
    # -0.0 where sin < 0, and pinv's bits depend on their sign, so inputs
    # that are equal as values must not share a pinv
    A = [[-0.3, 1.1], [-0.7, 0.2]]
    C = [[-0.0, -0.0], [0.32, -0.0], [-1.9, -0.11]]
    grid = make_grid(3.0, 0.01)
    for mdl in (builtin_scenario("rotation_partial").model, _dense_model(2),
                constant_model(A, C, np.eye(3)),
                periodic_model(A, np.zeros((2, 2)), C, np.eye(3), omega=1.7, C1=np.zeros((3, 2)))):
        phi = transition_steps(mdl, grid)
        msteps = riccati_sweep(mdl, grid, np.eye(2))[1]
        gains, cdt = gain_steps(mdl, grid, msteps, phi)
        assert _same_bits(gains, (phi - msteps) @ np.linalg.pinv(cdt))


def _free_flow_steps(model, lo, mid, hi, h):
    """RK4 one-step matrices of dz = A(t) z dt, A evaluated at explicit stage times."""
    h = h[:, None, None]
    a_lo, a_mid, a_hi = model.A_at(lo), model.A_at(mid), model.A_at(hi)
    eye = np.eye(model.m)
    k1 = a_lo
    k2 = a_mid @ (eye + (h / 2.0) * k1)
    k3 = a_mid @ (eye + (h / 2.0) * k2)
    k4 = a_hi @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("name", SCENARIOS)
def test_free_flow_steps_equal_reference_kernel(name):
    mdl = builtin_scenario(name).model
    widths = np.random.default_rng(8).uniform(0.005, 0.05, 300)
    for grid in (make_grid(6.0, 0.02), np.concatenate([[0.0], np.cumsum(widths)])):
        lo, h = grid[:-1], grid[1:] - grid[:-1]
        assert np.array_equal(transition_steps(mdl, grid),
                              _free_flow_steps(mdl, lo, 0.5 * (lo + grid[1:]), grid[1:], h))
        hh = 0.5 * h
        assert np.array_equal(_half_step_transitions(mdl, grid),
                              _free_flow_steps(mdl, lo, lo + 0.5 * hh, lo + hh, hh))


def _assert_near(out, ref, bound=2e-14):
    """out agrees with ref to bound relative to ref's largest entry."""
    assert np.abs(out - ref).max() <= bound * np.abs(ref).max()


def _scan_loop(pieces, increments, x0, loop=chunked_loop):
    """Filter scan by the given recursion loop; innovations from its means."""
    msteps, gains, cdt = pieces.riccati.closed_loop_steps, pieces.gains, pieces.cdt
    steps = range(len(msteps))
    means = loop(msteps, np.asarray(x0, dtype=float),
                 np.stack([gains[k] @ increments[k] for k in steps]))
    innov = np.stack([increments[k] - cdt[k] @ means[k] for k in steps])
    return means, innov


@pytest.mark.parametrize("name", ["rotation", "rotation_partial", "periodic3", "scalar_unstable"])
def test_scan_equals_per_step_loop(name):
    cfg = builtin_scenario(name)
    grid = make_grid(4.0, 0.02)
    pieces = filter_pieces(cfg.model, grid, cfg.P0)
    rng = np.random.default_rng(5)
    n, m, n_steps = cfg.model.n, cfg.model.m, len(grid) - 1
    cases = [(rng.standard_normal((n_steps, n, 4)), rng.standard_normal((m, 4))),  # seed columns
             (rng.standard_normal((n_steps, n, 1)), rng.standard_normal((m, 3)))]  # shared path
    for increments, x0 in cases:
        means = _scan([pieces], increments, x0[None])
        assert means.shape == (n_steps + 1, 1) + x0.shape
        assert np.array_equal(means[:, 0], _scan_loop(pieces, increments, x0)[0])
        _assert_near(means[:, 0], _scan_loop(pieces, increments, x0, sequential_loop)[0])
    # stacked members: four flows in one scan, two on each of two blocks of
    # three seed columns, then all four on one shared path; every member
    # equals its own per-step loop
    members = filter_pieces_batch(cfg.model, grid, np.stack([cfg.P0, 2.0 * cfg.P0, cfg.P0, cfg.P0]),
                                  eps_gain=[0.0, 0.0, 0.2, 0.05])
    x0 = rng.standard_normal((4, m, 3))
    for increments in (rng.standard_normal((n_steps, n, 6)), rng.standard_normal((n_steps, n, 1))):
        means = _scan(members, increments, x0)
        assert means.shape == (n_steps + 1,) + x0.shape
        for b, member in enumerate(members):
            lo = b // 2 * 3
            block = increments if increments.shape[2] == 1 else increments[:, :, lo:lo + 3]
            ref = _scan_loop(member, np.ascontiguousarray(block), x0[b])[0]
            assert np.array_equal(means[:, b], ref)
            _assert_near(means[:, b], _scan_loop(member, block, x0[b], sequential_loop)[0])
    # run_filter forms the innovations after the scan; a one-seed path runs
    # as one column and is compared with the (m,) state loop
    for increments in (rng.standard_normal((len(grid) - 1, n)),          # one path
                       rng.standard_normal((len(grid) - 1, n, 4))):      # seed columns
        obs = ObservationPath(grid=grid, increments=increments)
        run = run_filter(cfg.model, obs, (cfg.m0, cfg.P0), pieces=pieces)
        x0 = cfg.m0 if increments.ndim == 2 else np.repeat(cfg.m0[:, None], 4, axis=1)
        ref_means, ref_innov = _scan_loop(pieces, increments, x0)
        assert run.means.shape == ref_means.shape and np.array_equal(run.means, ref_means)
        assert run.innovations.shape == ref_innov.shape
        assert np.array_equal(run.innovations, ref_innov)
        seq_means, seq_innov = _scan_loop(pieces, increments, x0, sequential_loop)
        _assert_near(run.means, seq_means)
        _assert_near(run.innovations, seq_innov)


def _product_loop(steps, loop=sequential_loop):
    """Running products of one (K, m, m) stack by the given recursion loop."""
    return loop(steps, np.eye(steps.shape[-1]))


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation_partial", "periodic3"])
def test_running_products_equal_per_step_loop(name):
    # m = 1, 2, 3: the free flow alone, then the free flow and three closed
    # loops as four members of one loop, each equal to its own product loop;
    # m = 1 takes a cumulative product, the order of the per-step loop
    cfg = builtin_scenario(name)
    grid = make_grid(4.0, 0.02)
    loop = sequential_loop if cfg.model.m == 1 else chunked_loop
    phi_steps = transition_steps(cfg.model, grid)
    assert np.array_equal(accumulate_transitions(phi_steps), _product_loop(phi_steps, loop))
    _assert_near(accumulate_transitions(phi_steps), _product_loop(phi_steps))
    sols = integrate_dre_batch(cfg.model, np.stack([cfg.P0, 2.0 * cfg.P0, cfg.P0]), grid,
                               eps=[0.0, 0.0, 0.1])
    steps = np.stack([phi_steps] + [sol.closed_loop_steps for sol in sols])
    prods = accumulate_transitions(steps)
    assert prods.shape == (4, len(grid), cfg.model.m, cfg.model.m)
    for member, prod in zip(steps, prods):
        assert prod.flags.c_contiguous and np.array_equal(prod, _product_loop(member, loop))
        _assert_near(prod, _product_loop(member))


def _recursion_cases(name, n_steps):
    """Closed-loop steps of three members, a start with four columns, offsets."""
    cfg = builtin_scenario(name)
    grid = make_grid(n_steps * 0.02, 0.02)
    sols = integrate_dre_batch(cfg.model, np.stack([cfg.P0, 2.0 * cfg.P0, cfg.P0]), grid,
                               eps=[0.0, 0.0, 0.1])
    steps = np.stack([sol.closed_loop_steps for sol in sols], axis=1)
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal((3, cfg.model.m, 4))
    return steps, x0, 0.1 * rng.standard_normal((len(steps),) + x0.shape)


def _recursion(steps, x0, offsets=None):
    out = np.empty((len(steps) + 1,) + x0.shape)
    out[0] = x0
    if offsets is not None:
        out[1:] = offsets
    return linear_recursion(steps, out, offset=offsets is not None)


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation_partial", "periodic3"])
def test_first_chunk_rows_equal_per_step_loop(name):
    # the rows before the first chunk end are the per-step loop's, so a
    # recursion of fewer than CHUNK steps keeps every bit
    steps, x0, offsets = _recursion_cases(name, 5 * CHUNK)
    for offs in (None, offsets):
        out = _recursion(steps, x0, offs)
        assert np.array_equal(out[:CHUNK], sequential_loop(steps, x0, offs)[:CHUNK])
        short = (steps[:CHUNK - 1], x0, None if offs is None else offs[:CHUNK - 1])
        assert np.array_equal(_recursion(*short), sequential_loop(*short))


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation_partial", "periodic3"])
def test_recursion_resumed_at_chunk_boundary_equals_whole(name):
    # 5 chunks and 7 steps: a resumed recursion, whole chunks or a partial
    # last one, is bitwise the rest of the whole recursion
    steps, x0, offsets = _recursion_cases(name, 5 * CHUNK + 7)
    for offs in (None, offsets):
        whole = _recursion(steps, x0, offs)
        assert np.array_equal(whole, chunked_loop(steps, x0, offs))
        for lo in (CHUNK, 3 * CHUNK, 5 * CHUNK):
            for hi in (lo + CHUNK, len(steps)):
                rest = _recursion(steps[lo:hi], whole[lo], None if offs is None else offs[lo:hi])
                assert np.array_equal(rest, whole[lo:hi + 1])


@pytest.mark.parametrize("name", ["scalar_unstable", "periodic3", "rotation_partial"])
def test_chunked_recursion_near_sequential_loop(name):
    # 1,500 steps: the filter means (offsets) and running products of three
    # closed loops and the free-flow truth from four states
    steps, x0, offsets = _recursion_cases(name, 1500)
    _assert_near(_recursion(steps, x0, offsets), sequential_loop(steps, x0, offsets))
    eye = np.broadcast_to(np.eye(x0.shape[1]), (3,) + 2 * x0.shape[1:2])
    _assert_near(_recursion(steps, eye), sequential_loop(steps, eye))
    phi_steps = transition_steps(builtin_scenario(name).model, make_grid(30.0, 0.02))
    _assert_near(_recursion(phi_steps, x0), sequential_loop(phi_steps, x0))


def _em_loop(model, x0, grid, eps, gens):
    """Per-step Euler-Maruyama with the noise product inside the loop."""
    n_steps = len(grid) - 1
    h = grid[1:] - grid[:-1]
    a, f = model.A_at(grid[:-1]), model.F_at(grid[:-1])
    xi = np.empty((n_steps,) + x0.shape)
    for j, g in enumerate(gens):
        xi[:, :, j] = g.standard_normal((n_steps, model.m))
    out = np.empty((n_steps + 1,) + x0.shape)
    out[0] = x = x0
    scale = eps * np.sqrt(h)
    for k in range(n_steps):
        x = x + h[k] * (a[k] @ x) + scale[k] * (f[k] @ xi[k])
        out[k + 1] = x
    return out


@pytest.mark.parametrize("name", ["rotation", "periodic3", "scalar_basic"])
def test_em_truth_equals_per_step_loop(name):
    # the Euler-Maruyama truth is the chunked loop over the steps I + h A with
    # the noise terms as offsets, exactly, and the per-step loop
    # x + h (A x) + noise within rounding
    cfg = builtin_scenario(name)
    fine = fine_grid(make_grid(3.0, 0.02), 9)   # 1350 fine steps
    seeds = (3, 4, 5)
    x0 = np.stack([cfg.m0 + j for j in range(len(seeds))], axis=-1)
    truth = simulate_truth(cfg.model, x0[None], fine, (0.2,),
                           [RngStream(s, "V").generator() for s in seeds])
    xi = np.stack([RngStream(s, "V").generator().standard_normal((len(fine) - 1, cfg.model.m))
                   for s in seeds], axis=-1)
    steps, noise = euler_maruyama_steps(cfg.model, fine, 0.2, xi)
    assert np.array_equal(truth[:, 0], chunked_loop(steps, x0, noise))
    ref = _em_loop(cfg.model, x0, fine, 0.2, [RngStream(s, "V").generator() for s in seeds])
    _assert_near(truth[:, 0], ref, 1e-12)


@pytest.mark.parametrize("levels", [(0.1, 0.3), (0.2, 1.0)])
def test_em_scalar_step_keeps_the_sign_of_zero(levels):
    # A = 0 and F = 0 keep every state at +-0.0: the scan's
    # (I + h A) x + noise and the reference's x + h (A x) + noise agree in
    # every sign bit because the noise F xi is a matmul (0 + f xi), never -0.0
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]], F=[[0.0]])
    fine = make_grid(1.0, 0.05)
    x0 = np.array([[-0.0, 0.0, -0.0, -0.0, 0.0, -0.0]])
    seeds = (3, 4, 5, 6, 7, 8)
    truth = simulate_truth(mdl, np.stack([x0, x0]), fine, levels,
                           [RngStream(s, "V").generator() for s in seeds])
    for e, eps in enumerate(levels):
        ref = _em_loop(mdl, x0, fine, eps, [RngStream(s, "V").generator() for s in seeds])
        assert np.array_equal(truth[:, e], ref)
        assert np.array_equal(np.signbit(truth[:, e]), np.signbit(ref))


# fine steps per block in the block boundary tests below
BLOCK_FINE_STEPS = 512


def _block_coarse_steps(substeps):
    """Coarse steps per block: the whole chunks of fine steps that fit in BLOCK_FINE_STEPS."""
    unit = np.lcm(substeps, CHUNK) // substeps
    return unit * max(1, BLOCK_FINE_STEPS // (unit * substeps))


def _assert_streamed_equals_whole_path(cfg, seed, levels, monkeypatch=None):
    """The streamed paths equal the whole-path generator's, level by level.

    With monkeypatch, every generator call runs blocks of
    _block_coarse_steps(substeps) coarse steps whatever its number of levels
    and seeds; without it, blocks take the package budget.
    """
    def generate(eps):
        if monkeypatch is not None:
            n_seeds = len(seed) if isinstance(seed, tuple) else 1
            n_levels = len(eps) if isinstance(eps, tuple) else 1
            monkeypatch.setattr(simulate, "NOISE_BLOCK",
                                BLOCK_FINE_STEPS * n_levels * n_seeds * cfg.model.m)
        return generate_observation_path(cfg, seed=seed, eps=eps)

    paths = generate(levels)
    assert len(paths) == len(levels)
    for path, eps in zip(paths, levels):
        inc, _ = whole_path_generator(cfg, seed, eps)
        assert np.array_equal(path.grid, cfg.grid())
        assert path.increments.shape == inc.shape and np.array_equal(path.increments, inc)
    assert np.array_equal(generate(levels[0]).increments, paths[0].increments)


@pytest.mark.parametrize("name", SCENARIOS)
def test_streamed_generator_equals_whole_path_generator(name, monkeypatch):
    # 1,030 fine steps: two full blocks and a partial one
    cfg = replace(builtin_scenario(name), dt=0.01, horizon=10.3, substeps=1)
    assert len(cfg.grid()) - 1 > 2 * BLOCK_FINE_STEPS
    _assert_streamed_equals_whole_path(cfg, (cfg.seed, cfg.seed + 1, cfg.seed + 2),
                                       (0.2, 0.0, 0.05), monkeypatch)
    _assert_streamed_equals_whole_path(cfg, cfg.seed, (0.1, 0.3), monkeypatch)
    _assert_streamed_equals_whole_path(cfg, cfg.seed, (0.0,), monkeypatch)


@pytest.mark.parametrize("name", ["scalar_basic", "rotation_partial", "periodic3"])
@pytest.mark.parametrize("substeps", [1, 9, 10])
def test_streamed_generator_block_boundaries(name, substeps, monkeypatch):
    # K = 1025 coarse steps: blocks of 512, 32 and 48 coarse steps leave a
    # last block of 1, 1 and 17 coarse steps
    cfg = replace(builtin_scenario(name), dt=0.01, horizon=10.25, substeps=substeps)
    assert (len(cfg.grid()) - 1) % _block_coarse_steps(substeps)
    _assert_streamed_equals_whole_path(cfg, (3, 4), (0.1, 0.0), monkeypatch)
    _assert_streamed_equals_whole_path(cfg, 5, (0.0, 0.2), monkeypatch)


def test_streamed_generator_time_varying_noise_roots(monkeypatch):
    # R varies in time: every block forms its R^{1/2} path per node, the
    # last block of one fine step too, as the whole path does
    cfg = replace(builtin_scenario("periodic3"), model=_models()[3], dt=0.01, horizon=10.25)
    assert (len(cfg.grid()) - 1) % BLOCK_FINE_STEPS == 1
    _assert_streamed_equals_whole_path(cfg, (3, 4), (0.1, 0.0), monkeypatch)


def test_stream_blocks_are_sized_by_the_values_they_hold(monkeypatch):
    # a block holds NOISE_BLOCK values (fine steps x levels x seeds x m), so
    # a short path of few seeds is one block
    calls = []
    kernel = simulate.simulate_truth

    def counted(*args, **kwargs):
        calls.append(len(args[2]) - 1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(simulate, "simulate_truth", counted)
    generate_observation_path(replace(builtin_scenario("two_atom"), dt=0.02))
    assert len(calls) == 1
    calls.clear()
    cfg = replace(builtin_scenario("rotation_partial"), horizon=45.0, dt=0.02, mc_runs=10,
                  mbar=np.array([3.0, -2.0]))
    mismatched_mc(cfg)
    assert len(calls) == 1 and calls[0] == (len(cfg.grid()) - 1) * cfg.substeps


def _closed_form_loop(P0, phi, info):
    """Per-node closed-form Riccati solution."""
    root = psd_sqrt(P0)
    eye = np.eye(len(root))
    out = np.empty_like(phi.values)
    for k in range(len(phi)):
        core = eye + root @ info.values[k] @ root
        if np.linalg.cond(core) > COND_LIMIT:
            raise FloatingPointError(f"closed form ill-conditioned at t={phi.grid[k]:.6g}")
        pk = phi.values[k] @ root @ np.linalg.solve(core, root @ phi.values[k].T)
        out[k] = 0.5 * (pk + pk.T)
    return out


@pytest.mark.parametrize("name", ["rotation", "periodic3", "rotation_atoms", "scalar_basic"])
def test_closed_form_equals_per_node_loop(name):
    cfg = builtin_scenario(name)
    grid = make_grid(50.0, 0.01)                # 5000 steps
    phi = fundamental_matrix(cfg.model, grid)
    info = accumulated_information(cfg.model, phi)
    out = closed_form_dre(cfg.model, cfg.P0, phi)
    assert np.array_equal(out.values, _closed_form_loop(cfg.P0, phi, info))


def _saddle():
    # cond(Phi_t) = e^{2t}, which crosses COND_LIMIT = 1e12 near t = 13.8; the
    # information along the growing mode grows like e^{2t}
    return constant_model(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


def test_closed_form_names_first_ill_conditioned_node():
    grid = make_grid(20.0, 0.01)
    phi = fundamental_matrix(_saddle(), grid)
    info = accumulated_information(_saddle(), phi)
    with pytest.raises(FloatingPointError) as ref:
        _closed_form_loop(np.eye(2), phi, info)
    assert not str(ref.value).endswith("t=0")
    with pytest.raises(FloatingPointError, match=re.escape(str(ref.value)) + "$"):
        closed_form_dre(_saddle(), np.eye(2), phi)


def _uco_loop(phi, info, wsteps, normalize):
    """Per-window Gramian eigenvalue ranges over at most 200 decimated windows."""
    ends = np.arange(wsteps, len(phi))
    if ends.size > 200:
        ends = ends[:: int(np.ceil(ends.size / 200))]
        if ends[-1] != len(phi) - 1:
            ends = np.append(ends, len(phi) - 1)
    lmin, lmax = np.empty(ends.size), np.empty(ends.size)
    for i, k in enumerate(ends):
        anchor = k if normalize == "end" else k - wsteps
        ft = phi.values[anchor]
        if np.linalg.cond(ft) > COND_LIMIT:
            raise FloatingPointError(
                f"fundamental matrix numerically singular at t={phi.grid[anchor]:.6g}")
        w = info.values[k] - info.values[k - wsteps]
        gram = np.linalg.solve(ft.T, np.linalg.solve(ft.T, w.T).T)
        gram = 0.5 * (gram + gram.T)
        eigs = np.linalg.eigvalsh(gram)
        lmin[i], lmax[i] = eigs[0], eigs[-1]
    return phi.grid[ends], lmin, lmax


@pytest.mark.parametrize("name", ["rotation", "rotation_partial", "periodic3", "scalar_unstable"])
@pytest.mark.parametrize("normalize", ["end", "start"])
def test_uco_gramian_equals_per_window_loop(name, normalize):
    cfg = builtin_scenario(name)
    grid = make_grid(20.0, 0.02)                # 901 windows of 100 steps, decimated
    phi = fundamental_matrix(cfg.model, grid)
    est = uco_gramian(cfg.model, phi, 2.0, normalize=normalize)
    ends, lmin, lmax = _uco_loop(phi, accumulated_information(cfg.model, phi), 100, normalize)
    assert np.array_equal(est.ends, ends)
    assert np.array_equal(est.lambda_min, lmin)
    assert np.array_equal(est.lambda_max, lmax)


@pytest.mark.parametrize("normalize", ["end", "start"])
def test_uco_gramian_names_first_singular_anchor(normalize):
    mdl = _saddle()
    grid = make_grid(20.0, 0.02)
    phi = fundamental_matrix(mdl, grid)
    info = accumulated_information(mdl, phi)
    with pytest.raises(FloatingPointError) as ref:
        _uco_loop(phi, info, 50, normalize)
    assert not str(ref.value).endswith("t=0")
    with pytest.raises(FloatingPointError, match=re.escape(str(ref.value)) + "$"):
        uco_gramian(mdl, phi, 1.0, normalize=normalize)
