"""Loops that carry only their recursion equal the per-step loops bitwise.

Each reference below is the per-step loop the stacked code replaced, kept
here verbatim in its arithmetic; every comparison is exact.
"""

import re

import numpy as np
import pytest

from kblab._integrators import _forcing, coefficient_stages, make_grid, riccati_sweep
from kblab.kalman import _scan, filter_pieces
from kblab.model import constant_model, periodic_model
from kblab.propagate import accumulated_information, fundamental_matrix, uco_gramian
from kblab.riccati import closed_form_dre, psd_sqrt
from kblab.scenarios import builtin_scenario
from kblab.simulate import NOISE_BLOCK, RngStream, fine_grid, simulate_truth


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
    q_lo, q_mid, q_hi = _forcing(stages["FFt"], np.broadcast_to(eps, batch), n_steps, m)
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


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("members", ["single", "P0", "eps"])
def test_riccati_sweep_equals_per_step_loop(m, members):
    mdl = _models()[m]
    grid = make_grid(3.0, 0.01)
    P0s = _spd_stack(m, 3, seed=20 + m)
    P0, eps = {"single": (P0s[0], 0.1), "P0": (P0s, np.array([0.0, 0.1, 0.0])),
               "eps": (P0s[1], np.array([0.0, 0.1]))}[members]
    path, msteps = riccati_sweep(mdl, grid, P0, eps=eps)
    ref_path, ref_msteps = _sweep_loop(mdl, grid, P0, eps)
    assert np.array_equal(path, ref_path)
    assert np.array_equal(msteps, ref_msteps)
    if members == "single":
        path, msteps = riccati_sweep(mdl, grid, P0)
        ref_path, ref_msteps = _sweep_loop(mdl, grid, P0, 0.0)
        assert np.array_equal(path, ref_path) and np.array_equal(msteps, ref_msteps)


def _scan_loop(pieces, increments, x0):
    """Per-step filter scan computing innovation, gain product and mean together."""
    msteps, gains, cdt = pieces.msteps, pieces.gains, pieces.cdt
    x = np.asarray(x0, dtype=float)
    means = np.empty((len(msteps) + 1,) + x.shape)
    innov = np.empty((len(msteps), cdt.shape[1]) + x.shape[1:])
    means[0] = x
    for k in range(len(msteps)):
        dy = increments[k]
        innov[k] = dy - cdt[k] @ x
        x = msteps[k] @ x + gains[k] @ dy
        means[k + 1] = x
    return means, innov


@pytest.mark.parametrize("name", ["rotation", "rotation_partial", "periodic3", "scalar_unstable"])
def test_scan_equals_per_step_loop(name):
    cfg = builtin_scenario(name)
    grid = make_grid(4.0, 0.02)
    pieces = filter_pieces(cfg.model, grid, cfg.P0)
    rng = np.random.default_rng(5)
    n, m = cfg.model.n, cfg.model.m
    cases = [(rng.standard_normal((len(grid) - 1, n)), cfg.m0),                        # one path
             (rng.standard_normal((len(grid) - 1, n, 4)), rng.standard_normal((m, 4))),  # seed columns
             (rng.standard_normal((len(grid) - 1, n, 1)), rng.standard_normal((m, 3)))]  # shared path
    for increments, x0 in cases:
        means, innov = _scan(pieces, increments, x0)
        ref_means, ref_innov = _scan_loop(pieces, increments, x0)
        assert np.array_equal(means, ref_means)
        assert innov.shape == ref_innov.shape and np.array_equal(innov, ref_innov)


def _em_loop(model, x0, grid, eps, gens):
    """Per-step Euler-Maruyama with the noise product inside the loop."""
    n_steps = len(grid) - 1
    h = grid[1:] - grid[:-1]
    a, f = model.A_at(grid[:-1]), model.F_at(grid[:-1])
    if x0.ndim == 1:
        xi = gens.standard_normal((n_steps, model.m))
    else:
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
    cfg = builtin_scenario(name)
    fine = fine_grid(make_grid(3.0, 0.02), 9)   # 1350 fine steps
    n_fine = len(fine) - 1
    assert n_fine > NOISE_BLOCK and n_fine % NOISE_BLOCK
    seeds = (3, 4, 5)
    x0 = np.stack([cfg.m0 + j for j in range(len(seeds))], axis=-1)
    truth = simulate_truth(cfg.model, x0, fine, eps=0.2,
                           rng=[RngStream(s, "V").generator() for s in seeds])
    ref = _em_loop(cfg.model, x0, fine, 0.2, [RngStream(s, "V").generator() for s in seeds])
    assert np.array_equal(truth, ref)
    one = simulate_truth(cfg.model, cfg.m0, fine, eps=0.2, rng=RngStream(7, "V").generator())
    assert np.array_equal(one, _em_loop(cfg.model, cfg.m0, fine, 0.2, RngStream(7, "V").generator()))


def _closed_form_loop(P0, phi, info, cond_limit=1e12):
    """Per-node closed-form Riccati solution."""
    root = psd_sqrt(P0)
    eye = np.eye(len(root))
    out = np.empty_like(phi.values)
    for k in range(len(phi)):
        core = eye + root @ info.values[k] @ root
        if np.linalg.cond(core) > cond_limit:
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
    out = closed_form_dre(cfg.model, cfg.P0, phi, info)
    assert np.array_equal(out.values, _closed_form_loop(cfg.P0, phi, info))


def _saddle():
    # cond(Phi_t) = e^{2t}; the information along the growing mode grows like e^{2t}
    return constant_model(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


def test_closed_form_names_first_ill_conditioned_node():
    grid = make_grid(10.0, 0.01)
    phi = fundamental_matrix(_saddle(), grid)
    info = accumulated_information(_saddle(), phi)
    with pytest.raises(FloatingPointError) as ref:
        _closed_form_loop(np.eye(2), phi, info, cond_limit=1e3)
    assert not str(ref.value).endswith("t=0")
    with pytest.raises(FloatingPointError, match=re.escape(str(ref.value)) + "$"):
        closed_form_dre(_saddle(), np.eye(2), phi, info, cond_limit=1e3)


def _uco_loop(phi, info, wsteps, normalize, cond_limit=1e12):
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
        if np.linalg.cond(ft) > cond_limit:
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
        _uco_loop(phi, info, 50, normalize, cond_limit=1e6)
    assert not str(ref.value).endswith("t=0")
    with pytest.raises(FloatingPointError, match=re.escape(str(ref.value)) + "$"):
        uco_gramian(mdl, phi, 1.0, cond_limit=1e6, normalize=normalize)
