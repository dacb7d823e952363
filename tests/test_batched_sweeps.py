"""Batched Riccati sweeps: every member equals its single sweep bitwise.

Also guards that the experiments which integrate several flows on one grid
(the eps sweep, the covariance factorization, the mismatched pairs) make one
sweep for all of them.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from kblab._integrators import riccati_sweep
from kblab.kalman import filter_pieces, filter_pieces_batch, mismatched_mc
from kblab.model import constant_model, make_grid, periodic_model
from kblab.propagate import closed_loop_propagator
from kblab.riccati import error_factorization_check, integrate_dre, integrate_dre_batch
from kblab.scenarios import builtin_scenario
from kblab.smallnoise import epsilon_sweep


def _models():
    return {
        1: constant_model([[0.3]], [[1.0]], [[2.0]], F=[[0.7]]),
        2: builtin_scenario("rotation_partial").model,
        3: periodic_model(builtin_scenario("periodic3").model.A0, 0.2 * np.ones((3, 3)),
                          np.eye(3), np.eye(3), omega=2.0, R1=0.3 * np.eye(3),
                          F1=[[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.4]]),
    }


def _spd_stack(m, count, seed):
    rng = np.random.default_rng(seed)
    roots = [rng.standard_normal((m, m)) for _ in range(count)]
    return np.stack([L @ L.T + 0.1 * np.eye(m) for L in roots])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_sweep_equals_single_sweeps(m):
    mdl = _models()[m]
    grid = make_grid(2.0, 0.01)
    P0s = _spd_stack(m, 4, seed=m)
    eps = np.array([0.0, 0.3, 0.0, 0.05])
    paths, msteps = riccati_sweep(mdl, grid, P0s, eps=eps)
    assert paths.shape == (4, len(grid), m, m) and msteps.shape == (4, len(grid) - 1, m, m)
    for b in range(4):
        path, ms = riccati_sweep(mdl, grid, P0s[b], eps=float(eps[b]))
        assert np.array_equal(paths[b], path)
        assert np.array_equal(msteps[b], ms)
    # one P0 shared by every member, one eps each
    paths, msteps = riccati_sweep(mdl, grid, P0s[0], eps=eps)
    for b in range(4):
        path, ms = riccati_sweep(mdl, grid, P0s[0], eps=float(eps[b]))
        assert np.array_equal(paths[b], path)
        assert np.array_equal(msteps[b], ms)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_batched_solutions_equal_single_solutions(m):
    mdl = _models()[m]
    grid = make_grid(2.0, 0.01)
    P0s = _spd_stack(m, 3, seed=10 + m)
    eps = [0.2, 0.0, 0.1]
    for sol, P0, e in zip(integrate_dre_batch(mdl, P0s, grid, eps=eps), P0s, eps):
        one = integrate_dre(mdl, P0, grid, eps=e)
        assert np.array_equal(sol.values, one.values)
        assert np.array_equal(sol.closed_loop_steps, one.closed_loop_steps)
        assert np.array_equal(sol.min_eigs, one.min_eigs)
        assert sol.diagnostics == one.diagnostics
        assert np.array_equal(sol.init, one.init) and sol.eps == one.eps
    for pieces, P0, e in zip(filter_pieces_batch(mdl, grid, P0s, eps_gain=eps), P0s, eps):
        one = filter_pieces(mdl, grid, P0, eps_gain=e)
        assert np.array_equal(pieces.gains, one.gains)
        assert np.array_equal(pieces.msteps, one.msteps)
        assert np.array_equal(pieces.cdt, one.cdt)


def test_batched_diagnostics_equal_single_diagnostics():
    # an indefinite start records a negative eigenvalue in that member only
    mdl = _models()[2]
    grid = make_grid(1.0, 0.01)
    P0s = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    sols = integrate_dre_batch(mdl, P0s, grid)
    assert not sols[0].diagnostics and sols[1].diagnostics
    assert sols[1].diagnostics == integrate_dre(mdl, P0s[1], grid).diagnostics


def test_batch_requires_a_member_axis():
    mdl = _models()[2]
    with pytest.raises(ValueError, match="batch"):
        integrate_dre_batch(mdl, np.eye(2), make_grid(1.0, 0.1))


@pytest.mark.parametrize("m", [1, 2])
def test_blowup_names_the_member_and_time(m):
    # unobserved unstable mode: P grows like e^{40 t}; only the large start
    # crosses 1e12 within the horizon
    mdl = constant_model(20.0 * np.eye(m), np.zeros((1, m)), [[1.0]])
    P0s = np.stack([1e-6 * np.eye(m), 1e6 * np.eye(m), np.eye(m)])
    with pytest.raises(FloatingPointError, match=r"member 1: .* at t=0\.3"):
        integrate_dre_batch(mdl, P0s, make_grid(0.5, 1e-3))


def test_factorization_pieces_equal_single_sweeps():
    cfg = builtin_scenario("rotation")
    grid = make_grid(5.0, cfg.dt)
    _, _, pieces = error_factorization_check(cfg.model, cfg.P0, cfg.Pbar, grid)
    for key, P0 in (("sol", cfg.P0), ("solbar", cfg.Pbar)):
        one = integrate_dre(cfg.model, P0, grid)
        assert np.array_equal(pieces[key].values, one.values)
        assert np.array_equal(pieces[key].closed_loop_steps, one.closed_loop_steps)
        assert np.array_equal(pieces[key].min_eigs, one.min_eigs)
    assert np.array_equal(pieces["psi"].values,
                          closed_loop_propagator(integrate_dre(cfg.model, cfg.P0, grid)).values)


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation_partial"])
def test_mismatched_mc_pieces_equal_filter_pieces(name):
    cfg = builtin_scenario(name)
    cfg = replace(cfg, horizon=3.0, mc_runs=2, mbar=cfg.m0 + 2.0)
    sweep = mismatched_mc(cfg.model, cfg)
    for pieces, P0 in ((sweep.pair.run.pieces, cfg.P0), (sweep.pair.runbar.pieces, cfg.Pbar)):
        one = filter_pieces(cfg.model, cfg.grid(), P0)
        assert np.array_equal(pieces.riccati.values, one.riccati.values)
        assert np.array_equal(pieces.msteps, one.msteps)
        assert np.array_equal(pieces.gains, one.gains)
        assert np.array_equal(pieces.cdt, one.cdt)


# --- one sweep per experiment ---------------------------------------------


@pytest.fixture
def sweep_calls(monkeypatch):
    """Count riccati_sweep calls through every kblab module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return riccati_sweep(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "kblab" or modname.startswith("kblab."):
            if getattr(mod, "riccati_sweep", None) is riccati_sweep:
                monkeypatch.setattr(mod, "riccati_sweep", counted)
    return calls


def test_epsilon_sweep_makes_one_riccati_sweep(sweep_calls):
    cfg = replace(builtin_scenario("smallnoise_stable"), horizon=2.0, mc_runs=2)
    epsilon_sweep(cfg.model, cfg)
    assert len(sweep_calls) == 1
    sweep_calls.clear()
    cfg = replace(builtin_scenario("rotation_partial"), horizon=2.0, mc_runs=2,
                  epsilons=(0.2, 0.1, 0.05))
    epsilon_sweep(cfg.model, cfg)
    assert len(sweep_calls) == 1


def test_error_factorization_check_makes_one_riccati_sweep(sweep_calls):
    cfg = builtin_scenario("rotation")
    error_factorization_check(cfg.model, cfg.P0, cfg.Pbar, make_grid(2.0, cfg.dt))
    assert len(sweep_calls) == 1


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation"])
def test_mismatched_mc_makes_one_riccati_sweep(sweep_calls, name):
    cfg = replace(builtin_scenario(name), horizon=2.0, mc_runs=2)
    mismatched_mc(cfg.model, cfg)
    assert len(sweep_calls) == 1
