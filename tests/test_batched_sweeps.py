"""Batched Riccati sweeps: every member equals its single sweep bitwise.

Also guards that the experiments which integrate several flows on one grid
(the eps sweep, the covariance factorization, the mismatched pairs) make one
sweep for all of them, that the eps sweep simulates every eps in one pass,
and that the eps sweep and the mismatched pair run their filters in one scan.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from kblab._integrators import riccati_sweep
from kblab.kalman import (
    _scan,
    filter_pieces,
    filter_pieces_batch,
    mismatched_mc,
    mismatched_pair,
    run_filter,
)
from kblab.model import constant_model, make_grid, periodic_model
from kblab.propagate import closed_loop_propagator
from kblab.riccati import error_factorization_check, integrate_dre, integrate_dre_batch
from kblab.scenarios import builtin_scenario
from kblab.simulate import RngStream, generate_observation_path
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
        assert np.array_equal(sol.init, one.init)
    for pieces, P0, e in zip(filter_pieces_batch(mdl, grid, P0s, eps_gain=eps), P0s, eps):
        one = filter_pieces(mdl, grid, P0, eps_gain=e)
        assert np.array_equal(pieces.gains, one.gains)
        assert np.array_equal(pieces.riccati.closed_loop_steps, one.riccati.closed_loop_steps)
        assert np.array_equal(pieces.cdt, one.cdt)


def test_batched_diagnostics_equal_single_diagnostics():
    # an indefinite start records a negative eigenvalue in that member only
    mdl = _models()[2]
    grid = make_grid(1.0, 0.01)
    P0s = np.stack([np.eye(2), np.diag([1.0, -0.5])])
    sols = integrate_dre_batch(mdl, P0s, grid)
    assert sols[0].min_eigs.min() >= -1e-10 and sols[1].min_eigs.min() < -1e-10
    assert np.array_equal(sols[1].min_eigs, integrate_dre(mdl, P0s[1], grid).min_eigs)


def test_batch_requires_a_member_axis():
    mdl = _models()[2]
    with pytest.raises(ValueError, match="batch"):
        integrate_dre_batch(mdl, np.eye(2), make_grid(1.0, 0.1))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_blowup_names_the_member_and_time(m):
    # unobserved unstable mode: P grows like e^{40 t}; only the large start
    # crosses 1e12 within the horizon
    mdl = constant_model(20.0 * np.eye(m), np.zeros((1, m)), [[1.0]])
    P0s = np.stack([1e-6 * np.eye(m), 1e6 * np.eye(m), np.eye(m)])
    with pytest.raises(FloatingPointError, match=r"^Riccati blow-up in member 1: .* at t=0\.3"):
        integrate_dre_batch(mdl, P0s, make_grid(0.5, 1e-3))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_blowup_names_the_earliest_member(m):
    # every member blows up; the float loops (m <= 4) run member by member
    # but must name the member that crosses first, lowest index on a tie
    mdl = constant_model(20.0 * np.eye(m), np.zeros((m, m)), np.eye(m))
    P0s = np.stack([1e3 * np.eye(m), 1e6 * np.eye(m), 1e6 * np.eye(m)])
    with pytest.raises(FloatingPointError, match=r"^Riccati blow-up in member 1: .* at t=0\.346$"):
        integrate_dre_batch(mdl, P0s, make_grid(1.0, 1e-3))


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("dt, indicator, crossed", [(1e-2, "200", "0.01"), (5e-4, "10", "0.001")])
def test_a_step_past_rk4s_limit_is_not_called_a_blowup(m, dt, indicator, crossed):
    # dP = -P^2 falls from 1e4 to 1 / (1e-4 + t), a bounded flow; but the
    # first step's h max(-Re(l_i + l_j)) = 2e4 h lies outside RK4's real
    # stability interval [-2.785, 0], and the sweep crosses 1e12 at that step
    # (dt 1e-2) or at a later one (dt 5e-4)
    mdl = constant_model(np.zeros((m, m)), np.eye(m), np.eye(m))
    P0s = np.stack([np.eye(m), 1e4 * np.eye(m)])
    message = (rf"^Riccati step too large for RK4 in member 1: h max\(-Re\(lambda_i \+ lambda_j\)\) "
               rf"= {indicator} > 2\.785 in the step from t=0; \|\|P\|\| > 1e\+12 at t={crossed}$")
    with pytest.raises(FloatingPointError, match=message):
        integrate_dre_batch(mdl, P0s, make_grid(1.0, dt))


def test_a_step_inside_rk4s_limit_follows_the_flow():
    # the flow above at h = 1e-4: 2e4 h = 2 lies inside the interval
    mdl = constant_model([[0.0]], [[1.0]], [[1.0]])
    p = integrate_dre(mdl, [[1e4]], make_grid(1.0, 1e-4)).values[-1, 0, 0]
    assert abs(p * (1e-4 + 1.0) - 1.0) <= 1e-5


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
    sweep = mismatched_mc(cfg)
    for pieces, P0 in ((sweep.pair.run.pieces, cfg.P0), (sweep.pair.runbar.pieces, cfg.Pbar)):
        one = filter_pieces(cfg.model, cfg.grid(), P0)
        assert np.array_equal(pieces.riccati.values, one.riccati.values)
        assert np.array_equal(pieces.riccati.closed_loop_steps, one.riccati.closed_loop_steps)
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
    epsilon_sweep(cfg)
    assert len(sweep_calls) == 1
    sweep_calls.clear()
    cfg = replace(builtin_scenario("rotation_partial"), horizon=2.0, mc_runs=2,
                  epsilons=(0.2, 0.1, 0.05))
    epsilon_sweep(cfg)
    assert len(sweep_calls) == 1


def test_epsilon_sweep_simulates_once_and_scans_the_zero_gain_once(monkeypatch, scan_calls):
    streams = []
    make_generator = RngStream.generator

    def counted_generator(self):
        streams.append((self.seed, self.label))
        return make_generator(self)

    monkeypatch.setattr(RngStream, "generator", counted_generator)
    cfg = replace(builtin_scenario("rotation_partial"), horizon=2.0, mc_runs=3,
                  epsilons=(0.2, 0.1, 0.05, 0.025))
    sweep = epsilon_sweep(cfg)
    # one "x0", "V" and "W" stream per seed (3 S), not one per (eps, seed)
    assert sorted(streams) == sorted((s, label) for s in sweep.seeds for label in ("x0", "V", "W"))
    # two scans on the E S = 12 observation columns: the zero-noise-gain
    # filter once over all of them, and the E eps-gain filters as E members
    # of one scan, S columns each
    m = cfg.model.m
    increments = (len(cfg.grid()) - 1, cfg.model.n, 12)
    assert scan_calls == [(1, increments, (1, m, 12)), (4, increments, (4, m, 3))]


def test_error_factorization_check_makes_one_riccati_sweep(sweep_calls):
    cfg = builtin_scenario("rotation")
    error_factorization_check(cfg.model, cfg.P0, cfg.Pbar, make_grid(2.0, cfg.dt))
    assert len(sweep_calls) == 1


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation"])
def test_mismatched_mc_makes_one_riccati_sweep(sweep_calls, name):
    cfg = replace(builtin_scenario(name), horizon=2.0, mc_runs=2)
    mismatched_mc(cfg)
    assert len(sweep_calls) == 1


@pytest.fixture
def scan_calls(monkeypatch):
    """Record (members, increments shape, x0 shape) of every _scan call in kblab."""
    calls = []

    def counted(pieces, increments, x0):
        calls.append((len(pieces), increments.shape, x0.shape))
        return _scan(pieces, increments, x0)

    for modname, mod in list(sys.modules.items()):
        if (modname == "kblab" or modname.startswith("kblab.")) and \
                getattr(mod, "_scan", None) is _scan:
            monkeypatch.setattr(mod, "_scan", counted)
    return calls


@pytest.mark.parametrize("name", ["scalar_unstable", "rotation_partial"])
def test_mismatched_pair_runs_both_filters_in_one_scan(scan_calls, name):
    cfg = builtin_scenario(name)
    cfg = replace(cfg, horizon=3.0, mbar=cfg.m0 + 2.0)
    obs = generate_observation_path(cfg, seed=(1, 2, 3))
    pair = mismatched_pair(cfg.model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar))
    assert scan_calls == [(2, obs.increments.shape, (2, cfg.model.m, 3))]
    # each member is bitwise the filter run alone
    for run, init in ((pair.run, (cfg.m0, cfg.P0)), (pair.runbar, (cfg.mbar, cfg.Pbar))):
        one = run_filter(cfg.model, obs, init)
        assert np.array_equal(run.means, one.means)
        assert np.array_equal(run.innovations, one.innovations)
