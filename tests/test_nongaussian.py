from dataclasses import replace

import numpy as np
import pytest

from kblab.model import ExperimentConfig, constant_model
from kblab.kalman import filter_pieces, run_filter
from kblab.nongaussian import (
    bank_oracle,
    integrate_extended_system,
    logsumexp,
    merging_report,
    mixture_filter,
)
from kblab.propagate import accumulated_information, fundamental_matrix
from kblab.riccati import closed_form_dre
from kblab.simulate import generate_observation_path
from kblab.scenarios import builtin_scenario


def test_logsumexp_handles_extreme_exponents():
    a = np.array([-1e6, -1e6 + 1.0])
    out = logsumexp(a)
    assert np.isfinite(out)
    assert out == pytest.approx(-1e6 + np.log(1 + np.e), abs=1e-9)


def test_unobserved_system_has_trivial_coupling():
    mdl = constant_model([[0.5]], [[0.0]], [[1.0]])
    cfg = ExperimentConfig(model=mdl, horizon=2.0, dt=1e-3, substeps=1, seed=0,
                           m0=[0.0], P0=[[1.0]])
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(mdl, obs.grid, obs, (cfg.m0, cfg.P0))
    assert np.abs(ext.coupling).max() == 0.0
    assert np.abs(ext.quad_closed).max() == 0.0
    assert np.abs(ext.quad_info).max() == 0.0
    assert np.abs(ext.linear).max() == 0.0


def test_extended_scalar_coupling_and_info():
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs.grid, obs, (np.zeros(1), np.eye(1)))
    k1 = np.argmin(np.abs(obs.grid - 1.0))
    assert ext.coupling[k1, 0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert np.abs(ext.quad_info[:, 0, 0] - obs.grid).max() <= 1e-9
    # weight quadratic is negative semidefinite along the whole path
    assert ext.weight_quad.max() <= 1e-12


def test_propagator_identity_matches_closed_loop():
    # G_t is the closed-loop propagator Psi_t = P_t Phi_t^{-T} P0^{-1} (eps = 0),
    # with P_t from the closed-form solution rather than the sweep
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs.grid, obs, (cfg.m0, cfg.P0))
    phi = fundamental_matrix(cfg.model, obs.grid)
    p = closed_form_dre(cfg.model, cfg.P0, phi, accumulated_information(cfg.model, phi)).values
    psi = p @ np.linalg.inv(phi.values).swapaxes(1, 2) @ np.linalg.inv(cfg.P0)
    assert np.abs(ext.propagator - psi).max() <= 1e-6


def test_single_atom_at_origin_equals_plain_filter():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    mix = mixture_filter(cfg.model, obs, [(np.zeros(1), 1.0)], init)
    run = run_filter(cfg.model, obs, init)
    assert np.abs(mix.mean - run.means).max() <= 1e-9
    assert np.abs(mix.cov[:, 0, 0] - run.riccati.values[:, 0, 0]).max() <= 1e-12
    assert np.abs(mix.weights - 1.0).max() <= 1e-15


def test_single_atom_shift_property():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(cfg.model, obs, [(np.array([2.0]), 1.0)], (cfg.m0, cfg.P0))
    shifted = run_filter(cfg.model, obs, (cfg.m0 + 2.0, cfg.P0))
    assert np.abs(mix.mean - shifted.means).max() <= 1e-6


def test_mixture_equals_bank_two_atoms():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=10.0)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    assert np.abs(mix.mean - bank.mean).max() <= 1e-6
    assert np.abs(mix.log_weights - bank.log_weights).max() <= 1e-8
    assert np.abs(mix.cov - bank.cov).max() <= 1e-6


def test_mixture_equals_bank_multivariate():
    cfg = replace(builtin_scenario("rotation_atoms"), horizon=5.0)
    obs = generate_observation_path(cfg)
    pieces = filter_pieces(cfg.model, obs.grid, cfg.P0)
    ext = integrate_extended_system(cfg.model, obs.grid, obs, (cfg.m0, cfg.P0), pieces=pieces)
    mix = mixture_filter(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0), ext=ext)
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0), pieces=pieces)
    assert np.abs(mix.mean - bank.mean).max() <= 1e-6
    assert np.abs(mix.log_weights - bank.log_weights).max() <= 1e-8


def test_weights_normalized_every_node():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    sums = mix.weights.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_bank_weight_collapse_under_clean_signal():
    cfg = builtin_scenario("two_atom_sharp")
    obs = generate_observation_path(cfg, x0=np.array([1.0]), noise_off=True)
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    w = bank.weights[:, 0]
    k10 = np.argmin(np.abs(obs.grid - 10.0))
    assert w[-1] >= 0.99
    assert np.all(np.diff(w[k10:]) >= -1e-12)


def test_decomposition_split_invariance():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    c = 0.7
    mix_a = mixture_filter(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    shifted = tuple((x + c, w) for x, w in cfg.atoms)
    mix_b = mixture_filter(cfg.model, obs, shifted, (cfg.m0 - c, cfg.P0))
    assert np.abs(mix_a.mean - mix_b.mean).max() <= 1e-8
    assert np.abs(mix_a.log_weights - mix_b.log_weights).max() <= 1e-8
    assert np.abs(mix_a.cov - mix_b.cov).max() <= 1e-8


def test_empty_atoms_rejected():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=1.0)
    obs = generate_observation_path(cfg)
    with pytest.raises(ValueError):
        mixture_filter(cfg.model, obs, [], (cfg.m0, cfg.P0))
    with pytest.raises(ValueError):
        bank_oracle(cfg.model, obs, [], (cfg.m0, cfg.P0))


def test_merging_constant_function_gap_zero():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=3.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    # single atom: the normalized weight is exactly 1 and the gap exactly 0
    mix1 = mixture_filter(cfg.model, obs, [(np.zeros(1), 1.0)], init)
    ref = run_filter(cfg.model, obs, init)
    rep1 = merging_report(mix1, ref, ref.riccati, [[0.0]])
    assert rep1.cos_gaps.max() == 0.0
    # several atoms: limited only by the float representation of the simplex
    mix2 = mixture_filter(cfg.model, obs, cfg.atoms, init)
    rep2 = merging_report(mix2, ref, ref.riccati, [[0.0]])
    assert rep2.cos_gaps.max() <= 4e-16


def test_merging_same_distribution_gap_negligible():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=3.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    mix = mixture_filter(cfg.model, obs, [(np.zeros(1), 1.0)], init)
    ref = run_filter(cfg.model, obs, init)
    rep = merging_report(mix, ref, ref.riccati, [[1.0]])
    assert rep.cos_gaps.max() <= 1e-8


def test_merging_ratios_decay_with_mismatched_reference():
    cfg = builtin_scenario("two_atom")
    obs = generate_observation_path(cfg)
    mix = mixture_filter(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    ref = run_filter(cfg.model, obs, (cfg.mbar, cfg.Pbar))
    rep = merging_report(mix, ref, ref.riccati, [[0.5], [1.0], [2.0]])
    assert rep.ratios["mean"] <= 0.1
    for i in range(3):
        assert rep.ratios[f"cos_{i}"] <= 0.1
    # mean proximity is far stronger on this exponentially-contracting scenario
    assert rep.ratios["mean"] <= 0.01
