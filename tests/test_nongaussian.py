import itertools
from dataclasses import replace

import numpy as np
import pytest

from kblab.model import ExperimentConfig, constant_model
from kblab.kalman import filter_pieces, mean_decomposition_diagnostics, mismatched_pair, run_filter
from kblab.nongaussian import (
    bank_oracle,
    integrate_extended_system,
    logsumexp,
    merging_report,
    mixture_filter,
)
from kblab.propagate import fundamental_matrix
from kblab.riccati import closed_form_dre
from kblab.simulate import generate_observation_path
from kblab.scenarios import builtin_scenario
from references import noise_free_path, random_model


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
    ext = integrate_extended_system(mdl, obs, (cfg.m0, cfg.P0))
    # with C = 0 the closed loop is the free flow and no information accrues
    assert np.abs(ext.propagator - fundamental_matrix(mdl, obs.grid).values).max() == 0.0
    assert np.abs(ext.weight_quad).max() == 0.0
    assert np.abs(ext.linear).max() == 0.0


def test_extended_scalar_coupling_and_info():
    cfg = replace(builtin_scenario("scalar_basic"), horizon=2.0)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs, (np.zeros(1), np.eye(1)))
    k1 = np.argmin(np.abs(obs.grid - 1.0))
    coupling = ext.propagator - fundamental_matrix(cfg.model, obs.grid).values
    assert coupling[k1, 0, 0] == pytest.approx(-0.5, abs=1e-8)
    # weight quadratic is negative semidefinite along the whole path
    assert ext.weight_quad.max() <= 1e-12


def _closed_loop_information(cfg, grid):
    """Rectangle sum of -Psi^2 C^2 / R dt in longdouble, for a constant scalar model.

    Psi_t = e^{at} / (1 + p0 C^2 / R (e^{2at} - 1) / 2a) is the closed form of
    the closed-loop propagator (1 / (1 + p0 C^2 t / R) for a = 0).
    """
    a, c, r, p0 = (np.longdouble(x[0, 0]) for x in (cfg.model.A0, cfg.model.C0, cfg.model.R0, cfg.P0))
    t = grid[:-1].astype(np.longdouble)
    growth = t if a == 0 else np.expm1(2 * a * t) / (2 * a)
    psi = np.exp(a * t) / (1 + p0 * c * c / r * growth)
    out = np.zeros(len(grid), dtype=np.longdouble)
    out[1:] = np.cumsum(-psi * psi * c * c / r * np.diff(grid).astype(np.longdouble))
    return out


@pytest.mark.parametrize("name", ["two_atom", "two_atom_neutral", "scalar_basic"])
def test_weight_quad_matches_closed_form_reference(name):
    # one running sum along the closed loop: on two_atom (A = 0.3) the
    # difference of the free-flow and closed-loop sums it replaces lost 1.5e-8;
    # scalar_basic takes the a = 0 branch, Psi_t = 1 / (1 + p0 C^2 t / R)
    cfg = builtin_scenario(name)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0))
    ref = _closed_loop_information(cfg, obs.grid)
    assert float(np.abs(ext.weight_quad[:, 0, 0] - ref).max()) <= 1e-12


def test_propagator_identity_matches_closed_loop():
    # G_t is the closed-loop propagator Psi_t = P_t Phi_t^{-T} P0^{-1} (eps = 0),
    # with P_t from the closed-form solution rather than the sweep
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0))
    phi = fundamental_matrix(cfg.model, obs.grid)
    p = closed_form_dre(cfg.model, cfg.P0, phi).values
    psi = p @ np.linalg.inv(phi.values).swapaxes(1, 2) @ np.linalg.inv(cfg.P0)
    assert np.abs(ext.propagator - psi).max() <= 1e-6


def test_single_atom_at_origin_equals_plain_filter():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, init), [(np.zeros(1), 1.0)])
    run = run_filter(cfg.model, obs, init)
    assert np.abs(mix.mean - run.means).max() <= 1e-9
    assert np.abs(mix.cov[:, 0, 0] - run.pieces.riccati.values[:, 0, 0]).max() <= 1e-12
    assert np.abs(mix.weights - 1.0).max() <= 1e-15


def test_single_atom_shift_property():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    ext = integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0))
    mix = mixture_filter(ext, [(np.array([2.0]), 1.0)])
    shifted = run_filter(cfg.model, obs, (cfg.m0 + 2.0, cfg.P0))
    assert np.abs(mix.mean - shifted.means).max() <= 1e-6


def test_mixture_equals_bank_two_atoms():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=10.0)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), cfg.atoms)
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    assert np.abs(mix.mean - bank.mean).max() <= 1e-6
    assert np.abs(mix.log_weights - bank.log_weights).max() <= 1e-8
    assert np.abs(mix.cov - bank.cov).max() <= 1e-6


def test_mixture_equals_bank_multivariate():
    cfg = replace(builtin_scenario("rotation_atoms"), horizon=5.0)
    obs = generate_observation_path(cfg)
    pieces = filter_pieces(cfg.model, obs.grid, cfg.P0)
    ext = integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0), pieces=pieces)
    mix = mixture_filter(ext, cfg.atoms)
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0), pieces=pieces)
    assert np.abs(mix.mean - bank.mean).max() <= 1e-6
    assert np.abs(mix.log_weights - bank.log_weights).max() <= 1e-8


def test_bank_keeps_its_digits_on_unstable_dynamics():
    # two_atom (A = 0.3) at dt 0.02 and seed 506013: each atom's
    # log-likelihood alone reaches 9.2e8, and their difference, taken only
    # at the normalization, put a 1.5e-3 gap on the means; accumulated
    # relative to atom 1 the bank agrees with the mixture to rounding
    cfg = replace(builtin_scenario("two_atom"), dt=0.02, seed=506013)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), cfg.atoms)
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    assert np.abs(mix.mean - bank.mean).max() <= 1e-9
    assert np.abs(mix.log_weights - bank.log_weights).max() <= 1e-9


def test_weights_normalized_every_node():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), cfg.atoms)
    sums = mix.weights.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_bank_weight_collapse_under_clean_signal():
    cfg = builtin_scenario("two_atom_sharp")
    obs, _ = noise_free_path(cfg, x0=np.array([1.0]))
    bank = bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0))
    w = bank.weights[:, 0]
    k10 = np.argmin(np.abs(obs.grid - 10.0))
    assert w[-1] >= 0.99
    assert np.all(np.diff(w[k10:]) >= -1e-12)


def test_decomposition_split_invariance():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=5.0)
    obs = generate_observation_path(cfg)
    c = 0.7
    mix_a = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), cfg.atoms)
    shifted = tuple((x + c, w) for x, w in cfg.atoms)
    mix_b = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0 - c, cfg.P0)), shifted)
    assert np.abs(mix_a.mean - mix_b.mean).max() <= 1e-8
    assert np.abs(mix_a.log_weights - mix_b.log_weights).max() <= 1e-8
    assert np.abs(mix_a.cov - mix_b.cov).max() <= 1e-8


def test_identities_hold_on_random_models():
    # both families, every m, n in {1, 2, 3}: the mean-gap decomposition
    # holds at float precision and the mixture equals the bank within
    # criterion 6's tolerances; every drawn model runs
    rng = np.random.default_rng(7)
    worst = []
    for m, n, mods in itertools.product((1, 2, 3), (1, 2, 3), ((), ("A1", "C1", "R1", "F1"))):
        model = random_model(rng, m, n, mods)
        root = rng.normal(scale=0.5, size=(m, m))
        P0, m0 = root @ root.T + 0.5 * np.eye(m), rng.normal(size=m)
        cfg = ExperimentConfig(model=model, horizon=2.0, dt=0.005, substeps=2,
                               seed=int(rng.integers(1000)), m0=m0, P0=P0,
                               mbar=m0 + rng.normal(size=m), Pbar=2.0 * P0,
                               atoms=((rng.normal(size=m), 0.3), (rng.normal(size=m), 0.7)))
        obs = generate_observation_path(cfg)
        pair = mismatched_pair(model, obs, (cfg.m0, cfg.P0), (cfg.mbar, cfg.Pbar))
        init = (cfg.m0, cfg.P0)
        mix = mixture_filter(integrate_extended_system(model, obs, init), cfg.atoms)
        bank = bank_oracle(model, obs, cfg.atoms, init)
        worst.append((model.family, m, n, mean_decomposition_diagnostics(pair).residual.max(),
                      np.abs(mix.mean - bank.mean).max(),
                      np.abs(mix.log_weights - bank.log_weights).max()))
    bad = [w for w in worst if not (w[3] <= 1e-10 and w[4] <= 1e-6 and w[5] <= 1e-8)]
    assert not bad, bad


def test_empty_atoms_rejected():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=1.0)
    obs = generate_observation_path(cfg)
    with pytest.raises(ValueError):
        mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), [])
    with pytest.raises(ValueError):
        bank_oracle(cfg.model, obs, [], (cfg.m0, cfg.P0))


def test_merging_constant_function_gap_zero():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=3.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    # single atom: the normalized weight is exactly 1 and the gap exactly 0
    ext = integrate_extended_system(cfg.model, obs, init)
    mix1 = mixture_filter(ext, [(np.zeros(1), 1.0)])
    ref = run_filter(cfg.model, obs, init)
    rep1 = merging_report(mix1, ref, [[0.0]])
    assert rep1.cos_gaps.max() == 0.0
    # several atoms: limited only by the float representation of the simplex
    mix2 = mixture_filter(ext, cfg.atoms)
    rep2 = merging_report(mix2, ref, [[0.0]])
    assert rep2.cos_gaps.max() <= 4e-16


def test_merging_same_distribution_gap_negligible():
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=3.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, init), [(np.zeros(1), 1.0)])
    ref = run_filter(cfg.model, obs, init)
    rep = merging_report(mix, ref, [[1.0]])
    assert rep.cos_gaps.max() <= 1e-8


def test_merging_ratios_decay_with_mismatched_reference():
    cfg = builtin_scenario("two_atom")
    obs = generate_observation_path(cfg)
    mix = mixture_filter(integrate_extended_system(cfg.model, obs, (cfg.m0, cfg.P0)), cfg.atoms)
    ref = run_filter(cfg.model, obs, (cfg.mbar, cfg.Pbar))
    rep = merging_report(mix, ref, [[0.5], [1.0], [2.0]])
    assert rep.ratios["mean"] <= 0.1
    for i in range(3):
        assert rep.ratios[f"cos_{i}"] <= 0.1
    # mean proximity is far stronger on this exponentially-contracting scenario
    assert rep.ratios["mean"] <= 0.01


def test_bank_rejects_pieces_of_another_covariance():
    # as kalman.run_filter does: pieces from 5 P' would pair m' with another flow's gains
    cfg = replace(builtin_scenario("rotation_atoms"), horizon=1.0)
    obs = generate_observation_path(cfg)
    pieces = filter_pieces(cfg.model, obs.grid, 5 * cfg.P0)
    with pytest.raises(ValueError, match="another covariance"):
        bank_oracle(cfg.model, obs, cfg.atoms, (cfg.m0, cfg.P0), pieces=pieces)


def test_four_argument_mixture_call_integrates_its_own_inputs():
    # with a model first, mixture_filter(model, obs, atoms, init) is
    # mixture_filter(ext, atoms) on the extended system of those inputs
    # (perfbench/limit.py calls it so)
    cfg = replace(builtin_scenario("two_atom_neutral"), horizon=1.0)
    obs = generate_observation_path(cfg)
    init = (cfg.m0, cfg.P0)
    old = mixture_filter(cfg.model, obs, cfg.atoms, init)
    new = mixture_filter(integrate_extended_system(cfg.model, obs, init), cfg.atoms)
    assert np.array_equal(old.log_weights, new.log_weights)
    assert np.array_equal(old.mean, new.mean)
