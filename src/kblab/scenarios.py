"""Builtin experiment scenarios used by the tests and the acceptance checks.

The CLI reads only config documents; it does not use these builders.

Every scenario is also shipped as a config document under configs/, kept in
sync with these builders by a round-trip test.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ExperimentConfig,
    constant_model,
    periodic_model,
    rotation_damped_model,
)


def scalar_basic() -> ExperimentConfig:
    """Neutral scalar UCO scenario: A=0, C=R=1; algebraic closed-loop decay."""
    return ExperimentConfig(
        model=constant_model([[0.0]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=20.0, dt=1e-3, substeps=1, seed=42,
        m0=[1.0], P0=[[1.0]], mbar=[-1.0], Pbar=[[2.0]],
        mc_runs=20, uco_window=1.0,
    )


def scalar_unstable() -> ExperimentConfig:
    """Scalar UCO scenario with unstable dynamics; exponentially stable closed loop."""
    return ExperimentConfig(
        model=constant_model([[0.3]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=50.0, dt=1e-3, substeps=1, seed=7,
        m0=[1.0], P0=[[1.0]], mbar=[-1.0], Pbar=[[2.0]],
        mc_runs=20, uco_window=1.0,
    )


def rotation() -> ExperimentConfig:
    """2x2 anti-damped rotation, fully observed; exponentially stable closed loop."""
    return ExperimentConfig(
        model=rotation_damped_model(omega=1.0, damping=-0.25),
        horizon=50.0, dt=1e-3, substeps=1, seed=3,
        m0=[1.0, 0.0], P0=np.eye(2), mbar=[-1.0, 1.0], Pbar=4.0 * np.eye(2),
        mc_runs=20, uco_window=1.0,
    )


def rotation_partial() -> ExperimentConfig:
    """Pure rotation observed through the first coordinate only; UCO over full periods."""
    return ExperimentConfig(
        model=rotation_damped_model(omega=1.0, damping=0.0, C=[[1.0, 0.0]], R=[[1.0]]),
        horizon=4.0 * np.pi, dt=1e-3, substeps=1, seed=1,
        m0=[1.0, 0.0], P0=np.eye(2),
        mc_runs=10, uco_window=2.0 * np.pi,
    )


def periodic3() -> ExperimentConfig:
    """3-dimensional periodically modulated system, fully observed."""
    a0 = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.3]]
    a1 = [[0.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]
    return ExperimentConfig(
        model=periodic_model(a0, a1, C=np.eye(3), R=np.eye(3), omega=2.0),
        horizon=10.0, dt=1e-3, substeps=1, seed=5,
        m0=[1.0, 0.0, -1.0], P0=np.eye(3), mbar=[0.0, 1.0, 0.0], Pbar=2.0 * np.eye(3),
        mc_runs=10, uco_window=1.0,
    )


def smallnoise_stable() -> ExperimentConfig:
    """Stable scalar scenario for the eps-noise sweeps (alpha ~ 0.5)."""
    return ExperimentConfig(
        model=constant_model([[-0.5]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=20.0, dt=5e-3, substeps=10, seed=11,
        m0=[1.0], P0=[[1.0]],
        epsilons=(0.2, 0.1, 0.05, 0.025), mc_runs=20, uco_window=1.0,
    )


def two_atom() -> ExperimentConfig:
    """Scalar two-atom initial law on unstable dynamics; mismatched reference (5, 3).

    The weight exponents reach ~1e8 on this scenario (likelihood energy of an
    unstable signal), so mixture/bank agreement is float-cancellation-limited;
    the per-scenario equivalence tolerances reflect that. The tight 1e-6/1e-8
    equivalence is certified on the neutral-dynamics scenarios.
    """
    return ExperimentConfig(
        model=constant_model([[0.3]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=30.0, dt=1e-3, substeps=1, seed=13,
        m0=[0.0], P0=[[1.0]], mbar=[5.0], Pbar=[[3.0]],
        atoms=(([1.0], 0.5), ([-1.0], 0.5)),
        mc_runs=10, uco_window=1.0,
        thresholds={"tol_equivalence_mean": 1e-3, "tol_equivalence_logw": 1e-5},
    )


def two_atom_neutral() -> ExperimentConfig:
    """Scalar two-atom scenario on neutral dynamics (equivalence suite)."""
    return ExperimentConfig(
        model=constant_model([[0.0]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=20.0, dt=1e-3, substeps=1, seed=17,
        m0=[0.0], P0=[[2.0]], mbar=[5.0], Pbar=[[3.0]],
        atoms=(([1.0], 0.5), ([-1.0], 0.5)),
        mc_runs=10, uco_window=1.0,
    )


def two_atom_sharp() -> ExperimentConfig:
    """Small Gaussian variance: atom likelihoods separate fast (weight collapse)."""
    return ExperimentConfig(
        model=constant_model([[0.0]], [[1.0]], [[1.0]], F=[[1.0]]),
        horizon=20.0, dt=1e-3, substeps=1, seed=23,
        m0=[0.0], P0=[[0.25]], mbar=[1.0], Pbar=[[1.0]],
        atoms=(([1.0], 0.5), ([-1.0], 0.5)),
        mc_runs=10, uco_window=1.0,
    )


def rotation_atoms() -> ExperimentConfig:
    """Damped rotation with a three-atom initial law (equivalence suite)."""
    return ExperimentConfig(
        model=rotation_damped_model(omega=1.0, damping=0.2),
        horizon=15.0, dt=1e-3, substeps=1, seed=19,
        m0=[0.0, 0.0], P0=np.eye(2), mbar=[2.0, -1.0], Pbar=2.0 * np.eye(2),
        atoms=(([1.0, 0.5], 0.3), ([-1.0, 0.0], 0.4), ([0.5, -1.0], 0.3)),
        mc_runs=10, uco_window=1.0,
    )


SCENARIOS = {
    "scalar_basic": scalar_basic,
    "scalar_unstable": scalar_unstable,
    "rotation": rotation,
    "rotation_partial": rotation_partial,
    "periodic3": periodic3,
    "smallnoise_stable": smallnoise_stable,
    "two_atom": two_atom,
    "two_atom_neutral": two_atom_neutral,
    "two_atom_sharp": two_atom_sharp,
    "rotation_atoms": rotation_atoms,
}


def builtin_scenario(name: str) -> ExperimentConfig:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}") from None
