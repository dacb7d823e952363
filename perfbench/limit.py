"""Mixture-vs-bank log-weight gap on anti-damped rotation, by horizon.

    python3 perfbench/limit.py

Runs kblab's mixture filter and its bank-of-filters oracle on the shipped
``rotation`` model (damping -0.25, dt 0.001, seed 3) with the atoms of
``rotation_atoms``, for C = [1 0] and C = I, at T = 20 and T = 50, and prints
the largest log-weight and mean gaps against the 1e-8 and 1e-6 tolerances of
the nongaussian subcommand. Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kblab.model import parse_config  # noqa: E402
from kblab.nongaussian import bank_oracle, mixture_filter  # noqa: E402
from kblab.simulate import generate_observation_path  # noqa: E402


def load(name):
    return parse_config((ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8"))


def main() -> int:
    base = dataclasses.replace(load("rotation"), atoms=load("rotation_atoms").atoms)
    for label, C in (("C = [1 0]", np.array([[1.0, 0.0]])), ("C = I", np.eye(2))):
        model = dataclasses.replace(base.model, n=C.shape[0], C0=C, R0=np.eye(C.shape[0]))
        for horizon in (20.0, 50.0):
            cfg = dataclasses.replace(base, model=model, horizon=horizon)
            obs = generate_observation_path(cfg)
            init = (cfg.m0, cfg.P0)
            mix = mixture_filter(cfg.model, obs, cfg.atoms, init)
            bank = bank_oracle(cfg.model, obs, cfg.atoms, init)
            logw = float(np.abs(mix.log_weights - bank.log_weights).max())
            mean = float(np.abs(mix.mean - bank.mean).max())
            tol = cfg.thresholds["tol_equivalence_logw"]
            print(f"{label:10s} T = {horizon:4.0f}: log-weight gap {logw:.2e} "
                  f"({'pass' if logw <= tol else 'FAIL'} at {tol:g}), mean gap {mean:.2e}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
