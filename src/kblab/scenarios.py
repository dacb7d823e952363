"""Builtin experiment scenarios, by name: the documents shipped in configs/.

configs/ at the repository root is the only source of each scenario; the
tests and the acceptance checks load them here, the CLI and the benchmark
read the same files by path. The directory is found from the package path,
which holds in the source tree and in an editable install.
"""

from __future__ import annotations

from pathlib import Path

from .model import ExperimentConfig, parse_config

CONFIG_DIR = Path(__file__).resolve().parents[2] / "configs"
SCENARIOS = tuple(sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))


def builtin_scenario(name: str) -> ExperimentConfig:
    """Parse configs/<name>.cfg; an unknown name raises KeyError listing the shipped ones."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {list(SCENARIOS)}")
    return parse_config((CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8"))
