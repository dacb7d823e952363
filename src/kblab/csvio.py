"""CSV artifact writing with 17-significant-digit round-trip formatting.

Artifacts are plain diffable text: CSV tables plus a key = value manifest.
Re-running a command with the same config and seed reproduces identical CSV
bytes; the manifest carries wall time and is exempt from byte identity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .propagate import MatrixPath


def _f(x) -> str:
    return format(float(x), ".17g")


def write_table(path, header, rows):
    """Write a CSV table; rows are iterables of floats (or strings)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _f(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_matrix_path(path, mp: MatrixPath, name: str, stride: int = 1):
    """Header t,<name>_11,<name>_12,... with row-major matrix entries."""
    p, q = mp.values.shape[1:]
    header = ["t"] + [f"{name}_{i + 1}{j + 1}" for i in range(p) for j in range(q)]
    rows = ([mp.grid[k]] + list(mp.values[k].reshape(-1)) for k in range(0, len(mp), stride))
    return write_table(path, header, rows)


def write_manifest(out_dir, cfg, extra=None, seeds=None, wall_time=None):
    """Plain-text manifest; present only once a run has completed."""
    import kblab

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"config_hash = {cfg.config_hash()}",
        f"kblab_version = {kblab.__version__}",
        f"numpy_version = {np.__version__}",
        f"seed = {cfg.seed}",
        f"horizon = {_f(cfg.horizon)}",
        f"dt = {_f(cfg.dt)}",
        f"substeps = {cfg.substeps}",
    ]
    if seeds is not None:
        lines.append("seeds = " + " ".join(str(s) for s in seeds))
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    lines.append(f"wall_time_s = {0.0 if wall_time is None else wall_time:.3f}")
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
