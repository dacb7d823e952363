"""CSV artifact writing with 17-significant-digit round-trip formatting ("%.17g").

Artifacts are plain diffable text: CSV tables plus a key = value manifest.
A table goes in as equal-length columns (a 2-D block is one column per entry
of its rows) and keeps every ceil(N / MAX_ROWS)-th of its N rows from the
first. The same config and seed reproduce identical CSV bytes; the manifest
carries wall times and is exempt from byte identity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .propagate import MatrixPath

MAX_ROWS = 2001


def write_table(path, header, columns):
    """Write a CSV table of equal-length columns (1-D arrays or 2-D blocks); returns the path.

    The thinned columns are stacked as floats and formatted in one operation,
    each row by "%.17g,...,%.17g".
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stride = max(1, -(-len(columns[0]) // MAX_ROWS))
    table = np.column_stack([np.asarray(c, dtype=float)[::stride] for c in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = (row * len(table)) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8")
    return path


def matrix_table(mp: MatrixPath, name: str):
    """(header, columns) of a matrix path: t,<name>_11,<name>_12,... with row-major entries."""
    n, p, q = mp.values.shape
    header = ["t"] + [f"{name}_{i + 1}{j + 1}" for i in range(p) for j in range(q)]
    return header, [mp.grid, mp.values.reshape(n, p * q)]


@contextmanager
def timed(times: dict, stage: str):
    """Add the wall time of the with-block to times[stage] (manifest `time.<stage>`).

    An exception leaving the block carries the innermost such dict as its
    stage_times, so a failed run's manifest can report the stages it reached.
    """
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        vars(exc).setdefault("stage_times", times)
        raise
    finally:
        times[stage] = times.get(stage, 0.0) + time.perf_counter() - start


def write_manifest(out_dir, cfg, extra, times, wall_time, seeds=None):
    """Plain-text manifest, stage times as time.<stage>; written once a run has ended."""
    import kblab

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"config_hash = {cfg.config_hash()}",
        f"kblab_version = {kblab.__version__}",
        f"numpy_version = {np.__version__}",
        f"seed = {cfg.seed}",
        "horizon = %.17g" % cfg.horizon,
        "dt = %.17g" % cfg.dt,
        f"substeps = {cfg.substeps}",
    ]
    if seeds is not None:
        lines.append("seeds = " + " ".join(str(s) for s in seeds))
    for key, val in extra.items():
        lines.append(f"{key} = {val}")
    lines += [f"time.{stage} = {sec:.6f}" for stage, sec in times.items()]
    lines.append(f"wall_time_s = {wall_time:.3f}")
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
