"""The columnar CSV writer: the same bytes as a per-value row writer.

`_row_writer` is the writer the columnar one replaced, kept as the
reference: each value formatted by `format(float(x), ".17g")`, joined per
row, with the command's own thinning to every ceil(N / 2001)-th row.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kblab import cli
from kblab.csvio import write_table
from kblab.kalman import mismatched_mc
from kblab.model import serialize_config
from kblab.scenarios import builtin_scenario


def _row_writer(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _stride(n_rows):
    return max(1, int(np.ceil(n_rows / 2001)))


def _reference_bytes(tmp_path, header, rows):
    return _row_writer(tmp_path / "reference.csv", header, rows).read_bytes()


def test_edge_values_and_integer_seeds(tmp_path):
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-16,
              2.0 ** 53, 0.1, 1.0 / 3.0, 1.7976931348623157e308, 2.2250738585072014e-308]
    seeds = [0, 1, 7, 2 ** 31, 2 ** 52 + 1, 2 ** 53 - 1, 2 ** 53, 12, 13, 14, 15, 16, 17, 18]
    path = tmp_path / "edge.csv"
    assert write_table(path, ["seed", "x", "neg"], [seeds, values, np.negative(values)]) == path
    rows = zip(seeds, values, np.negative(values))
    assert path.read_bytes() == _reference_bytes(tmp_path, ["seed", "x", "neg"], rows)
    assert path.read_text().splitlines()[1] == "0,0,-0"
    assert path.read_text().splitlines()[5] == "4503599627370497,nan,nan"


def test_columns_mixed_with_blocks(tmp_path):
    rng = np.random.default_rng(3)
    n = 700
    grid = np.linspace(0.0, 7.0, n)
    block = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    col = rng.standard_normal(n)
    pair = rng.standard_normal((n, 2))
    header = ["t", "b1", "b2", "b3", "c", "p1", "p2"]
    path = write_table(tmp_path / "mixed.csv", header, [grid, block, col, pair])
    rows = ([grid[k]] + list(block[k]) + [col[k]] + list(pair[k]) for k in range(n))
    assert path.read_bytes() == _reference_bytes(tmp_path, header, rows)


@pytest.mark.parametrize("n_rows, kept", [(0, 0), (1, 1), (2001, 2001), (2002, 1001),
                                           (4003, 1335)])
def test_thinning_boundaries(tmp_path, n_rows, kept):
    rng = np.random.default_rng(n_rows)
    grid = np.arange(n_rows) * 0.02
    vals = rng.standard_normal((n_rows, 2, 2))
    path = write_table(tmp_path / "thin.csv", ["t", "a", "b", "c", "d"],
                       [grid, vals.reshape(n_rows, 4)])
    s = _stride(n_rows)
    rows = ([grid[k]] + list(vals[k].reshape(-1)) for k in range(0, n_rows, s))
    assert path.read_bytes() == _reference_bytes(tmp_path, ["t", "a", "b", "c", "d"], rows)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + kept
    if kept:
        assert lines[1].split(",")[0] == "0"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_row_norms_are_per_row_linalg_norms(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal((20_000, m, 4)) * 10.0 ** rng.integers(-150, 150, size=(20_000, 1, 1))
    rows = x[:, :, 1]      # a strided seed column, as cli reads it
    expected = np.array([np.linalg.norm(r) for r in rows])
    assert np.array_equal(cli._row_norms(rows), expected)


@pytest.mark.parametrize("name, overrides", [
    ("rotation_partial", {"mbar": np.array([3.0, -2.0]), "Pbar": np.diag([4.0, 0.5])}),
    ("rotation", {}),
    ("periodic3", {}),
])
def test_sample_path_norm_columns_are_per_row_linalg_norms(tmp_path, name, overrides):
    # 2501 nodes: written every second row
    cfg = replace(builtin_scenario(name), horizon=5.0, dt=0.002, mc_runs=3, **overrides)
    doc = tmp_path / "doc.cfg"
    doc.write_text(serialize_config(cfg))
    cli.main(["stability-mean", "--config", str(doc), "--out", str(tmp_path / "out")])
    lines = (tmp_path / "out" / "sample_path.csv").read_text().splitlines()
    assert lines[0] == "t,gap_mean,gap_cov,term1,znorm,V"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    diag = mismatched_mc(cfg).diag
    rows = range(0, len(diag.term1), _stride(len(diag.term1)))
    assert len(table) == len(rows) == 1251
    assert np.array_equal(table[:, 3], [np.linalg.norm(diag.term1[k, :, 0]) for k in rows])
    assert np.array_equal(table[:, 4], [np.linalg.norm(diag.zhat[k, :, 0]) for k in rows])
