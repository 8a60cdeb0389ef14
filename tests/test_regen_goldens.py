"""``scripts/regen_goldens.py`` writes only the goldens that differ."""

import os
import shutil
import sys

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import regen_goldens  # noqa: E402


def _files(d) -> dict:
    return {n: (open(os.path.join(d, n), "rb").read(), os.stat(os.path.join(d, n)).st_mtime_ns)
            for n in sorted(os.listdir(d))}


def test_equal_tables_leave_every_golden_untouched(tmp_path, monkeypatch):
    out = str(tmp_path / "golden")
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), out)
    monkeypatch.setattr(regen_goldens, "OUT", out)
    tables = {n: pq.read_table(os.path.join(out, n)) for n in os.listdir(out)}
    before = _files(out)
    assert regen_goldens.update(tables, check=False) == 0
    assert _files(out) == before


def test_only_a_differing_golden_is_written(tmp_path, monkeypatch):
    out = str(tmp_path / "golden")
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), out)
    monkeypatch.setattr(regen_goldens, "OUT", out)
    tables = {n: pq.read_table(os.path.join(out, n)) for n in os.listdir(out)}
    name = "x_extract_write_sf001.parquet"
    tables[name] = tables[name].set_column(
        1, "rows", pa.array([r + 1 for r in tables[name]["rows"].to_pylist()], pa.int64()))
    before = _files(out)
    assert regen_goldens.update(tables, check=True) == 1
    assert _files(out) == before
    assert regen_goldens.update(tables, check=False) == 1
    after = _files(out)
    assert {n for n in before if after[n] != before[n]} == {name}
    assert pq.read_table(os.path.join(out, name)).equals(tables[name])
