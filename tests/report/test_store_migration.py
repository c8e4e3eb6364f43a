"""Opening a store moves the objects of the earlier layouts into place.

The classes that wrote those layouts are gone, so each test writes them by
hand: the flat ``objects/<scenario>/<key>.json`` with its ``index.jsonl``,
and the 4-way sharded ``shards/NN/objects/<scenario>/<key>.json`` with its
``sharding.json`` and per-shard indexes.
"""

import json
import os
import re
import sqlite3

import pytest

from repro import __version__
from repro.experiments.common import ExperimentResult
from repro.report.store import (ResultStore, StoreRecord, store_identity,
                                store_key, strict_jsonable)
from repro.warehouse import load_store

SHARDS = 4


def _records():
    """Six cells over two scenarios, with a float that needs every bit."""
    records = []
    for i in range(6):
        scenario = "evaluate" if i % 2 else "table1"
        params = {"method": "mc", "n": 3 + i, "lam": 0.5 + i / 7.0}
        result = ExperimentResult(name="fixture", paper_reference="fixture",
                                  columns=["value"], notes="fixture")
        result.add_row("mean", value=1.0 / (3.0 + i))
        result.add_row("q_max", value=float("inf"))
        records.append(StoreRecord(
            key=store_key(scenario, params, 11 + i, 500), scenario=scenario,
            params=params, seed=11 + i, reps=500, backend="serial",
            elapsed_seconds=0.125 * i, version=__version__,
            created_at="2026-01-0%dT00:00:00+00:00" % (i + 1),
            result=result))
    return records


def _write(path, record):
    """Write *record*'s envelope at *path* as the store serialises it."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(strict_jsonable(record.to_envelope()), handle, indent=2,
                  sort_keys=True, allow_nan=False)
        handle.write("\n")


def _touch(path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"key": "an index line nothing reads"}\n')


def _flat(root, records):
    for record in records:
        _write(os.path.join(root, "objects", record.scenario,
                            f"{record.key}.json"), record)
    _touch(os.path.join(root, "index.jsonl"))
    _touch(os.path.join(root, "index.jsonl.lock"))


def _sharded(root, records):
    with open(os.path.join(root, "sharding.json"), "w") as handle:
        json.dump({"format": 1, "shards": SHARDS}, handle)
    _touch(os.path.join(root, "sharding.json.lock"))
    for record in records:
        shard = os.path.join(root, "shards",
                             f"{int(record.key[:8], 16) % SHARDS:02x}")
        _write(os.path.join(shard, "objects", record.scenario,
                            f"{record.key}.json"), record)
        _touch(os.path.join(shard, "index.jsonl"))
        _touch(os.path.join(shard, "index.jsonl.lock"))


def _mixed(root, records):
    """Half flat, half sharded, and the first key in both layouts."""
    os.makedirs(root, exist_ok=True)
    _flat(root, records[:3])
    _sharded(root, [records[0], *records[3:]])


LAYOUTS = {"flat": _flat, "sharded": _sharded, "mixed": _mixed}


def _legacy_store(tmp_path, layout):
    root = str(tmp_path / layout)
    os.makedirs(root)
    records = _records()
    LAYOUTS[layout](root, records)
    return root, records


def _tree(root):
    """Every file under *root*, relative, sorted."""
    return sorted(os.path.relpath(os.path.join(path, name), root)
                  for path, _dirs, names in os.walk(root) for name in names)


def _tables(db):
    conn = sqlite3.connect(db)
    try:
        return {table: conn.execute(
            f"SELECT * FROM {table} ORDER BY 1, 2, 3").fetchall()
            for table in ("cells", "axes", "metrics")}
    finally:
        conn.close()


class _FileOps:
    """Counts the file-system calls an open makes."""

    NAMES = ("listdir", "replace", "unlink", "rmdir", "makedirs", "mkdir")

    def __init__(self, monkeypatch):
        self.calls = []
        for name in self.NAMES:
            real = getattr(os, name)
            monkeypatch.setattr(os, name, self._spy(name, real))
        real_isdir = os.path.isdir
        monkeypatch.setattr(os.path, "isdir",
                            self._spy("isdir", real_isdir))

    def _spy(self, name, real):
        def spy(*args, **kwargs):
            self.calls.append(name)
            return real(*args, **kwargs)
        return spy


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestOneOpenMigrates:
    def test_every_cell_loads_bit_equal(self, tmp_path, layout):
        root, records = _legacy_store(tmp_path, layout)
        store = ResultStore(root)
        for record in records:
            loaded = store.get(record.key)
            assert loaded is not None
            assert json.dumps(strict_jsonable(loaded.to_envelope()),
                              sort_keys=True) == \
                json.dumps(strict_jsonable(record.to_envelope()),
                           sort_keys=True)
        assert len(store) == len(records)

    def test_only_the_object_layout_remains(self, tmp_path, layout):
        root, records = _legacy_store(tmp_path, layout)
        ResultStore(root)
        assert os.listdir(root) == ["objects"]
        assert all(re.fullmatch(r"[0-9a-f]{2}", name)
                   for name in os.listdir(os.path.join(root, "objects")))
        assert _tree(root) == sorted(
            os.path.join("objects", r.key[:2], f"{r.key}.json")
            for r in records)

    def test_warehouse_equals_a_fresh_stores(self, tmp_path, layout):
        root, records = _legacy_store(tmp_path, layout)
        fresh = ResultStore(str(tmp_path / "fresh"))
        for record in records:
            _write(fresh.object_path(record.key), record)
        migrated_db = str(tmp_path / "migrated.sqlite")
        fresh_db = str(tmp_path / "fresh.sqlite")
        migrated = load_store(root, migrated_db)
        load_store(fresh.root, fresh_db)
        assert migrated.cells_seen == migrated.cells_inserted == len(records)
        assert _tables(migrated_db) == _tables(fresh_db)

    def test_a_second_open_moves_nothing(self, tmp_path, layout,
                                         monkeypatch):
        root, records = _legacy_store(tmp_path, layout)
        ResultStore(root)
        before = _tree(root)
        ops = _FileOps(monkeypatch)
        ResultStore(root)
        assert ops.calls == ["listdir", "isdir"]
        assert _tree(root) == before


class TestInterruptedMigration:
    def test_the_next_open_finishes_a_half_done_move(self, tmp_path):
        root, records = _legacy_store(tmp_path, "sharded")
        for record in records[::2]:            # what a crash left done
            shard = f"{int(record.key[:8], 16) % SHARDS:02x}"
            source = os.path.join(root, "shards", shard, "objects",
                                  record.scenario, f"{record.key}.json")
            target = os.path.join(root, "objects", record.key[:2],
                                  f"{record.key}.json")
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(source, target)
        store = ResultStore(root)
        assert os.listdir(root) == ["objects"]
        assert len(store) == len(records)
        assert all(store.get(record.key) is not None for record in records)

    def test_objects_another_open_moved_first_are_skipped(self, tmp_path,
                                                           monkeypatch):
        root, records = _legacy_store(tmp_path, "mixed")
        real_replace = os.replace
        raced = []

        def replace(source, target):
            if not raced:                     # another process wins the race
                raced.append(True)
                ResultStore(root)
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        store = ResultStore(root)
        assert raced
        assert os.listdir(root) == ["objects"]
        assert all(store.get(record.key) is not None for record in records)


def test_a_shard_tree_without_objects_is_removed(tmp_path):
    root = str(tmp_path)
    _touch(os.path.join(root, "shards", "03", "index.jsonl"))
    _touch(os.path.join(root, "sharding.json"))
    ResultStore(root)
    assert os.listdir(root) == []


def test_new_objects_go_to_their_key_prefix(tmp_path):
    store = ResultStore(str(tmp_path))
    record = store.put(store_identity("unit", {"p": 1}, 1, None),
                       backend="serial", elapsed_seconds=0.0,
                       result=_records()[0].result)
    assert _tree(str(tmp_path)) == [
        os.path.join("objects", record.key[:2], f"{record.key}.json")]
