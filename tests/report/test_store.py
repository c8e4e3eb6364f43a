"""ResultStore: content addressing, round-trip fidelity, cache semantics."""

import json
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import __version__
from repro.experiments.common import ExperimentResult
from repro.report.store import (ResultStore, StoreRecord, canonical_params,
                                store_identity, store_key)


def _result(name="unit_result"):
    result = ExperimentResult(
        name=name,
        paper_reference="Table 0 (unit fixture)",
        columns=["a", "b"],
        notes="fixture",
    )
    result.add_row("row 1", a=1.25, b=-3.5e-7)
    result.add_row("row 2", a=0.0, b=float(np.float64(2.718281828459045)))
    return result


class TestCanonicalParams:
    def test_tuples_and_lists_coincide(self):
        assert canonical_params({"x": (1, 2)}) == canonical_params({"x": [1, 2]})

    def test_numpy_scalars_collapse_to_python(self):
        canon = canonical_params({"mu": np.float64(0.5), "n": np.int64(4)})
        assert canon == {"mu": 0.5, "n": 4}
        assert type(canon["mu"]) is float and type(canon["n"]) is int

    def test_nested_structures_and_key_order(self):
        a = canonical_params({"b": {"y": 1, "x": (2.0,)}, "a": None})
        b = canonical_params({"a": None, "b": {"x": [2.0], "y": 1}})
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_unstorable_value_raises(self):
        with pytest.raises(TypeError):
            canonical_params({"f": object()})


class TestStoreKey:
    def test_deterministic(self):
        k1 = store_key("table1", {"simulate": False}, 2024, None)
        k2 = store_key("table1", {"simulate": False}, 2024, None)
        assert k1 == k2 and len(k1) == 64

    def test_every_identity_component_changes_the_key(self):
        base = store_key("s", {"p": 1}, 1, 100)
        assert store_key("other", {"p": 1}, 1, 100) != base
        assert store_key("s", {"p": 2}, 1, 100) != base
        assert store_key("s", {"p": 1}, 2, 100) != base
        assert store_key("s", {"p": 1}, 1, 200) != base
        assert store_key("s", {"p": 1}, 1, 100, version="0.0.0") != base

    def test_backend_is_not_part_of_the_key(self):
        # Serial and process runs are bit-identical, so a cell computed on
        # one backend must be a cache hit for the other: the key has no
        # backend component at all (it is only metadata on the record).
        k = store_key("s", {"p": 1}, 1, 100)
        assert "serial" not in json.dumps({"k": k})


class TestNonFiniteParams:
    # Regression: store_key used to serialize NaN/inf params via json's
    # default allow_nan=True (bare NaN/Infinity tokens) while put() persisted
    # them as 'nan'-style *strings* — so the stored envelope hashed to a
    # different key than the one it was filed under and could never re-derive
    # its own address.  Non-finite floats are now rejected at the door.

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_canonical_params_rejects_non_finite_floats(self, bad):
        with pytest.raises(TypeError, match="not a finite number"):
            canonical_params({"lam": bad})

    def test_rejection_reaches_nested_and_numpy_values(self):
        with pytest.raises(TypeError, match="not a finite number"):
            canonical_params({"spec": {"rates": (1.0, float("nan"))}})
        with pytest.raises(TypeError, match="not a finite number"):
            canonical_params({"lam": np.float64("inf")})

    def test_store_key_refuses_non_finite_params(self):
        with pytest.raises(TypeError, match="not a finite number"):
            store_key("s", {"lam": float("inf")}, 1, 100)

    def test_put_refuses_non_finite_params(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(TypeError, match="not a finite number"):
            store.put(store_identity("unit", {"lam": float("nan")}, 1, None),
                      backend="serial", elapsed_seconds=0.0, result=_result())

    def test_every_stored_envelope_rekeys_to_its_filename(self, tmp_path):
        # The self-addressing invariant the bug broke: hashing a stored
        # envelope's own params must reproduce the key it is filed under.
        store = ResultStore(str(tmp_path))
        store.put(store_identity("unit",
                                 {"rho": (0.5, 1.0), "n": 4, "flag": True},
                                 7, 500),
                  backend="serial", elapsed_seconds=0.1, result=_result())
        store.put(store_identity("unit",
                                 {"nested": {"lam": 0.25, "tags": ["a", "b"]}},
                                 None, None),
                  backend="serial", elapsed_seconds=0.0, result=_result())
        envelopes = list(store.envelopes())
        assert len(envelopes) == 2
        for envelope in envelopes:
            rekeyed = store_key(str(envelope["scenario"]),
                                dict(envelope["params"]),
                                envelope["seed"], envelope["reps"],
                                version=str(envelope["version"]))
            assert rekeyed == envelope["key"]


class TestRoundTrip:
    def test_write_reload_bit_identical(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        params = {"rho": (0.5, 1.0), "n": 4, "flag": True, "label": "x"}
        result = _result()
        written = store.put(store_identity("unit", params, 7, 500),
                            backend="serial", elapsed_seconds=0.125,
                            result=result)
        loaded = store.get(written.key)
        assert loaded is not None
        assert loaded.params == canonical_params(params)
        assert loaded.result.to_dict() == result.to_dict()
        assert loaded.seed == 7 and loaded.reps == 500
        assert loaded.backend == "serial"
        assert loaded.elapsed_seconds == 0.125
        assert loaded.version == __version__

    def test_scalar_bits_survive_json(self, tmp_path):
        # float64 payloads must reload to the exact same bit pattern.
        store = ResultStore(str(tmp_path))
        written = store.put(store_identity("unit", {}, None, None),
                            backend="serial", elapsed_seconds=0.0,
                            result=_result())
        loaded = store.get(written.key)
        for row_a, row_b in zip(written.result.rows, loaded.result.rows):
            for column in ("a", "b"):
                assert np.float64(row_a.get(column)).tobytes() == \
                    np.float64(row_b.get(column)).tobytes()

    def test_get_hit_and_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = store.put(store_identity("unit", {}, 1, None),
                           backend="serial", elapsed_seconds=0.0,
                           result=_result())
        assert store.get(record.key) is not None
        assert store.get("0" * 64) is None

    def test_atomic_object_files_only(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(store_identity("unit", {}, 1, None), backend="serial",
                  elapsed_seconds=0.0, result=_result())
        leftovers = [name for _, _, files in os.walk(tmp_path)
                     for name in files if name.endswith(".tmp")]
        assert leftovers == []

    def test_nonfinite_values_stored_as_strict_json(self, tmp_path):
        # 'q max/min' can overflow to inf; object files must stay standard
        # JSON (no bare Infinity/NaN tokens) and still reload to the same
        # float values.
        result = ExperimentResult(name="nf", paper_reference="",
                                  columns=["v"])
        result.add_row("r", v=float("inf"))
        store = ResultStore(str(tmp_path))
        record = store.put(store_identity("nf", {}, 1, None),
                           backend="serial", elapsed_seconds=0.0,
                           result=result)
        with open(store.object_path(record.key), encoding="utf-8") as f:
            raw = f.read()
        assert "Infinity" not in raw
        json.loads(raw)                    # parses under the strict grammar
        assert store.get(record.key).result.rows[0].get("v") == float("inf")

    def test_envelope_roundtrip_through_dataclass(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = store.put(store_identity("unit", {"q": 0.25}, 11, 1),
                           backend="process(workers=2)", elapsed_seconds=1.5,
                           result=_result())
        clone = StoreRecord.from_envelope(record.to_envelope())
        assert clone == record


class TestWritePath:
    """A put is one write of compact JSON to a per-(process, thread) temp
    file in the bucket, then one rename."""

    @staticmethod
    def _put(store, params=None):
        return store.put(store_identity("unit", params or {"p": 1}, 1, None),
                         backend="serial", elapsed_seconds=0.5,
                         result=_result())

    def test_object_is_one_line_of_compact_sorted_strict_json(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = self._put(store)
        with open(store.object_path(record.key), encoding="utf-8") as f:
            raw = f.read()
        assert raw.count("\n") == 1 and raw.endswith("\n")
        envelope = json.loads(raw)
        assert raw == json.dumps(envelope, sort_keys=True,
                                 separators=(",", ":"),
                                 allow_nan=False) + "\n"
        assert store.get(record.key) == record

    def test_racing_threads_leave_one_object_and_no_temp_files(self,
                                                               tmp_path):
        store = ResultStore(str(tmp_path))
        with ThreadPoolExecutor(max_workers=8) as pool:
            keys = set(pool.map(lambda _i: self._put(store).key, range(8)))
        [key] = keys
        files = [name for _, _, names in os.walk(tmp_path) for name in names]
        assert files == [f"{key}.json"]
        assert store.get(key).result == _result()

    def test_put_recreates_a_removed_bucket(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = self._put(store)
        shutil.rmtree(os.path.dirname(store.object_path(record.key)))
        assert store.get(record.key) is None
        assert self._put(store) == store.get(record.key)

    def test_stale_temp_file_does_not_fail_the_put(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = store_identity("unit", {"p": 1}, 1, None).key
        bucket = os.path.dirname(store.object_path(key))
        os.makedirs(bucket)
        stale = os.path.join(
            bucket, f".{os.getpid()}-{threading.get_ident()}.tmp")
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write('{"truncated": ')
        record = self._put(store)
        assert sorted(os.listdir(bucket)) == [f"{key}.json"]
        assert store.get(key) == record

    def test_indented_objects_of_earlier_versions_still_load(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = self._put(store)
        with open(store.object_path(record.key), "w",
                  encoding="utf-8") as handle:
            json.dump(record.to_envelope(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        assert store.get(record.key) == record
        assert list(store.envelopes()) == [record.to_envelope()]
