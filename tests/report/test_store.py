"""ResultStore: content addressing, round-trip fidelity, cache semantics."""

import json
import os

import numpy as np
import pytest

from repro import __version__
from repro.experiments.common import ExperimentResult
from repro.report.store import (ResultStore, StoreRecord, canonical_params,
                                store_key)


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
            store.put("unit", {"lam": float("nan")}, seed=1, reps=None,
                      backend="serial", elapsed_seconds=0.0, result=_result())

    def test_every_stored_envelope_rekeys_to_its_filename(self, tmp_path):
        # The self-addressing invariant the bug broke: hashing a stored
        # envelope's own params must reproduce the key it is filed under.
        store = ResultStore(str(tmp_path))
        store.put("unit", {"rho": (0.5, 1.0), "n": 4, "flag": True},
                  seed=7, reps=500, backend="serial", elapsed_seconds=0.1,
                  result=_result())
        store.put("unit", {"nested": {"lam": 0.25, "tags": ["a", "b"]}},
                  seed=None, reps=None, backend="serial", elapsed_seconds=0.0,
                  result=_result())
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
        written = store.put("unit", params, seed=7, reps=500,
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
        written = store.put("unit", {}, seed=None, reps=None,
                            backend="serial", elapsed_seconds=0.0,
                            result=_result())
        loaded = store.get(written.key)
        for row_a, row_b in zip(written.result.rows, loaded.result.rows):
            for column in ("a", "b"):
                assert np.float64(row_a.get(column)).tobytes() == \
                    np.float64(row_b.get(column)).tobytes()

    def test_get_hit_and_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = store.put("unit", {}, seed=1, reps=None, backend="serial",
                           elapsed_seconds=0.0, result=_result())
        assert store.get(record.key) is not None
        assert store.get("0" * 64) is None

    def test_atomic_object_files_only(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("unit", {}, seed=1, reps=None, backend="serial",
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
        record = store.put("nf", {}, seed=1, reps=None, backend="serial",
                           elapsed_seconds=0.0, result=result)
        with open(store.object_path(record.key), encoding="utf-8") as f:
            raw = f.read()
        assert "Infinity" not in raw
        json.loads(raw)                    # parses under the strict grammar
        assert store.get(record.key).result.rows[0].get("v") == float("inf")

    def test_envelope_roundtrip_through_dataclass(self, tmp_path):
        store = ResultStore(str(tmp_path))
        record = store.put("unit", {"q": 0.25}, seed=11, reps=1,
                           backend="process(workers=2)", elapsed_seconds=1.5,
                           result=_result())
        clone = StoreRecord.from_envelope(record.to_envelope())
        assert clone == record
