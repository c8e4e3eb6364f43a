"""The content-addressed result store.

Every experiment run is a *cell*: a scenario name plus its canonicalised
parameters, root seed, replication budget and the code version that produced
it.  :class:`ResultStore` addresses cells by the SHA-256 of that canonical
identity, so

* re-running an identical cell is a **cache hit** — the stored
  :class:`~repro.experiments.common.ExperimentResult` is reloaded instead of
  recomputed, which is what lets interrupted large-n sweeps resume;
* any change to the parameters, the seed, the budget or the package version
  yields a **different key**, so stale results can never shadow fresh ones.

The execution backend is deliberately *not* part of the key: the runner
guarantees bit-identical results across serial and process-pool execution
(see :mod:`repro.runner.runner`), so a cell computed on one backend is valid
for all of them.  The backend that actually produced a record is still kept
in its metadata for provenance.

On-disk layout (each object one line of compact, sorted-key JSON)::

    <root>/objects/<key[:2]>/<key>.json   full envelope incl. the result

Each object is written atomically (temp file + ``os.replace``), so a killed
sweep never leaves a truncated object behind.  There is no index and no
lock: the objects are the whole state, a lookup is one path probe, and two
writers of one key race only to rename the same cell into place.

Stores written by earlier versions kept objects under
``objects/<scenario>/`` or ``shards/NN/objects/<scenario>/``, beside an
``index.jsonl``.  Opening such a store moves each object to its place once
(see :meth:`ResultStore._migrate`).
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, Iterator, List, Optional

from repro import __version__
from repro.experiments.common import ExperimentResult

__all__ = ["ResultStore", "StoreIdentity", "StoreRecord", "canonical_params",
           "store_identity", "store_key", "strict_jsonable"]

#: Bumped when the envelope layout changes incompatibly.
STORE_FORMAT = 1


def strict_jsonable(value):
    """Recursively replace non-finite floats with ``"inf"``-style strings.

    Strict JSON has no NaN/Infinity literals, and ``json.dump`` would emit
    Python-only tokens that jq/browsers reject.  String stand-ins keep the
    files standard; ``float("inf")``/``float("nan")`` parse them right back
    (which is what :meth:`ExperimentResult.from_dict` does).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)                       # 'inf' / '-inf' / 'nan'
    if isinstance(value, dict):
        return {k: strict_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_jsonable(v) for v in value]
    return value


def canonical_params(value):
    """Reduce a parameter value to a canonical JSON-stable form.

    Tuples become lists, numpy scalars become Python scalars, mapping keys
    become strings — so ``(1, 2)`` and ``[1, 2]`` (or ``np.float64(0.5)`` and
    ``0.5``) address the same cell, and the canonical form survives a JSON
    round trip unchanged.

    Non-finite floats are rejected: the key digest would hash them as raw
    ``NaN``/``Infinity`` JSON tokens while :func:`strict_jsonable` persists
    them as ``"nan"``-style strings, so a stored envelope could never
    re-derive its own key.  They are never legitimate cell parameters.
    """
    if isinstance(value, dict):
        return {str(k): canonical_params(v) for k, v in sorted(value.items(),
                                                               key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical_params(v) for v in value]
    if hasattr(value, "item") and callable(value.item):    # numpy scalars
        return canonical_params(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        raise TypeError(
            f"parameter value {value!r} is not a finite number; non-finite "
            "floats cannot address a store cell (their canonical JSON and "
            "their persisted form diverge, so the stored envelope could "
            "never re-derive its key)")
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"parameter value {value!r} ({type(value).__name__}) is "
                    "not storable; use JSON-representable scenario parameters")


def store_key(scenario: str, params: Dict[str, object],
              seed: Optional[int], reps: Optional[int],
              version: str = __version__) -> str:
    """SHA-256 content address of one ``(scenario, params, seed, reps)`` cell.

    The digest covers the canonical JSON of the full identity, including
    *version*, so results produced by different releases of the code never
    collide.
    """
    identity = {
        "scenario": scenario,
        "params": canonical_params(dict(params)),
        # seed/reps go through the same canonicalisation as params so that
        # numpy integers (np.int64 from an arange sweep, say) key — and
        # serialize — identically to plain ints.
        "seed": canonical_params(seed),
        "reps": canonical_params(reps),
        "version": version,
    }
    # canonical_params already rejected non-finite floats; allow_nan=False
    # keeps that invariant load-bearing (a bypass fails loudly, not quietly
    # minting a key no stored envelope can re-derive).
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StoreIdentity:
    """One cell's canonical ``(scenario, params, seed, reps)`` and its key."""

    scenario: str
    params: Dict[str, object]
    seed: Optional[int]
    reps: Optional[int]
    key: str


def store_identity(scenario: str, params: Dict[str, object],
                   seed: Optional[int], reps: Optional[int]) -> StoreIdentity:
    """Canonicalise a cell once and key it: what :meth:`ResultStore.put`
    writes under, so a put neither re-canonicalises nor re-hashes."""
    params = canonical_params(dict(params))
    seed, reps = canonical_params(seed), canonical_params(reps)
    return StoreIdentity(scenario, params, seed, reps,
                         store_key(scenario, params, seed, reps))


@dataclass(frozen=True)
class StoreRecord:
    """One stored run: the result plus the metadata that addressed it."""

    key: str
    scenario: str
    params: Dict[str, object]
    seed: Optional[int]
    reps: Optional[int]
    backend: str
    elapsed_seconds: float
    version: str
    created_at: str
    result: ExperimentResult

    def to_envelope(self) -> Dict[str, object]:
        """The full JSON object file, result included."""
        return {
            "format": STORE_FORMAT,
            "key": self.key,
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "reps": self.reps,
            "backend": self.backend,
            "elapsed_seconds": self.elapsed_seconds,
            "version": self.version,
            "created_at": self.created_at,
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_envelope(cls, envelope: Dict[str, object]) -> "StoreRecord":
        return cls(
            key=str(envelope["key"]),
            scenario=str(envelope["scenario"]),
            params=dict(envelope["params"]),
            seed=envelope["seed"],
            reps=envelope["reps"],
            backend=str(envelope["backend"]),
            elapsed_seconds=float(envelope["elapsed_seconds"]),
            version=str(envelope["version"]),
            created_at=str(envelope["created_at"]),
            result=ExperimentResult.from_dict(envelope["result"]),
        )




#: Files the earlier layouts kept beside their objects (index, index lock,
#: shard count); nothing reads them, so migration removes them.
_LEGACY_FILES = ("index.jsonl", "index.jsonl.lock", "sharding.json",
                 "sharding.json.lock")


def _is_bucket(name: str) -> bool:
    """Whether *name* is an ``objects/`` subdirectory of this layout: two
    lowercase hex digits (the earlier layouts used scenario names)."""
    return len(name) == 2 and all(c in "0123456789abcdef" for c in name)


def _listdir(path: str) -> List[str]:
    """``os.listdir``, or nothing when *path* is gone or not a directory."""
    try:
        return os.listdir(path)
    except (FileNotFoundError, NotADirectoryError):
        return []


def _remove_tree(top: str) -> None:
    """Remove the emptied directory tree *top*, bottom up, with the stale
    index and lock files it holds.  A directory that another process
    already removed, or that still holds anything else, is left as it is."""
    for directory, _dirs, files in os.walk(top, topdown=False):
        for name in files:
            if name == "index.jsonl" or name.endswith(".lock"):
                try:
                    os.unlink(os.path.join(directory, name))
                except FileNotFoundError:
                    pass
        try:
            os.rmdir(directory)
        except OSError as exc:
            if exc.errno not in (errno.ENOENT, errno.ENOTEMPTY):
                raise


class ResultStore:
    """Content-addressed artifact directory for experiment results.

    The three-method surface the runner's persistence hook consumes is
    :meth:`identity` / :meth:`get` / :meth:`put`; everything else is inspection
    convenience.  Opening a store writes nothing unless it holds objects
    of an earlier layout (see :meth:`_migrate`), and directories are
    created on first write, so pointing one at a read-only location is
    fine as long as only lookups happen.

    >>> store = ResultStore("reports/store")                # doctest: +SKIP
    >>> runner = ExperimentRunner(seed=7, store=store)      # doctest: +SKIP
    >>> runner.run("table1")   # computed, then written through
    >>> runner.run("table1")   # served from the store, not re-run
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self._objects = os.path.join(self.root, "objects")
        self._migrate()

    def object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.json")

    # ------------------------------------------------------------------ hook surface
    #: The cell's identity and key under the *current* code version.
    identity = staticmethod(store_identity)

    def get(self, key: str) -> Optional[StoreRecord]:
        """Load a stored record by key, or ``None`` when absent."""
        try:
            with open(self.object_path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        return StoreRecord.from_envelope(envelope)

    def put(self, identity: StoreIdentity, *, backend: str,
            elapsed_seconds: float, result: ExperimentResult) -> StoreRecord:
        """Persist one run under *identity* as one atomically written
        object."""
        record = StoreRecord(
            **vars(identity),
            backend=backend,
            elapsed_seconds=float(elapsed_seconds),
            version=__version__,
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            result=result,
        )
        self._write_atomic(self.object_path(record.key), record.to_envelope())
        return record

    # ------------------------------------------------------------------ inspection
    def _object_paths(self) -> Iterator[str]:
        """Every object file's path, sorted (so by key)."""
        for bucket in sorted(filter(_is_bucket, _listdir(self._objects))):
            directory = os.path.join(self._objects, bucket)
            for name in sorted(_listdir(directory)):
                if name.endswith(".json"):
                    yield os.path.join(directory, name)

    def envelopes(self) -> Iterator[Dict[str, object]]:
        """Iterate the full object envelopes (result included), sorted by
        key.  This is the read path of the analytics warehouse ETL
        (:mod:`repro.warehouse`)."""
        for path in self._object_paths():
            with open(path, "r", encoding="utf-8") as handle:
                yield json.load(handle)

    def __len__(self) -> int:
        return sum(1 for _ in self._object_paths())

    # ------------------------------------------------------------------ internals
    def _migrate(self) -> None:
        """Move the objects of the earlier layouts to their place.

        Those are the flat ``objects/<scenario>/<key>.json`` and the sharded
        ``shards/NN/objects/<scenario>/<key>.json``.  Each object moves with
        one ``os.replace``, so a crash leaves it in one place or the other
        and the next open finishes the move; a key held in both layouts
        ends up as one object.  The stale index, lock and shard-count files
        go next, and the emptied directories last, because they are what
        tells an open that a move is due.  A file or directory another
        process moved or removed first is skipped.  With nothing to move,
        this is one ``listdir`` and one ``isdir``, and it writes nothing.
        """
        legacy = [os.path.join(self._objects, name)
                  for name in _listdir(self._objects) if not _is_bucket(name)]
        shards = os.path.join(self.root, "shards")
        if not legacy and not os.path.isdir(shards):
            return
        for shard in _listdir(shards):
            objects = os.path.join(shards, shard, "objects")
            legacy += [os.path.join(objects, name)
                       for name in _listdir(objects)]
        for directory in legacy:
            for name in _listdir(directory):
                if not name.endswith(".json"):
                    continue
                target = self.object_path(name[:-len(".json")])
                os.makedirs(os.path.dirname(target), exist_ok=True)
                try:
                    os.replace(os.path.join(directory, name), target)
                except FileNotFoundError:
                    pass
        for name in _LEGACY_FILES:
            try:
                os.unlink(os.path.join(self.root, name))
            except FileNotFoundError:
                pass
        for directory in [*legacy, shards]:
            _remove_tree(directory)

    @staticmethod
    def _write_atomic(path: str, payload: Dict[str, object]) -> None:
        """One ``write`` of compact JSON to this (process, thread)'s temp
        file in the bucket, then one rename.  The temp name never ends in
        ``.json`` and a stale one is overwritten; a missing bucket is made
        when opening the temp file finds it gone."""
        data = json.dumps(strict_jsonable(payload), sort_keys=True,
                          separators=(",", ":"), allow_nan=False) + "\n"
        directory = os.path.dirname(path)
        tmp = os.path.join(directory,
                           f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            handle = open(tmp, "w", encoding="utf-8")
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
            handle = open(tmp, "w", encoding="utf-8")
        try:
            with handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
