"""Content-addressed checkpointing of completed work items.

A :class:`CheckpointStore` persists one file per completed
:class:`~repro.runtime.plan.WorkItem` outcome, keyed by a
content-addressed fingerprint of the item itself (:func:`item_key`) —
the callable's identity, its arguments, its position, its RNG seed.
Rerunning the *same* plan therefore finds the same keys, and the
:class:`~repro.runtime.resumable.ResumableExecutor` can skip every
item whose outcome is already on disk; an item whose inputs changed
hashes differently and is recomputed, no staleness tracking needed.

Layout (all writes are write-to-temp-then-:func:`os.replace`, so a
kill mid-write never leaves a half-visible file)::

    <root>/
      manifest.json        # schema version + key -> {label, sha256}
      objects/<key>.ckpt   # pickled wrapper, integrity-hashed payload

Each object file is a pickled wrapper dict carrying the checkpoint
schema version, its own key, the SHA-256 of the pickled
:class:`~repro.runtime.plan.ItemOutcome` payload, and the payload
bytes.  :meth:`CheckpointStore.load` re-verifies all three, so flipped
bytes, truncation, and schema drift all surface as
:class:`CheckpointCorruptError` — the resumable executor reports the
finding and recomputes just that item.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from typing import Any, Dict, List, Optional

from repro.runtime.plan import ItemOutcome, WorkItem

CHECKPOINT_SCHEMA_VERSION = 1
"""Version of the on-disk checkpoint format.

* **1** — initial format: pickled wrapper dict with ``schema``,
  ``key``, ``sha256`` and ``payload`` fields; JSON manifest with
  ``schema`` and ``items``.

A store written by a different schema version is never silently
reused: every mismatching object is treated as corrupt and recomputed.
"""

MANIFEST_NAME = "manifest.json"
OBJECT_SUFFIX = ".ckpt"

STREAM_STATE_DIRNAME = "stream"
"""Subdirectory of a checkpoint root holding *chunk-granular* replay
state (see :mod:`repro.serve.engine`).  Item-level outcomes live in
``objects/``; stream state is finer-grained scratch that the serving
engine reads and writes itself.  :meth:`CheckpointStore.reset` wipes
both, so a fresh (non ``--resume``) run never sees stale chunks."""

_PICKLE_PROTOCOL = 4  # fixed, so keys are stable across interpreter minors


class CheckpointError(RuntimeError):
    """A checkpoint store that cannot be used (bad manifest, bad dir)."""


class CheckpointCorruptError(CheckpointError):
    """A stored object that fails integrity or schema verification."""


def item_key(item: WorkItem) -> str:
    """Content-addressed fingerprint of one work item.

    Hashes the callable's module-qualified name, the full argument
    payload, the item's position and label, its RNG seed lineage
    (``SeedSequence`` entropy + spawn key), and the telemetry marker.
    Identical plans produce identical keys on every run; any input
    change produces a different key, so a stale checkpoint can never
    shadow fresh work.

    Equilibrium items rely on the argument payload for resume safety:
    their first positional argument is the shard's *sorted*
    content-index tuple (see
    :func:`repro.core.solver.solve_equilibrium_shard`; a per-content
    item is the one-lane tuple), so runs sharded at different widths
    never share a key — ``--resume`` across a grain change recomputes
    rather than replaying the wrong cached result.
    """
    seed = None
    if item.seed is not None:
        seed = (item.seed.entropy, tuple(item.seed.spawn_key))
    payload = (
        getattr(item.fn, "__module__", ""),
        getattr(item.fn, "__qualname__", repr(item.fn)),
        item.args,
        dict(item.kwargs),
        item.index,
        item.label,
        seed,
        item.accepts_telemetry,
    )
    try:
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    except Exception as err:
        raise CheckpointError(
            f"work item {item.label or item.index} is not picklable and "
            f"cannot be checkpointed: {err}"
        ) from err
    return hashlib.sha256(blob).hexdigest()


def stream_state_dir(root: "str | os.PathLike[str]") -> str:
    """The chunk-granular stream-state directory under a checkpoint root."""
    return os.path.join(os.fspath(root), STREAM_STATE_DIRNAME)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write bytes so the file appears complete or not at all."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-ckpt-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Backward-compatible internal alias (the public name is newer).
_atomic_write = atomic_write_bytes


class CheckpointStore:
    """Persist and recall completed work-item outcomes.

    Parameters
    ----------
    root:
        Store directory (created, along with ``objects/``, unless
        ``create=False``).
    create:
        Pass ``False`` to open an existing store read-only-ish; a
        missing directory then raises :class:`CheckpointError`.
    """

    def __init__(self, root: "str | os.PathLike[str]", create: bool = True) -> None:
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        if create:
            os.makedirs(self.objects_dir, exist_ok=True)
        elif not os.path.isdir(self.objects_dir):
            raise CheckpointError(
                f"no checkpoint store at {self.root!r} (missing objects/)"
            )
        self._manifest = self._read_manifest()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _read_manifest(self) -> Dict[str, Any]:
        if not os.path.exists(self.manifest_path):
            return {"schema": CHECKPOINT_SCHEMA_VERSION, "items": {}}
        return self._parse_manifest()

    def _parse_manifest(self) -> Dict[str, Any]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as err:
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path!r} is unreadable: {err}"
            ) from err
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("items"), dict
        ):
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path!r} is malformed "
                "(expected an object with an 'items' mapping)"
            )
        if manifest.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {self.manifest_path!r} has schema "
                f"{manifest.get('schema')!r}; this build writes "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        return manifest

    def validate_manifest(self) -> Dict[str, Any]:
        """Strict manifest check for ``--resume``.

        Raises :class:`CheckpointError` when the manifest is missing,
        unparseable, structurally wrong, or schema-incompatible —
        resuming from a store we cannot trust is refused up front.
        """
        if not os.path.exists(self.manifest_path):
            raise CheckpointError(
                f"no checkpoint manifest at {self.manifest_path!r}; "
                "nothing to resume from"
            )
        self._manifest = self._parse_manifest()
        return self._manifest

    def _write_manifest(self) -> None:
        data = json.dumps(self._manifest, indent=1, sort_keys=True)
        _atomic_write(self.manifest_path, data.encode("utf-8"))

    # ------------------------------------------------------------------
    # Objects
    # ------------------------------------------------------------------
    def object_path(self, key: str) -> str:
        return os.path.join(self.objects_dir, f"{key}{OBJECT_SUFFIX}")

    def contains(self, key: str) -> bool:
        """Whether a completed outcome is recorded *and* present."""
        return key in self._manifest["items"] and os.path.exists(
            self.object_path(key)
        )

    def completed_keys(self) -> List[str]:
        return sorted(self._manifest["items"])

    def __len__(self) -> int:
        return len(self._manifest["items"])

    def save(self, key: str, outcome: ItemOutcome, label: str = "") -> str:
        """Persist one outcome atomically; returns the object path."""
        try:
            payload = pickle.dumps(outcome, protocol=_PICKLE_PROTOCOL)
        except Exception as err:
            raise CheckpointError(
                f"outcome of {label or key} is not picklable: {err}"
            ) from err
        digest = hashlib.sha256(payload).hexdigest()
        wrapper = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "key": key,
            "sha256": digest,
            "payload": payload,
        }
        path = self.object_path(key)
        _atomic_write(path, pickle.dumps(wrapper, protocol=_PICKLE_PROTOCOL))
        self._manifest["items"][key] = {"label": label, "sha256": digest}
        self._write_manifest()
        return path

    def load(self, key: str) -> ItemOutcome:
        """Load and verify one outcome.

        Raises :class:`CheckpointCorruptError` on any integrity
        failure: unreadable or truncated pickle, schema-version
        mismatch, key mismatch (a file renamed into place), or a
        payload whose SHA-256 no longer matches the recorded digest.
        """
        path = self.object_path(key)
        try:
            with open(path, "rb") as handle:
                wrapper = pickle.load(handle)
        except FileNotFoundError:
            raise CheckpointCorruptError(f"checkpoint object {key} is missing")
        except Exception as err:
            raise CheckpointCorruptError(
                f"checkpoint object {key} is unreadable: {err}"
            ) from err
        if not isinstance(wrapper, dict):
            raise CheckpointCorruptError(
                f"checkpoint object {key} has no wrapper record"
            )
        if wrapper.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint object {key} has schema {wrapper.get('schema')!r}; "
                f"this build reads {CHECKPOINT_SCHEMA_VERSION}"
            )
        if wrapper.get("key") != key:
            raise CheckpointCorruptError(
                f"checkpoint object {key} records key {wrapper.get('key')!r}"
            )
        payload = wrapper.get("payload")
        if not isinstance(payload, bytes):
            raise CheckpointCorruptError(f"checkpoint object {key} has no payload")
        if hashlib.sha256(payload).hexdigest() != wrapper.get("sha256"):
            raise CheckpointCorruptError(
                f"checkpoint object {key} fails its integrity hash"
            )
        try:
            outcome = pickle.loads(payload)
        except Exception as err:
            raise CheckpointCorruptError(
                f"checkpoint object {key} payload does not unpickle: {err}"
            ) from err
        if not isinstance(outcome, ItemOutcome):
            raise CheckpointCorruptError(
                f"checkpoint object {key} holds {type(outcome).__name__}, "
                "not an ItemOutcome"
            )
        return outcome

    def discard(self, key: str) -> None:
        """Forget one outcome (used after detecting corruption)."""
        try:
            os.unlink(self.object_path(key))
        except FileNotFoundError:
            pass
        if key in self._manifest["items"]:
            del self._manifest["items"][key]
            self._write_manifest()

    def reset(self) -> None:
        """Drop every stored outcome and start a fresh manifest.

        Also wipes the chunk-granular stream-state directory: a fresh
        run must never fast-forward over another run's chunks.
        """
        shutil.rmtree(self.objects_dir, ignore_errors=True)
        shutil.rmtree(stream_state_dir(self.root), ignore_errors=True)
        try:
            os.unlink(self.manifest_path)
        except FileNotFoundError:
            pass
        os.makedirs(self.objects_dir, exist_ok=True)
        self._manifest = {"schema": CHECKPOINT_SCHEMA_VERSION, "items": {}}

    # ------------------------------------------------------------------
    # Test/fault-injection support
    # ------------------------------------------------------------------
    def corrupt(self, key: str, position: int = -1) -> None:
        """Flip one byte of a stored object (fault-injection helper)."""
        path = self.object_path(key)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        if not data:
            raise CheckpointError(f"checkpoint object {key} is empty")
        data[position] ^= 0xFF
        _atomic_write(path, bytes(data))

    def truncate(self, key: str, keep: Optional[int] = None) -> None:
        """Cut a stored object short (simulates a kill mid-write that
        raced the rename, or disk-level truncation)."""
        path = self.object_path(key)
        with open(path, "rb") as handle:
            data = handle.read()
        keep = len(data) // 2 if keep is None else keep
        _atomic_write(path, data[:keep])
