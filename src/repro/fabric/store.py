"""On-disk store plumbing, and the fabric's artifact store.

Every persistent store in the repo — this module's :class:`ArtifactStore`
and the figure harness's trace cache — shares one discipline, implemented
once here by :class:`FramedStore`:

* **Integrity framing** — each entry is ``RDTC<version>\\n`` + a truncated
  sha256 of the payload + the payload (:func:`frame_payload`), so
  truncation, bit rot and foreign files are detected on read.
* **Atomic writes** — write-temp-fsync-rename (:func:`write_atomic`), so
  concurrent writers can share one root and a reader sees either the old
  or the new entry.
* **Quarantine** — an entry that fails verification moves to
  ``<root>/quarantine/`` and reads as a miss, so the caller recomputes it
  instead of serving garbage.

Artifacts live one file per task result under ``<root>/artifacts/``,
named by the task's content-addressed key; payloads are canonical JSON.
Unlike the trace cache, artifacts are keyed by task *parameters*, not by
content digests of the inputs — so a stale store could serve results
computed by an older build.  The store is therefore **opt-in**: set
``REPRO_FABRIC_STORE`` to a directory (or to ``1``/``on``/``auto`` for a
``fabric/`` subdirectory of the trace-cache root) to enable cross-campaign
dedupe, and ``repro-cli fabric gc --all`` after upgrading the simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.errors import CacheCorruptionError
from repro.telemetry import get_logger
from repro.telemetry import registry as _telemetry

logger = get_logger(__name__)

#: Bump when the artifact payload layout changes.
STORE_SCHEMA = 1

_ENV_VAR = "REPRO_FABRIC_STORE"
_CACHE_ENV_VAR = "REPRO_TRACE_CACHE"
_DISABLED_VALUES = ("0", "off", "none", "no", "false")
_ENABLED_VALUES = ("1", "on", "yes", "true", "auto")

#: Truncated sha256 length — 64 bits of integrity is plenty for rot
#: detection (this is not an authentication boundary).
_DIGEST_BYTES = 16


class CacheError(CacheCorruptionError, RuntimeError):
    """Raised for malformed payloads (callers treat it as a miss).

    Part of the :mod:`repro.errors` taxonomy; keeps its historical
    ``RuntimeError`` base for existing ``except`` clauses.
    """


# ----------------------------------------------------------------------
# Integrity framing, atomic writes
# ----------------------------------------------------------------------
def _magic(version: int) -> bytes:
    return b"RDTC%d\n" % version


def frame_payload(payload: bytes, version: int) -> bytes:
    """Wrap payload bytes with the ``version`` magic and their digest."""
    return (_magic(version) + hashlib.sha256(payload).digest()[:_DIGEST_BYTES]
            + payload)


def unframe_payload(data: bytes, version: int) -> bytes:
    """Verify and strip the integrity frame; raises :class:`CacheError`."""
    magic = _magic(version)
    header = len(magic) + _DIGEST_BYTES
    if len(data) < header or not data.startswith(magic):
        raise CacheError("cache entry has no integrity header")
    digest = data[len(magic):header]
    payload = data[header:]
    if hashlib.sha256(payload).digest()[:_DIGEST_BYTES] != digest:
        raise CacheError("cache entry failed its content digest")
    return payload


def frame_version(path: Path) -> Optional[int]:
    """Version baked into an entry's ``RDTC<n>`` magic.

    Returns ``None`` (never raises) for unreadable, truncated, or
    foreign files, so maintenance commands can walk a shared directory
    safely.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
    except OSError:
        return None
    if not head.startswith(b"RDTC"):
        return None
    end = head.find(b"\n", 4)
    if end < 0:
        return None
    try:
        return int(head[4:end])
    except ValueError:
        return None


def write_atomic(path: Path, data: bytes):
    """Write-temp-fsync-rename ``data`` to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


class FramedStore:
    """Framed entries under one root, with a shared quarantine directory.

    Subclasses set the frame version, the noun their log lines use for an
    entry, and the counter that tallies quarantined entries.
    """

    FRAME_VERSION: int
    ENTRY: str
    QUARANTINE_COUNTER: str

    def __init__(self, root):
        self.root = Path(root)
        self._quarantine_dir = self.root / "quarantine"

    def write_framed(self, path: Path, payload: bytes):
        write_atomic(path, frame_payload(payload, self.FRAME_VERSION))

    def read_framed(self, path: Path) -> Optional[bytes]:
        """A verified entry's payload; ``None`` when absent or corrupt
        (corrupt entries are quarantined)."""
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return unframe_payload(data, self.FRAME_VERSION)
        except CacheError as exc:
            self.quarantine(path, exc)
            return None

    def quarantine(self, path: Path, reason):
        """Move a corrupt entry aside so the next lookup recomputes it."""
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
            _telemetry.counter(self.QUARANTINE_COUNTER).inc()
            logger.warning(
                "quarantined corrupt %s %s (%s); it will be recomputed",
                self.ENTRY, path.name, reason,
            )
        except OSError:
            # Quarantine dir unwritable / entry raced away: best effort —
            # just drop the entry so it cannot be served again.
            try:
                path.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# The artifact store
# ----------------------------------------------------------------------
class ArtifactStore(FramedStore):
    """Content-addressed result store under one root directory."""

    FRAME_VERSION = STORE_SCHEMA
    ENTRY = "fabric artifact"
    QUARANTINE_COUNTER = "fabric.store.quarantined"

    def __init__(self, root):
        super().__init__(root)
        self._artifacts = self.root / "artifacts"

    def path(self, key: str) -> Path:
        return self._artifacts / f"{key}.json"

    def get(self, key: str):
        """The stored result for ``key``, or ``None`` on miss/corruption."""
        path = self.path(key)
        data = self.read_framed(path)
        if data is not None:
            try:
                payload = json.loads(data.decode("utf-8"))
                if payload.get("schema") != STORE_SCHEMA:
                    raise CacheCorruptionError(
                        f"artifact schema {payload.get('schema')!r}; this "
                        f"build writes {STORE_SCHEMA}"
                    )
                result = payload["result"]
            except (CacheCorruptionError, ValueError, KeyError,
                    UnicodeDecodeError) as exc:
                self.quarantine(path, exc)
            else:
                _telemetry.counter("fabric.store.hits").inc()
                return result
        _telemetry.counter("fabric.store.misses").inc()
        return None

    def put(self, key: str, result):
        """Persist one task result (canonical JSON, framed, atomic)."""
        payload = json.dumps(
            {"schema": STORE_SCHEMA, "key": key, "result": result},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        self.write_framed(self.path(key), payload)
        _telemetry.counter("fabric.store.stores").inc()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = {"root": str(self.root), "schema_version": STORE_SCHEMA}
        for kind, directory in (("artifacts", self._artifacts),
                                ("quarantined", self._quarantine_dir)):
            count = 0
            size = 0
            if directory.is_dir():
                for entry in directory.iterdir():
                    if entry.is_file():
                        count += 1
                        size += entry.stat().st_size
            out[kind] = {"entries": count, "bytes": size}
        return out

    def gc(self, everything: bool = False) -> int:
        """Delete quarantined entries (and, with ``everything``, all
        artifacts); returns the number of files removed."""
        removed = 0
        directories = [self._quarantine_dir]
        if everything:
            directories.append(self._artifacts)
        for directory in directories:
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                if not entry.is_file():
                    continue
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def default_cache_root() -> Optional[Path]:
    """Resolve the trace-cache root from ``REPRO_TRACE_CACHE`` / XDG
    defaults.

    Returns ``None`` when caching is disabled.
    """
    value = os.environ.get(_CACHE_ENV_VAR)
    if value is not None:
        if value.strip().lower() in _DISABLED_VALUES or not value.strip():
            return None
        return Path(value).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-dise"


def default_store_root() -> Optional[Path]:
    """Resolve the store root from ``REPRO_FABRIC_STORE``.

    Returns ``None`` when the store is disabled — which is the default:
    dedupe keys are task parameters, so persistence across builds is an
    explicit user decision, not ambient state.
    """
    value = os.environ.get(_ENV_VAR)
    if value is None:
        return None
    value = value.strip()
    if not value or value.lower() in _DISABLED_VALUES:
        return None
    if value.lower() in _ENABLED_VALUES:
        cache_root = default_cache_root()
        return cache_root / "fabric" if cache_root is not None else None
    return Path(value).expanduser()


def resolve_store(store="auto") -> Optional[ArtifactStore]:
    """Normalise a store argument to an :class:`ArtifactStore` or ``None``.

    ``"auto"`` honours the environment (see :func:`default_store_root`);
    ``None``/``False`` disables; a path-like opens that directory; an
    :class:`ArtifactStore` passes through.
    """
    if store is None or store is False:
        return None
    if isinstance(store, ArtifactStore):
        return store
    if store == "auto":
        root = default_store_root()
        return ArtifactStore(root) if root is not None else None
    return ArtifactStore(store)
