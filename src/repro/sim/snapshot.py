"""Versioned, deterministic serialize/restore for whole machine states.

A machine image is a cleartext JSON header followed by a stock
:mod:`pickle` of the object graph. That works because the simulator's
live state is ordinary data: every *continuation* it stores (event-heap
entries, MSHR callbacks, forward-op waiters, NoC receivers, oracle
wrappers) is a bound method or a :func:`functools.partial` over one,
which :mod:`pickle` serializes by name with identity and cycles intact.
A nested function or lambda that reaches an image is refused at
:func:`dumps` time with a :class:`SnapshotError` naming it
(``copy.deepcopy`` would silently *share* it with the original system).

Methods are resolved by name, so an image is only meaningful to the
exact code that wrote it. Every image therefore carries a header with a
**format version** and a **source fingerprint** (SHA-256 over every
``repro`` source file plus the Python/NumPy versions); :func:`loads`
refuses mismatches loudly instead of letting silent drift corrupt a
restored run.

Nothing process-global is captured: ids that order in-flight objects
(the NoC's flit age sequence) are fields of the machine, and large
re-derivable inputs (per-core trace lists) are left out by their owner's
``__getstate__`` and re-attached by the caller (``CmpSystem.restore``,
digest-verified).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
import sys
from typing import Any, Dict, Optional, Tuple

from repro.errors import SnapshotError

#: bump when the image layout changes shape (2: plain pickle payload,
#: no id-source positions in the header)
SNAPSHOT_FORMAT = 2

_MAGIC = b"RSNAP1"
_HEADER_LEN = struct.Struct(">I")


# ----------------------------------------------------------------------
# source fingerprint
# ----------------------------------------------------------------------
_fingerprint_cache: Optional[str] = None


def source_fingerprint() -> str:
    """Digest of every ``repro`` source file + interpreter versions.

    Restoring an image produced by different source is refused: the
    image's continuations reference methods by name and its objects
    carry the writer's attribute layout, so *any* edit could silently
    splice the wrong behaviour into a restored machine. Failing the
    restore is the feature.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import pathlib

        import numpy

        import repro

        root = pathlib.Path(repro.__file__).parent
        h = hashlib.sha256()
        h.update(f"py{sys.version_info[0]}.{sys.version_info[1]}|"
                 f"np{numpy.__version__}".encode())
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _fingerprint_cache = h.hexdigest()[:32]
    return _fingerprint_cache


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def dumps(obj: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize ``obj`` (and everything reachable from it) to an image.

    ``meta`` is caller metadata kept in the cleartext JSON header,
    readable without unpickling via :func:`read_meta`.
    """
    header = {
        "format": SNAPSHOT_FORMAT,
        "fingerprint": source_fingerprint(),
        "meta": meta or {},
    }
    header_blob = json.dumps(header, sort_keys=True).encode()
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # e.g. "Can't pickle local object 'f.<locals>.g'": a closure
        # was stored where a bound method or partial belongs
        raise SnapshotError(f"state is not snapshottable: {exc}") from exc
    return (_MAGIC + _HEADER_LEN.pack(len(header_blob)) + header_blob
            + payload)


def _split(blob: bytes) -> Tuple[Dict[str, Any], bytes]:
    if len(blob) < len(_MAGIC) + _HEADER_LEN.size \
            or not blob.startswith(_MAGIC):
        raise SnapshotError("not a snapshot image (bad magic)")
    off = len(_MAGIC)
    (hlen,) = _HEADER_LEN.unpack_from(blob, off)
    off += _HEADER_LEN.size
    if off + hlen > len(blob):
        raise SnapshotError("truncated snapshot image (header)")
    try:
        header = json.loads(blob[off:off + hlen])
    except ValueError as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
    return header, blob[off + hlen:]


def read_meta(blob: bytes) -> Dict[str, Any]:
    """The caller metadata of an image, without restoring anything."""
    header, _payload = _split(blob)
    return dict(header.get("meta", {}))


def loads(blob: bytes) -> Any:
    """Restore an image produced by :func:`dumps`.

    Verifies format version and source fingerprint first (raising
    :class:`SnapshotError` on any mismatch), then rebuilds the object
    graph.
    """
    header, payload = _split(blob)
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot format {header.get('format')!r} != supported "
            f"{SNAPSHOT_FORMAT} — image written by an incompatible "
            f"version")
    if header.get("fingerprint") != source_fingerprint():
        raise SnapshotError(
            "snapshot source fingerprint mismatch — the image was "
            "written by different repro sources (or another "
            "Python/NumPy); rebuild it instead of restoring blindly")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # unpickling failures are all corruption
        raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc


def save_file(path: str, blob: bytes) -> None:
    """Write an image atomically (concurrent writers may share a dir).

    The temp name comes from ``mkstemp``, so it is unique per *writer*,
    not per process — two threads (service worker + a local sweep) or
    two processes racing to build the same image each write their own
    private file and the last ``os.replace`` wins with a complete blob.
    A reader can never observe a torn image; a writer killed mid-write
    leaves only a stray ``.tmp-*`` file, never a corrupt final one.
    """
    import os
    import tempfile

    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        # mkstemp creates 0600; published images must stay readable by
        # other users of a shared cache directory (multi-host fleets)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
