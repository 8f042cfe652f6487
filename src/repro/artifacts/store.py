"""Persistent content-addressed artifact store (numpy-native, mmap).

One artifact = one file under ``<root>/objects/<dd>/<digest>.npk``
holding named numpy arrays plus a small JSON meta dict:

* bytes 0–8: magic ``RPROART1``;
* bytes 8–16: header length ``H`` (uint64 LE);
* bytes 16–16+H: JSON header — meta, array descriptors (name, dtype,
  shape, payload-relative offset, nbytes), payload SHA-256, total file
  size;
* payload: each array's raw bytes at a 64-byte-aligned offset (zero
  padding between), so :func:`numpy.memmap` can map them read-only
  without copying.

Durability conventions follow ``repro.exp.store``: writes go to a
temp file in the same directory and land via :func:`os.replace`
(readers never observe a torn object — concurrent loads keep the old
inode), and an append-only ``index.jsonl`` manifest is healed on
append / skipped-on-corrupt-line on read.  :meth:`ArtifactStore.load`
verifies magic, declared size and payload checksum; anything that
fails verification is quarantined to ``<file>.corrupt`` and reported
as a miss — the store heals or rebuilds, it never serves garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import obs as _obs
from repro.util.validation import require

MAGIC = b"RPROART1"
_HEADER_LEN_BYTES = 8
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass
class Artifact:
    """One loaded (or just-built) artifact: named arrays + meta."""

    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(int(a.nbytes) for a in self.arrays.values())


class ArtifactStore:
    """Digest-addressed persistent artifact directory (the L2 tier)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        require(
            len(digest) >= 8 and all(c in "0123456789abcdef" for c in digest),
            "artifact digest must be a hex fingerprint",
        )
        return self.root / "objects" / digest[:2] / (digest + ".npk")

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    # -- write ---------------------------------------------------------
    def put(
        self,
        digest: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Artifact:
        """Persist arrays under ``digest`` atomically; returns the artifact.

        A concurrent ``put`` of the same digest is harmless: both
        writers produce the same content (digests address content) and
        ``os.replace`` is atomic, so readers see one or the other
        complete file, never a mixture.
        """
        meta = dict(meta or {})
        contiguous = {
            name: np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        descriptors: List[Dict[str, Any]] = []
        payload_hash = hashlib.sha256()
        offset = 0
        for name in contiguous:
            arr = contiguous[name]
            offset = _aligned(offset)
            descriptors.append(
                {
                    "name": name,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                    "offset": offset,
                    "nbytes": int(arr.nbytes),
                }
            )
            payload_hash.update(arr.tobytes())
            offset += int(arr.nbytes)
        header: Dict[str, Any] = {
            "digest": digest,
            "meta": meta,
            "arrays": descriptors,
            "payload_sha256": payload_hash.hexdigest(),
            # Total payload extent including inter-array padding — known
            # before the header is serialized, so truncation shows up as
            # a file-size mismatch on load without a second JSON pass.
            "payload_nbytes": offset,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        payload_start = _aligned(len(MAGIC) + _HEADER_LEN_BYTES + len(blob))

        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (path.name + ".tmp." + str(os.getpid()))
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(blob).to_bytes(_HEADER_LEN_BYTES, "little"))
            fh.write(blob)
            fh.write(b"\x00" * (payload_start - len(MAGIC) - _HEADER_LEN_BYTES - len(blob)))
            position = payload_start
            for desc, name in zip(descriptors, contiguous):
                target = payload_start + desc["offset"]
                if target > position:
                    fh.write(b"\x00" * (target - position))
                    position = target
                fh.write(contiguous[name].tobytes())
                position += desc["nbytes"]
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._index_append(
            {
                "digest": digest,
                "kind": meta.get("kind"),
                "nbytes": offset,
                "arrays": [d["name"] for d in descriptors],
            }
        )
        return Artifact(digest=digest, meta=meta, arrays=dict(contiguous))

    # -- read ----------------------------------------------------------
    def load(self, digest: str, mmap: bool = True) -> Optional[Artifact]:
        """Load an artifact, or ``None`` when absent or unhealthy.

        ``mmap=True`` maps the arrays read-only in place (zero-copy
        reload); ``mmap=False`` reads them into process memory.  The
        payload checksum is always recomputed: a mismatch, short file,
        bad magic or unparseable header quarantines the file and
        returns ``None`` so the caller rebuilds instead of serving
        garbage.
        """
        path = self.path_for(digest)
        try:
            size = path.stat().st_size
        except OSError:
            return None
        try:
            with open(path, "rb") as fh:
                if fh.read(len(MAGIC)) != MAGIC:
                    raise ValueError("bad magic")
                header_len = int.from_bytes(
                    fh.read(_HEADER_LEN_BYTES), "little"
                )
                blob = fh.read(header_len)
                if len(blob) != header_len:
                    raise ValueError("truncated header")
                header = json.loads(blob.decode("utf-8"))
                if header.get("digest") != digest:
                    raise ValueError("digest mismatch")
            payload_start = _aligned(
                len(MAGIC) + _HEADER_LEN_BYTES + header_len
            )
            if payload_start + int(header["payload_nbytes"]) != size:
                raise ValueError("truncated payload")
            arrays: Dict[str, np.ndarray] = {}
            for desc in header["arrays"]:
                arrays[desc["name"]] = np.memmap(
                    path,
                    dtype=np.dtype(desc["dtype"]),
                    mode="r",
                    offset=payload_start + int(desc["offset"]),
                    shape=tuple(desc["shape"]),
                )
            check = hashlib.sha256()
            for arr in arrays.values():
                check.update(arr.tobytes())
            if check.hexdigest() != header["payload_sha256"]:
                raise ValueError("payload checksum mismatch")
            if not mmap:
                arrays = {
                    name: np.array(arr) for name, arr in arrays.items()
                }
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            self._quarantine(path)
            return None
        return Artifact(digest=digest, meta=dict(header["meta"]), arrays=arrays)

    def _quarantine(self, path: Path) -> None:
        """Move a failed-verification file aside (healing: the next
        ``put`` rebuilds a clean object at the canonical path)."""
        _obs.count("artifacts.corrupt")
        try:
            os.replace(path, path.parent / (path.name + ".corrupt"))
        except OSError:
            pass

    # -- index + stats -------------------------------------------------
    def _index_append(self, row: Dict[str, Any]) -> None:
        with open(self.index_path, "ab+") as fh:
            fh.seek(0, 2)
            if fh.tell() > 0:
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(
                (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
            )
            fh.flush()

    def index_rows(self) -> List[Dict[str, Any]]:
        """Parseable manifest rows (torn/corrupt lines skipped)."""
        if not self.index_path.exists():
            return []
        out: List[Dict[str, Any]] = []
        with open(self.index_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict) and "digest" in row:
                    out.append(row)
        return out

    def digests(self) -> List[str]:
        """Digests present on disk (the objects tree is the truth)."""
        return sorted(
            path.stem for path in (self.root / "objects").glob("*/*.npk")
        )

    def stats(self) -> Dict[str, Any]:
        """Counts/bytes by artifact kind — the nightly upload payload."""
        kinds = {row["digest"]: row.get("kind") for row in self.index_rows()}
        present = self.digests()
        by_kind: Dict[str, Dict[str, int]] = {}
        total_bytes = 0
        for digest in present:
            size = self.path_for(digest).stat().st_size
            total_bytes += size
            label = str(kinds.get(digest) or "unknown")
            entry = by_kind.setdefault(label, {"artifacts": 0, "file_bytes": 0})
            entry["artifacts"] += 1
            entry["file_bytes"] += size
        quarantined = len(list((self.root / "objects").glob("*/*.corrupt")))
        return {
            "root": str(self.root),
            "artifacts": len(present),
            "file_bytes": total_bytes,
            "quarantined": quarantined,
            "index_rows": len(kinds),
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
        }
