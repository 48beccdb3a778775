"""Durable, atomic file writes shared across the repo.

Every derived artifact the repo persists (perf records, ResultSet
exports, campaign artifacts, memo-cache entries) goes through one of
these helpers instead of a bare ``Path.write_text``.  The contract:

* readers never observe a half-written file — the payload lands in a
  same-directory temp file and is published with ``os.replace``, which
  POSIX guarantees to be atomic;
* with ``fsync=True`` (the default) the payload is flushed to stable
  storage *before* the rename, and the directory entry itself is
  fsynced after it, so a crash straddling the write leaves either the
  complete old file or the complete new file — never a truncated one.

``fsync=False`` keeps the atomicity (rename) but skips the durability
barrier; it is for high-rate writers like the sweep memo cache where a
lost-on-power-cut entry is merely a cache miss.

Append-only JSONL journals (the sweep ledger, the campaign journal, span
streams) are one :class:`JsonlJournal` each: a header line, one fsync'd
line per entry, torn-line-tolerant reads (:func:`read_jsonl`), and a
resume that re-opens through :func:`open_jsonl_append`, which ends a torn
final line first.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "JsonlJournal",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "open_jsonl_append",
    "read_jsonl",
]

PathLike = Union[str, Path]


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss.

    Best-effort: some platforms/filesystems refuse to open or fsync a
    directory, and losing that barrier only risks the *rename* (not a
    torn file), so errors are swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes, *, fsync: bool = True) -> Path:
    """Atomically publish ``data`` at ``path``; return the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # same-directory temp file: os.replace must not cross filesystems
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass
    if fsync:
        _fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: PathLike,
    text: str,
    *,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> Path:
    """Atomically publish ``text`` at ``path``; return the final path."""
    return atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write_json(
    path: PathLike,
    payload: Any,
    *,
    indent: int = 2,
    sort_keys: bool = True,
    fsync: bool = True,
) -> Path:
    """Atomically publish ``payload`` as canonical JSON (newline-terminated)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text, fsync=fsync)


def open_jsonl_append(path: PathLike) -> IO[str]:
    """Open a JSONL journal for appending, ending a torn final line first.

    A kill mid-write leaves a last line without its newline.  Appending
    straight after it would glue the next entry onto the garbage, and a
    reader skipping unparsable lines would lose that entry too.
    """
    path = Path(path)
    torn = False
    try:
        with path.open("rb") as raw:
            if raw.seek(0, os.SEEK_END):
                raw.seek(-1, os.SEEK_END)
                torn = raw.read(1) != b"\n"
    except FileNotFoundError:
        pass
    fh = path.open("a", encoding="utf-8")
    if torn:
        fh.write("\n")
    return fh


def read_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL journal, skipping torn and non-object lines."""
    entries: List[Dict[str, Any]] = []
    with Path(path).open(encoding="utf-8", errors="replace") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # blank, or torn by a hard kill mid-write
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


class JsonlJournal:
    """An append-only JSONL journal: a header line, then one line per entry.

    A fresh journal truncates ``path`` and writes ``header`` (when given)
    as its first line.  ``resume=True`` on an existing file instead reads
    it back — :attr:`header` is its first entry, :attr:`entries` the
    rest — and re-opens it for appending.  Every append is flushed and
    fsync'd, so a hard kill loses at most the lines in flight, which the
    reader skips as torn.
    """

    def __init__(self, path: PathLike, header: Optional[Mapping[str, Any]] = None,
                 *, resume: bool = False):
        self.path = Path(path)
        self.resumed = resume and self.path.exists()
        self.header: Dict[str, Any] = dict(header or {})
        self.entries: List[Dict[str, Any]] = []
        if self.resumed:
            prior = read_jsonl(self.path)
            self.header = prior[0] if prior else {}
            self.entries = prior[1:]
            self._fh = open_jsonl_append(self.path)
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        if header is not None:
            self.append(header)

    def append(self, *entries: Mapping[str, Any]) -> None:
        """Write ``entries`` and make them durable (one fsync) before returning."""
        self._fh.write("".join(
            json.dumps(entry, sort_keys=True, default=repr) + "\n"
            for entry in entries
        ))
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass  # a filesystem without fsync still got the flushed lines

    def close(self) -> None:
        self._fh.close()
