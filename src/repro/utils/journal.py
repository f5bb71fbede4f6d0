"""Append-only JSONL journals that survive kills and full disks: the
one statement of the discipline shared by the partition cache
(:class:`repro.serve.cache.PartitionCache`) and the sweep checkpoint
(:class:`repro.eval.sweep.SweepCheckpoint`).

* **Format.**  Line 1 is a plain JSON header naming the journal kind
  and format version, so any release can tell an old journal from a
  foreign one.  Every further line is one entry: the CRC32
  (:func:`zlib.crc32`) of its JSON payload as eight hex digits, a
  space, the payload::

      {"partition_cache": 2}
      37daa26b {"key": "k1", "result": {"volume": 13}}

* **Replay** keeps the valid prefix: it stops at the first line that
  is not newline-terminated, fails its checksum, is not JSON, or that
  the caller's ``decode`` rejects.  A CRC32 detects every single-byte
  flip, so a damaged entry ends the prefix instead of replaying wrong.
* **Appends.**  :meth:`Journal.open` replays, then truncates the torn
  tail — so the first append starts on a clean line — and writes the
  header into an empty file.  :meth:`Journal.append` writes one line
  with write + flush + ``fsync``: a SIGKILL loses at most the entry
  being written.  :meth:`Journal.compact` rewrites atomically (tmp +
  fsync + ``os.replace``).
* **Disk pressure.**  An ``OSError`` anywhere degrades the journal for
  the rest of the process: the handle closes, :attr:`Journal.error`
  records one ``<Kind>WriteError[ERRNO]`` brief and one line goes to
  stderr.  It never reopens — a disk that just filled will fill again.
  The journal's fault point fires inside that guard before every line
  written, the header included.

What a header means stays with the caller, who either refuses an
unusable one (the checkpoint) or has it moved aside to
``<path>.corrupt`` and starts cold (the cache).
"""

from __future__ import annotations

import contextlib
import errno as _errno
import json
import os
import sys
import zlib
from pathlib import Path
from typing import Callable, Iterable

from repro.utils import faults

__all__ = ["Journal", "encode_line", "replay"]


def encode_line(obj) -> bytes:
    """One entry line: CRC32 of the JSON payload, a space, the payload."""
    payload = json.dumps(obj).encode()
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def replay(raw: bytes, decode: Callable) -> tuple:
    """``(header, entries, valid)``: line 1 if it is a newline-terminated
    JSON object (else ``None``), the valid prefix's entries mapped
    through ``decode`` (a line failing its checksum, or whose ``decode``
    raises ``ValueError``, ``LookupError`` or ``TypeError``, is the torn
    point), and the prefix's length in bytes.
    """
    first, newline, rest = raw.partition(b"\n")
    try:
        header = json.loads(first)
    except ValueError:
        header = None
    if not newline or not isinstance(header, dict):
        return None, [], 0
    entries, valid = [], len(first) + 1
    # The split's last slot is b"" after a final newline, else torn.
    for line in rest.split(b"\n")[:-1]:
        payload = line[9:]
        if line[:9] != b"%08x " % zlib.crc32(payload):
            break
        try:
            entries.append(decode(json.loads(payload)))
        except (ValueError, LookupError, TypeError):
            break
        valid += len(line) + 1
    return header, entries, valid


class Journal:
    """One journal file; see the module docstring for the discipline.

    ``fault`` is the fault point fired before each line written and
    ``error`` the brief's kind (``"CacheWriteError"``).
    """

    def __init__(self, path, header: dict, *, fault: str, error: str):
        self.path = Path(path)
        self.header = header
        self._head = json.dumps(header).encode() + b"\n"
        self._fault = fault
        self._kind = error
        #: One brief (``"CacheWriteError[ENOSPC]"``) once degraded.
        self.error: str | None = None
        self._fh = None

    @contextlib.contextmanager
    def _guard(self):
        try:
            yield
        except OSError as exc:
            self.close()
            name = _errno.errorcode.get(exc.errno, "OSError")
            self.error = f"{self._kind}[{name}]"
            print(f"repro: journal {self.path} degraded to read-only "
                  f"({name}: {exc}); continuing unjournaled",
                  file=sys.stderr)

    def open(self, decode: Callable, accept: Callable) -> list:
        """Replay, then open for appending; returns the valid entries.

        ``accept(header)`` judges line 1 as :func:`replay` reads it (an
        empty file, or a torn copy of ``self.header``, has
        ``self.header``) before anything on disk is touched; it may
        raise, and when it returns false the file is moved aside to
        ``<path>.corrupt`` and the journal starts empty.
        """
        raw, head = b"", self._head
        with self._guard():
            raw = self.path.read_bytes() if self.path.exists() else b""
        # A strict prefix of our own header is what a kill during the
        # first write leaves: a torn tail like any other.
        header, entries, valid = (
            (self.header, [], 0) if raw != head and head.startswith(raw)
            else replay(raw, decode)
        )
        if not accept(header):
            corrupt = self.path.with_name(self.path.name + ".corrupt")
            with self._guard():
                os.replace(self.path, corrupt)
            raw, entries = b"", []
        if self.error is None:
            with self._guard():
                if valid < len(raw):
                    os.truncate(self.path, valid)
                self._fh = open(self.path, "ab")
                if self._fh.tell() == 0:
                    self._write(head)
        return entries

    def _write(self, line: bytes) -> None:
        faults.fault_point(self._fault)
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, obj) -> None:
        """Journal one entry, flushed and fsynced (no-op once degraded)."""
        if self._fh is not None:
            with self._guard():
                self._write(encode_line(obj))

    def compact(self, entries: Iterable) -> None:
        """Atomically rewrite the file as the header plus ``entries``."""
        if self._fh is None:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        with self._guard():
            with open(tmp, "wb") as fh:
                fh.write(self._head)
                fh.writelines(encode_line(obj) for obj in entries)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "ab")

    def close(self) -> None:
        """Close the file handle (idempotent; entries stay on disk)."""
        if self._fh is not None:
            with contextlib.suppress(OSError):  # close on a full disk
                self._fh.close()
            self._fh = None
