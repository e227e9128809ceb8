"""Append-only, checksummed record store: bytes in, bytes out.

The simulation cache (:mod:`repro.sim.cache`) keeps every entry here.
A store is a directory of *segment* files, ``seg-<n>.log``.  A process
that writes takes the lowest-numbered segment it can lock with a
non-blocking ``flock`` and is its only writer until it exits, so the
number of segments tracks the peak number of concurrent writers, not
the number of processes ever started.

A record goes out in one ``os.write``::

    magic b"GWr1"                 4 bytes
    key length                    u16
    payload length                u64
    SHA-256 of key and payload    32 bytes
    CRC-32 of the 46 bytes above  u32
    key (UTF-8), payload

A reader keeps an in-memory index, key -> (segment, offset, length).
A miss extends it by scanning only what was appended since the last
scan, and any segment that appeared since; a hit reads the record with
one ``pread`` and checks its CRC and SHA-256.  A failure is a miss or a
lost store, never wrong bytes, and each one counts an event in
:mod:`repro.obs` (``sim.store.<name>`` for each name in
:data:`EVENTS`):

``corrupt``
    a record failed its checksum on read, or a scan met a damaged
    header.  The scan resumes at the next header whose CRC holds, so
    one damaged record hides no other.
``torn``
    a segment ends in part of a record that no live writer is
    appending: its writer died mid-write.  The next writer of the
    segment cuts the part off, so appends start on a record boundary.
``failed_writes``
    an append failed or was short (a full disk).  The segment is cut
    back to its last whole record and the record is lost.

:attr:`RecordStore.bytes_written` counts the bytes a store appended.
It is not a :mod:`repro.obs` counter: a pickle's length depends on
which equal strings are one object, which differs between a pool
worker (its config came unpickled) and the parent, so a total would
differ with the job count.

A segment deleted under a live process (``rm -rf`` of the cache
directory) is never appended to or served from: each read and each
append first checks that the open file still has a link.  A forked
child closes the handles it inherits, so it never appends through its
parent's segment.  Where ``flock`` is not supported, every append
fails and is counted.  Nothing is fsynced.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
import struct
import weakref
import zlib
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs

MAGIC = b"GWr1"

#: The events a store counts, ``sim.store.<name>`` in :mod:`repro.obs`.
EVENTS = ("corrupt", "torn", "failed_writes")

_HEAD = struct.Struct("<4sHQ32s")
_CRC = struct.Struct("<I")
#: Bytes before the key: the fields above and their CRC-32.
_HEADER_SIZE = _HEAD.size + _CRC.size
#: Bytes a scan reads per record: the header and a key of up to 96
#: bytes (sim-cache keys have 64 to 70).
_PEEK = _HEADER_SIZE + 96
#: Bytes read at a time while looking for the next valid header.
_CHUNK = 1 << 20
#: Segment numbers a writer tries before giving up on a store.
_MAX_SEGMENTS = 1024
_SEGMENT_NAME = re.compile(r"seg-\d+\.log\Z")


class _Damaged(Exception):
    """A header whose magic or CRC-32 does not hold."""


def encode(key: str, payload: bytes) -> bytes:
    """One record: header, key and payload."""
    name = key.encode("utf-8")
    digest = hashlib.sha256(name)
    digest.update(payload)
    head = _HEAD.pack(MAGIC, len(name), len(payload), digest.digest())
    return b"".join((head, _CRC.pack(zlib.crc32(head)), name, payload))


def _fields(head: bytes) -> Tuple[int, int, bytes]:
    """Key length, payload length and digest of a header whose magic
    and CRC hold.  Raises :class:`_Damaged`."""
    magic, key_len, payload_len, digest = _HEAD.unpack_from(head)
    (crc,) = _CRC.unpack_from(head, _HEAD.size)
    if magic != MAGIC or zlib.crc32(head[:_HEAD.size]) != crc:
        raise _Damaged
    return key_len, payload_len, digest


def _verified(record: bytes, key: str) -> Optional[bytes]:
    """The payload of a whole record stored under ``key``, or None."""
    if len(record) < _HEADER_SIZE:
        return None
    try:
        key_len, payload_len, digest = _fields(record)
    except _Damaged:
        return None
    key_end = _HEADER_SIZE + key_len
    if key_end + payload_len != len(record):
        return None
    name = record[_HEADER_SIZE:key_end]
    if name != key.encode("utf-8"):
        return None
    payload = record[key_end:]
    check = hashlib.sha256(name)
    check.update(payload)
    return payload if check.digest() == digest else None


def _header(fd: int, offset: int,
            size: int) -> Optional[Tuple[str, int]]:
    """``(key, record length)`` at ``offset``; None if the segment
    ends inside the header or key.  Raises :class:`_Damaged`.

    The CRC is checked before the lengths are trusted, so a damaged
    length never passes for a record cut short.
    """
    if offset + _HEADER_SIZE > size:
        return None
    head = os.pread(fd, _PEEK, offset)
    if len(head) < _HEADER_SIZE:
        return None
    key_len, payload_len, _digest = _fields(head)
    key_end = _HEADER_SIZE + key_len
    if offset + key_end > size:
        return None
    if key_end > len(head):
        head = os.pread(fd, key_end, offset)
        if len(head) < key_end:
            return None
    try:
        return head[_HEADER_SIZE:key_end].decode("utf-8"), \
            key_end + payload_len
    except UnicodeDecodeError:
        raise _Damaged from None


def _resync(fd: int, start: int, size: int) -> Optional[int]:
    """Offset of the first whole header at or after ``start`` whose CRC
    holds, or None.

    A header cut short by the end of the segment does not count: it
    could be the tail of the damaged record's own payload, and a writer
    would then cut the segment inside that record.
    """
    while start < size:
        chunk = os.pread(fd, min(_CHUNK, size - start), start)
        if not chunk:
            return None
        at = chunk.find(MAGIC)
        while at >= 0 and start + at + _HEADER_SIZE <= size:
            try:
                _header(fd, start + at, size)
            except _Damaged:
                at = chunk.find(MAGIC, at + 1)
                continue
            return start + at
        # Overlap the chunks by less than a magic, which may straddle.
        start += max(1, len(chunk) - len(MAGIC) + 1)
    return None


class _Segment:
    """One open segment file and how far this process has indexed it."""

    __slots__ = ("name", "fd", "scanned", "reported", "writer")

    def __init__(self, name: str, fd: int) -> None:
        self.name = name
        self.fd = fd
        #: Offset of the first byte not yet indexed.
        self.scanned = 0
        #: Offsets whose damage (corrupt header, torn tail) is counted.
        self.reported: Set[int] = set()
        #: Whether this process holds the segment's writer lock.
        self.writer = False

    def stat(self) -> Optional[os.stat_result]:
        """The open file's status, or None once it has no link."""
        try:
            status = os.fstat(self.fd)
        except OSError:
            return None
        return status if status.st_nlink else None

    def held_elsewhere(self) -> bool:
        """Whether another open file holds the writer lock.

        Never called on this process's own writer segment: taking a
        shared lock through the writer's descriptor would downgrade
        its exclusive one.
        """
        try:
            fcntl.flock(self.fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
        except OSError:
            return True
        fcntl.flock(self.fd, fcntl.LOCK_UN)
        return False


#: Every store not yet closed, so a forked child can close the
#: descriptors it inherited.
_OPEN: "weakref.WeakSet[RecordStore]" = weakref.WeakSet()


class RecordStore:
    """The records under one directory, read and written by this process.

    Not thread-safe: one store serves one thread of one process.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._segments: Dict[str, _Segment] = {}
        self._index: Dict[str, Tuple[_Segment, int, int]] = {}
        self._writer: Optional[_Segment] = None
        #: Bytes this store has appended.
        self.bytes_written = 0
        # greedwork: ignore[GW601] -- per-process by design: the set
        # only lets a forked child close the handles it inherits.
        _OPEN.add(self)

    def get(self, key: str) -> Optional[bytes]:
        """The payload last stored under ``key``, or None."""
        entry = self._entry(key)
        if entry is None:
            return None
        segment, offset, length = entry
        try:
            record = os.pread(segment.fd, length, offset)
        except OSError:
            record = b""
        payload = _verified(record, key)
        if payload is None:
            del self._index[key]
            obs.add("sim.store.corrupt")
        return payload

    def put(self, key: str, payload: bytes) -> bool:
        """Append ``payload`` under ``key``; False if the write failed."""
        record = encode(key, payload)
        found = self._writable()
        if found is not None:
            segment, start = found
            try:
                written = os.write(segment.fd, record)
            except OSError:
                written = -1
            if written == len(record):
                self._index[key] = (segment, start, written)
                if segment.scanned == start:
                    segment.scanned = start + written
                self.bytes_written += written
                return True
            try:
                os.ftruncate(segment.fd, start)
            except OSError:
                # Let go of the segment: its next writer cuts the tail.
                self._drop(segment)
        obs.add("sim.store.failed_writes")
        return False

    def locate(self, key: str) -> Optional[Tuple[str, int, int]]:
        """``(segment path, offset, length)`` of the record :meth:`get`
        would read for ``key``, or None (for inspection and tests)."""
        entry = self._entry(key)
        if entry is None:
            return None
        segment, offset, length = entry
        return os.path.join(self.directory, segment.name), offset, length

    def keys(self) -> List[str]:
        """Every key with a record, sorted."""
        self._refresh()
        return sorted(self._index)

    def close(self) -> None:
        """Close every handle; a later call reopens what it needs."""
        for segment in self._segments.values():
            try:
                os.close(segment.fd)
            except OSError:
                pass
        self._segments.clear()
        self._index.clear()
        self._writer = None

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading ---------------------------------------------------------

    def _entry(self, key: str) -> Optional[Tuple[_Segment, int, int]]:
        """Where ``key``'s record sits in a linked segment, rescanning
        on a miss."""
        entry = self._index.get(key)
        if entry is None or entry[0].stat() is None:
            self._refresh()
            entry = self._index.get(key)
        return entry

    def _refresh(self) -> None:
        """Forget deleted segments; index what was appended since."""
        for segment in list(self._segments.values()):
            status = segment.stat()
            if status is None:
                self._drop(segment)
            elif status.st_size != segment.scanned:
                self._scan(segment, status.st_size)
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            if name in self._segments or not _SEGMENT_NAME.match(name):
                continue
            try:
                fd = os.open(os.path.join(self.directory, name),
                             os.O_RDONLY)
            except OSError:
                continue
            segment = self._segments[name] = _Segment(name, fd)
            self._scan(segment, os.fstat(fd).st_size)

    def _scan(self, segment: _Segment, size: int) -> None:
        """Index the whole records between ``segment.scanned`` and
        ``size``; count damage met on the way."""
        offset = segment.scanned
        if offset > size:
            # Cut back by hand: forget what lay past the cut, index anew.
            self._index = {key: entry for key, entry in self._index.items()
                           if entry[0] is not segment
                           or entry[1] + entry[2] <= size}
            offset = 0
        while offset < size:
            try:
                found = _header(segment.fd, offset, size)
            except _Damaged:
                self._report(segment, offset, "corrupt")
                resumed = _resync(segment.fd, offset + 1, size)
                if resumed is None:
                    break
                offset = resumed
                continue
            if found is None or offset + found[1] > size:
                break
            key, length = found
            self._index[key] = (segment, offset, length)
            offset += length
        segment.scanned = offset
        # A live writer may be mid-append; otherwise the tail is torn.
        if offset < size and (segment.writer
                              or not segment.held_elsewhere()):
            self._report(segment, offset, "torn")

    @staticmethod
    def _report(segment: _Segment, offset: int, event: str) -> None:
        if offset not in segment.reported:
            segment.reported.add(offset)
            obs.add(f"sim.store.{event}")

    def _drop(self, segment: _Segment) -> None:
        """Close a segment and forget every record indexed in it."""
        try:
            os.close(segment.fd)
        except OSError:
            pass
        if self._segments.get(segment.name) is segment:
            del self._segments[segment.name]
        if self._writer is segment:
            self._writer = None
        self._index = {key: entry for key, entry in self._index.items()
                       if entry[0] is not segment}

    # -- writing ---------------------------------------------------------

    def _writable(self) -> Optional[Tuple[_Segment, int]]:
        """This process's writer segment and its size, or None."""
        segment = self._writer
        if segment is not None:
            status = segment.stat()
            if status is not None:
                return segment, status.st_size
            self._drop(segment)
        return self._acquire()

    def _acquire(self) -> Optional[Tuple[_Segment, int]]:
        """Lock the lowest free segment, index it and cut off any torn
        tail, so the first append starts on a record boundary."""
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError:
            return None
        for number in range(_MAX_SEGMENTS):
            name = f"seg-{number}.log"
            try:
                fd = os.open(os.path.join(self.directory, name),
                             os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            except OSError:
                return None
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                continue
            except OSError:
                os.close(fd)
                return None
            segment = self._adopt(name, fd)
            size = os.fstat(fd).st_size
            self._scan(segment, size)
            if segment.scanned < size:
                try:
                    os.ftruncate(fd, segment.scanned)
                except OSError:
                    self._drop(segment)
                    return None
            return segment, segment.scanned
        return None

    def _adopt(self, name: str, fd: int) -> _Segment:
        """The segment ``name`` as this process's writer, reading
        through ``fd``; an index of the same file is kept."""
        known = self._segments.get(name)
        if known is not None:
            status = known.stat()
            if status is not None \
                    and status.st_ino == os.fstat(fd).st_ino:
                os.close(known.fd)
                known.fd = fd
            else:
                self._drop(known)
                known = None
        segment = known or _Segment(name, fd)
        segment.writer = True
        self._segments[name] = self._writer = segment
        return segment


def _close_inherited() -> None:
    """In a forked child: drop the parent's handles, never its locks
    (closing a shared descriptor leaves a ``flock`` in place)."""
    for store in list(_OPEN):
        store.close()


os.register_at_fork(after_in_child=_close_inherited)
