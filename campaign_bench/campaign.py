"""Process, file-event and journal helpers for the campaign benchmark.

Everything here observes the program from outside: children are
launched through `rvt_cli`, their CPU time and peak RSS come from
wait4(2), event times come from inotify(7) on the directories the
program writes to, and shard journals are decoded by an independent
reader of the on-disk format (64-byte preamble, 32-byte records, each
checksummed with 64-bit FNV-1a).
"""

import ctypes
import os
import select
import signal
import struct
import subprocess
import time

# ---------------------------------------------------------------- journals

_WIRE_MAGIC = 0x52565457  # "RVTW"
_KIND_JOURNAL = 3
_RECORD_MAGIC = 0x52565452  # "RVTR"
_TYPE_RESULT = 1
_TYPE_DONE = 2
_PREAMBLE = struct.Struct("<IHH7Q")  # ids, fingerprint, begin, end, checksum
_RECORD = struct.Struct("<IIQQQ")
PREAMBLE_BYTES = 64
RECORD_BYTES = 32
_MASK64 = (1 << 64) - 1


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class JournalError(Exception):
    pass


def read_journal(path):
    """Returns (begin, end, {index: value}) of a sealed journal.

    Raises JournalError unless the preamble and every record carry
    valid checksums, the records cover [begin, end) in order, and the
    sealing record's total equals the sum of the records.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < PREAMBLE_BYTES:
        raise JournalError(f"{path}: shorter than its preamble")
    fields = _PREAMBLE.unpack_from(data, 0)
    magic, _version, kind = fields[0], fields[1], fields[2]
    begin, end, pre_sum = fields[7], fields[8], fields[9]
    if magic != _WIRE_MAGIC or kind != _KIND_JOURNAL:
        raise JournalError(f"{path}: not a shard journal")
    if pre_sum != fnv1a64(data[: PREAMBLE_BYTES - 8]):
        raise JournalError(f"{path}: preamble checksum mismatch")
    values = {}
    total = None
    expect = begin
    for off in range(PREAMBLE_BYTES, len(data), RECORD_BYTES):
        if off + RECORD_BYTES > len(data):
            raise JournalError(f"{path}: torn record at byte {off}")
        rmagic, rtype, index, value, rsum = _RECORD.unpack_from(data, off)
        if rmagic != _RECORD_MAGIC or rsum != fnv1a64(
            data[off : off + RECORD_BYTES - 8]
        ):
            raise JournalError(f"{path}: bad record at byte {off}")
        if total is not None:
            raise JournalError(f"{path}: record after the seal")
        if rtype == _TYPE_RESULT:
            if index != expect:
                raise JournalError(f"{path}: index {index}, expected {expect}")
            values[index] = value
            expect += 1
        elif rtype == _TYPE_DONE:
            total = value
        else:
            raise JournalError(f"{path}: unknown record type {rtype}")
    if total is None or expect != end:
        raise JournalError(f"{path}: not sealed over [{begin}, {end})")
    if total != sum(values.values()):
        raise JournalError(f"{path}: seal {total} != sum of records")
    return begin, end, values


def read_journal_dir(directory, count):
    """Per-index values of every sealed journal in `directory`, as a list
    covering [0, count) exactly once."""
    merged = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("shard-") and name.endswith(".journal")):
            continue
        _, _, values = read_journal(os.path.join(directory, name))
        if merged.keys() & values.keys():
            raise JournalError(f"{directory}: overlapping shards")
        merged.update(values)
    if sorted(merged) != list(range(count)):
        raise JournalError(
            f"{directory}: journals cover {len(merged)} of {count} indices"
        )
    return [merged[i] for i in range(count)]


def rewrite_record(path, index, delta):
    """Adds `delta` to the committed value of `index` in a journal and
    re-signs the record, leaving every checksum valid. Used only by the
    negative test, to show the benchmark's own checks see such a change."""
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        for off in range(PREAMBLE_BYTES, len(data), RECORD_BYTES):
            rmagic, rtype, idx, value, _ = _RECORD.unpack_from(data, off)
            if rtype == _TYPE_RESULT and idx == index:
                head = struct.pack("<IIQQ", rmagic, rtype, idx, value + delta)
                data[off : off + RECORD_BYTES] = head + struct.pack(
                    "<Q", fnv1a64(head)
                )
                f.seek(0)
                f.write(data)
                return
    raise JournalError(f"{path}: index {index} not found")


# ----------------------------------------------------------------- inotify

IN_MODIFY = 0x002
IN_MOVED_TO = 0x080
IN_CREATE = 0x100
_EVENT = struct.Struct("iIII")
_libc = ctypes.CDLL(None, use_errno=True)


class DirWatch:
    """inotify watches on a few directories; read() returns the events
    that have arrived as (directory, file name, mask) tuples."""

    def __init__(self, directories):
        self.fd = _libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1")
        self.dirs = {}
        for d in directories:
            wd = _libc.inotify_add_watch(
                self.fd, os.fsencode(d), IN_CREATE | IN_MODIFY | IN_MOVED_TO
            )
            if wd < 0:
                raise OSError(ctypes.get_errno(), f"inotify_add_watch {d}")
            self.dirs[wd] = d

    def read(self):
        out = []
        try:
            buf = os.read(self.fd, 65536)
        except BlockingIOError:
            return out
        off = 0
        while off < len(buf):
            wd, mask, _cookie, length = _EVENT.unpack_from(buf, off)
            name = buf[off + 16 : off + 16 + length].rstrip(b"\0").decode()
            out.append((self.dirs.get(wd), name, mask))
            off += 16 + length
        return out

    def close(self):
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


# --------------------------------------------------------------- processes


class Child:
    """One launched program: its exit status and resource use come from
    wait4(2); a pidfd makes its exit pollable alongside file events."""

    def __init__(self, argv, stdout_path, env=None):
        self.argv = argv
        self.stdout_path = stdout_path
        with open(stdout_path, "wb") as out:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=env
            )
        self.pidfd = os.pidfd_open(self.proc.pid)
        self.returncode = None
        self.cpu_s = 0.0
        self.maxrss_kib = 0

    def reap(self):
        """Waits for the exit and collects its status and resource use."""
        if self.returncode is not None:
            return
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_kib = ru.ru_maxrss
        os.close(self.pidfd)

    def wait(self, timeout):
        """Reaps within `timeout` seconds, else kills and reaps."""
        ready, _, _ = select.select([self.pidfd], [], [], timeout)
        if not ready:
            self.kill()
        self.reap()

    def kill(self):
        # os.kill, not Popen.send_signal: the latter polls, which could
        # reap the child and lose the resource use wait4 reports. Until
        # reap() the pid is held by the (possibly exited) child.
        if self.returncode is None:
            os.kill(self.proc.pid, signal.SIGKILL)

    def output(self):
        with open(self.stdout_path, "r", errors="replace") as f:
            return f.read()


def now():
    return time.perf_counter()
