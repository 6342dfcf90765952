"""Fixed-capacity SPSC ring buffers over POSIX shared memory.

Nothing in the checkers uses this module any more.  It was the transport
of a shared-memory shard executor that never beat the pickle pipe it was
built to replace (the ``"process"`` executor of
:mod:`repro.core.sharded`), and that executor is gone.  The module stays
only because the frozen benchmark ladder imports :class:`ShmRing` and
:func:`shm_available` at module top (``benchmarks/ladder/ladderbench/
rungs.py``, for its ``shm.ring_mb_s`` rung); delete it, with
``tests/test_shm_ring.py``, once the ladder imports it lazily.

A :class:`ShmRing` is one ``multiprocessing.shared_memory`` segment
holding a small header and a byte ring of length-prefixed frames.  A
frame crosses the process boundary as exactly one copy into the ring on
push; the consumer reads it *in place* through a ``memoryview`` slice
and releases the slot afterwards.

Single-producer / single-consumer by construction, which makes the ring
lock-free with plain aligned stores:

- ``head`` (total bytes produced) is written only by the producer,
  ``tail`` (total bytes consumed) only by the consumer; both are
  monotonically increasing u64 counters, so fill = ``head - tail``
  with no modular ambiguity.
- A push writes the payload first and publishes the length-prefixed
  frame by advancing ``head`` *last*; a producer killed mid-push leaves
  ``head`` untouched and the partial frame invisible — torn writes
  cannot be observed (CPython's interpreter lock plus 8-byte aligned
  stores keep the counter update indivisible on every platform the
  checkers target).
- Frames never wrap: when the contiguous space before the ring edge
  cannot hold the next frame, the producer publishes a *wrap marker*
  (length ``0xFFFFFFFF``) and the frame starts at offset 0.  Any frame
  up to :attr:`ShmRing.max_frame` is therefore guaranteed to fit in an
  empty ring regardless of where the previous frame ended.

The header also carries a **heartbeat** word a consumer can increment
(:meth:`ShmRing.beat`) so a producer can tell a frozen consumer from an
idle one.

``multiprocessing.shared_memory`` may be missing or unusable (no
``/dev/shm``, sandboxed platforms): :func:`shm_available` probes once.
"""

from __future__ import annotations

import os
import struct
import time
from typing import Callable, Optional

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - stripped-down builds
    _shared_memory = None  # type: ignore[assignment]

__all__ = ["ShmRing", "shm_available"]

_U64 = struct.Struct("<Q")
_LEN = struct.Struct("<I")

#: Header layout (one u64 per field, 8-byte aligned; data begins at 64).
_OFF_HEAD = 0        # total bytes produced (producer-owned)
_OFF_TAIL = 8        # total bytes consumed (consumer-owned)
_OFF_HEARTBEAT = 16  # consumer loop-iteration counter (consumer-owned)
_OFF_PUSHED = 24     # frames published (producer-owned)
_OFF_POPPED = 32     # frames consumed (consumer-owned)
_OFF_CAPACITY = 40   # ring capacity in bytes (set once at create)
_HEADER_SIZE = 64

#: Length prefix marking "skip to the ring edge, frame starts at 0".
_WRAP = 0xFFFFFFFF

_MIN_CAPACITY = 4096

#: Hot-spin iterations before a blocking wait starts yielding.  Spinning
#: only helps when the peer can make progress *concurrently*; on a
#: single-core host every spin steals the CPU the peer needs, so the
#: wait yields immediately there.
_HOT_SPINS = 64 if (os.cpu_count() or 1) > 1 else 0

_sched_yield = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))

_available: Optional[bool] = None


def shm_available() -> bool:
    """Whether shared-memory segments can actually be created here.

    Probes once per process (creates and unlinks a tiny segment); the
    ring tests and the ladder's ring rung skip on it, so platforms
    without ``/dev/shm`` degrade to a skip instead of a crash.
    """
    global _available
    if _available is None:
        if _shared_memory is None:
            _available = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
            except (OSError, ValueError):
                _available = False
            else:
                try:
                    probe.close()
                    probe.unlink()
                except OSError:  # pragma: no cover - cleanup race
                    pass
                _available = True
    return _available


def _untrack(name: str) -> None:
    """Detach an attached segment from this process's resource tracker.

    The creator owns unlinking; an attach that *registers* makes a
    spawn-mode worker's own tracker unlink (and warn about) the segment
    when the worker exits — the double cleanup the ``track=False``
    parameter of newer Pythons exists to prevent.  Forked workers share
    the parent's tracker instead: there the attach-side register is a
    duplicate-set no-op and must stay, because unregistering would strip
    the create-side entry and make the eventual unlink fail noisily
    inside the tracker process.
    """
    try:  # pragma: no cover - private API, best effort
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) == "fork":
            return
        resource_tracker.unregister(name, "shared_memory")
    except Exception:
        pass


class ShmRing:
    """One SPSC byte ring of length-prefixed frames in shared memory.

    Create with :meth:`create` (owner side, unlinks on
    :meth:`close(unlink=True) <close>`) and :meth:`attach` (peer side).
    The producer calls :meth:`try_push` / :meth:`push`; the consumer
    calls :meth:`try_pop` / :meth:`pop`, decodes the returned
    ``memoryview`` in place, and must call :meth:`consume` before the
    next pop — that releases the view and frees the slot.
    """

    __slots__ = ("_shm", "_buf", "capacity", "_owner", "_pending")

    def __init__(self, shm, capacity: int, owner: bool) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.capacity = capacity
        self._owner = owner
        #: (memoryview, bytes_to_advance) of the frame returned by the
        #: last try_pop and not yet consumed.
        self._pending: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        """Allocate a fresh ring with at least ``capacity`` data bytes."""
        if _shared_memory is None:  # pragma: no cover - stripped builds
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        capacity = max(int(capacity), _MIN_CAPACITY)
        shm = _shared_memory.SharedMemory(create=True, size=_HEADER_SIZE + capacity)
        shm.buf[:_HEADER_SIZE] = b"\x00" * _HEADER_SIZE
        _U64.pack_into(shm.buf, _OFF_CAPACITY, capacity)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Attach to an existing ring by segment name (worker side)."""
        if _shared_memory is None:  # pragma: no cover - stripped builds
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        shm = _shared_memory.SharedMemory(name=name)
        _untrack(shm._name)  # noqa: SLF001 - see _untrack
        capacity = _U64.unpack_from(shm.buf, _OFF_CAPACITY)[0]
        return cls(shm, capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; the owner may also unlink the segment."""
        if self._pending is not None:
            self._pending[0].release()
            self._pending = None
        buf, self._buf = self._buf, None
        if buf is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - leaked view upstream
                pass
        if unlink and self._owner:
            try:
                self._shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def _read(self, offset: int) -> int:
        return _U64.unpack_from(self._buf, offset)[0]

    def _write(self, offset: int, value: int) -> None:
        _U64.pack_into(self._buf, offset, value)

    @property
    def max_frame(self) -> int:
        """Largest payload guaranteed pushable into an empty ring.

        With the wrap-marker scheme a push needs at most
        ``skip + 4 + len`` bytes where the skip is only taken when the
        frame does not fit contiguously; bounding payloads at
        ``capacity // 2 - 8`` makes the worst-case total fit whatever
        offset the previous frame ended at.
        """
        return self.capacity // 2 - 8

    def lag(self) -> int:
        """Unconsumed bytes currently in the ring (producer - consumer)."""
        return self._read(_OFF_HEAD) - self._read(_OFF_TAIL)

    def heartbeat(self) -> int:
        """Consumer loop-iteration counter (see :meth:`beat`)."""
        return self._read(_OFF_HEARTBEAT)

    def beat(self) -> None:
        """Bump the heartbeat — the consumer calls this every loop
        iteration, busy or idle, so a frozen counter means a wedged
        consumer rather than an idle one."""
        _U64.pack_into(self._buf, _OFF_HEARTBEAT, self._read(_OFF_HEARTBEAT) + 1)

    def frames_pushed(self) -> int:
        return self._read(_OFF_PUSHED)

    def frames_popped(self) -> int:
        return self._read(_OFF_POPPED)

    def bytes_pushed(self) -> int:
        """Total payload+framing bytes ever produced into this ring."""
        return self._read(_OFF_HEAD)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def try_push(self, payload) -> bool:
        """Publish one frame if it fits *right now*; never blocks.

        Returns False when the payload exceeds :attr:`max_frame` or the
        ring lacks space.
        """
        buf = self._buf
        length = len(payload)
        if length > self.max_frame:
            return False
        capacity = self.capacity
        head = self._read(_OFF_HEAD)
        tail = self._read(_OFF_TAIL)
        free = capacity - (head - tail)
        need = 4 + length
        position = head % capacity
        contiguous = capacity - position
        if contiguous < need:
            # Frame will not fit before the edge: publish a wrap marker
            # (when there is room for one) and start at offset 0.  The
            # skipped stretch counts as produced bytes until consumed.
            if free < contiguous + need:
                return False
            if contiguous >= 4:
                _LEN.pack_into(buf, _HEADER_SIZE + position, _WRAP)
            head += contiguous
            position = 0
        elif free < need:
            return False
        data_at = _HEADER_SIZE + position
        buf[data_at + 4 : data_at + 4 + length] = payload
        _LEN.pack_into(buf, data_at, length)
        self._write(_OFF_PUSHED, self._read(_OFF_PUSHED) + 1)
        # Publication point: the frame (and any marker) becomes visible
        # to the consumer in this single counter store.
        self._write(_OFF_HEAD, head + need)
        return True

    def push(
        self,
        payload,
        *,
        abort: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> bool:
        """Blocking :meth:`try_push`: spin briefly, then sleep-poll.

        Returns False only when ``abort()`` turns true or ``timeout``
        elapses; oversized payloads raise — waiting would never help.
        """
        if len(payload) > self.max_frame:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds ring max_frame {self.max_frame}"
            )
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        while not self.try_push(payload):
            spins += 1
            if spins < _HOT_SPINS:
                continue
            if abort is not None and spins % 32 == 0 and abort():
                return False
            if deadline is not None and time.monotonic() > deadline:
                return False
            if spins < 2048:
                _sched_yield()
            else:
                time.sleep(0.00005 if spins < 8192 else 0.0005)
        return True

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def try_pop(self) -> Optional[memoryview]:
        """Return the next frame as an in-place ``memoryview``, or None.

        The caller decodes the view and then calls :meth:`consume`; the
        slot is not reusable (and the next frame not poppable) until it
        does.
        """
        if self._pending is not None:
            raise RuntimeError("previous frame not consumed")
        buf = self._buf
        capacity = self.capacity
        head = self._read(_OFF_HEAD)
        tail = self._read(_OFF_TAIL)
        while True:
            if head == tail:
                return None
            position = tail % capacity
            contiguous = capacity - position
            if contiguous < 4:
                # Too narrow even for a marker; both sides skip by rule.
                tail += contiguous
                self._write(_OFF_TAIL, tail)
                continue
            (length,) = _LEN.unpack_from(buf, _HEADER_SIZE + position)
            if length == _WRAP:
                tail += contiguous
                self._write(_OFF_TAIL, tail)
                continue
            data_at = _HEADER_SIZE + position + 4
            view = memoryview(buf)[data_at : data_at + length]
            self._pending = (view, 4 + length)
            return view

    def consume(self) -> None:
        """Release the last popped frame's view and free its slot."""
        pending = self._pending
        if pending is None:
            raise RuntimeError("no pending frame to consume")
        self._pending = None
        view, advance = pending
        view.release()
        self._write(_OFF_POPPED, self._read(_OFF_POPPED) + 1)
        self._write(_OFF_TAIL, self._read(_OFF_TAIL) + advance)

    def pop(
        self,
        *,
        abort: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> Optional[memoryview]:
        """Blocking :meth:`try_pop`: spin briefly, then sleep-poll.

        Returns None when ``abort()`` turns true (e.g. the peer process
        died — the caller must poll that; a dead producer can never
        satisfy the wait) or ``timeout`` elapses.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        while True:
            view = self.try_pop()
            if view is not None:
                return view
            spins += 1
            if spins < _HOT_SPINS:
                continue
            if abort is not None and spins % 32 == 0 and abort():
                return None
            if deadline is not None and time.monotonic() > deadline:
                return None
            if spins < 2048:
                _sched_yield()
            else:
                time.sleep(0.00005 if spins < 8192 else 0.0005)
