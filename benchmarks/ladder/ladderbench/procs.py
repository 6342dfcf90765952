"""Subprocess hygiene: pinned spawns, hard timeouts, guaranteed reaping.

Every child the benchmark starts goes through this module, so a hung
daemon fails the run within a bounded time and nothing outlives it.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ladderbench import hostspeed

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_DIR = REPO_ROOT / "src"
#: Upper bound on any single child: spawn, run, or shutdown.
HARD_TIMEOUT = 60.0
#: How often a running one-shot child's peak RSS is read.
RSS_POLL = 0.01
_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cpu_plan() -> Tuple[Optional[int], Optional[int]]:
    """``(generator cpu, system-under-test cpu)``; ``None`` where the
    platform has no affinity control.  With one CPU they coincide."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin(cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def spawn_on(cpu: Optional[int], argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """``Popen`` with the child pinned to ``cpu``.

    Affinity is inherited, so the calling thread hops onto ``cpu`` for
    the fork and back — no ``preexec_fn``, safe with threads running.
    """
    if cpu is None:
        return subprocess.Popen(argv, **kwargs)
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(argv, **kwargs)
    finally:
        os.sched_setaffinity(0, mine)


def peak_rss_mb(pid: int) -> Optional[float]:
    """A live child's own peak resident set (``VmHWM``), in MB.

    Not ``ru_maxrss`` from ``wait4``: Linux starts a child's high-water
    mark at the resident set of the process that forked it, and this
    process holds ~100 MB of inputs, so every child under that size read
    as exactly the benchmark's own footprint.  ``VmHWM`` belongs to the
    address space the child got at ``exec``.  None once the child has
    released it (or where there is no ``/proc``).
    """
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _wait4(proc: subprocess.Popen, timeout: float) -> Optional[float]:
    """Poll ``wait4`` for up to ``timeout``; ``ru_maxrss`` in MB once exited
    (an upper bound on the child's peak, see :func:`peak_rss_mb`)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
            return usage.ru_maxrss / 1024.0
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.005)


def reap(proc: subprocess.Popen, *, grace: float = 5.0) -> Tuple[int, float]:
    """Wait ``grace`` seconds for ``proc``, then SIGTERM, then SIGKILL.

    Returns ``(exit status, ru_maxrss in MB)`` from ``os.wait4``.
    """
    for escalate in (proc.terminate, proc.kill):
        rss = _wait4(proc, grace)
        if rss is not None:
            return proc.returncode, rss
        escalate()
    rss = _wait4(proc, 5.0)
    if rss is None:
        raise RuntimeError(f"pid {proc.pid} survived SIGKILL")
    return proc.returncode, rss


def run_child(
    cpu: Optional[int], argv: Sequence[str], *, timeout: float = HARD_TIMEOUT
) -> Tuple[int, str, float, float, float]:
    """Run a child to completion on ``cpu``.

    Returns ``(exit status, stdout, peak RSS MB, t_spawn, t_exit)``; the
    times are ``time.monotonic()`` readings around spawn and stdout EOF.
    The peak is the child's ``VmHWM`` as last seen while it ran, polled
    every ``RSS_POLL`` seconds from this (other) CPU; ``ru_maxrss`` only
    where that could not be read.
    """
    t0 = time.monotonic()
    proc = spawn_on(
        cpu, argv, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    chunks: List[bytes] = []
    peak: Optional[float] = None
    try:
        while True:
            remaining = t0 + timeout - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{list(argv[:4])} exceeded {timeout:.0f}s")
            readable = select.select([proc.stdout], [], [], min(remaining, RSS_POLL))[0]
            peak = peak_rss_mb(proc.pid) or peak
            if readable:
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        code, rss = reap(proc, grace=max(t0 + timeout - time.monotonic(), 0.0))
        t1 = time.monotonic()
        rss = peak or rss
    except BaseException:
        reap(proc, grace=0.0)
        raise
    return code, b"".join(chunks).decode(), rss, t0, t1


class Daemon:
    """One ``python -m repro serve`` subprocess on an OS-chosen port."""

    def __init__(self, cpu: Optional[int], extra: Sequence[str] = ()) -> None:
        self.t_spawn = time.monotonic()
        self.proc = spawn_on(
            cpu,
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.host = ""
        self.port = 0
        self.rss_mb = 0.0
        try:
            self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self) -> None:
        deadline = time.monotonic() + HARD_TIMEOUT
        printed = ""
        while time.monotonic() < deadline:
            if select.select([self.proc.stdout], [], [], 0.2)[0]:
                chunk = os.read(self.proc.stdout.fileno(), 4096).decode()
                printed += chunk
                match = _LISTENING.search(printed)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    return
                if chunk:
                    continue
            if _wait4(self.proc, 0.0) is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before listening: {printed!r}"
                )
        raise RuntimeError(f"daemon did not print its address in time: {printed!r}")

    def sample_rss(self) -> None:
        """Record the daemon's peak RSS so far; call once its work is done
        and before it is asked to exit."""
        self.rss_mb = peak_rss_mb(self.proc.pid) or self.rss_mb

    def stop(self, grace: float = 5.0) -> int:
        """Reap the daemon: wait ``grace`` seconds for an exit it was asked
        for over the wire, then terminate, then kill.  Idempotent."""
        if self.proc.returncode is None:
            _, maxrss = reap(self.proc, grace=grace)
            self.rss_mb = self.rss_mb or maxrss
        return self.proc.returncode


class Sidecar:
    """The host-speed sampler pinned beside the system under test."""

    def __init__(self, cpu: Optional[int]) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, hostspeed.__file__,
                str(-1 if cpu is None else cpu), str(hostspeed.SIDECAR_PERIOD),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> List[Tuple[float, float]]:
        """Close its stdin, collect its samples, reap it."""
        if self.proc.returncode is not None:
            return []
        try:
            out, _ = self.proc.communicate(input="", timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return []
        return hostspeed.parse_samples(out)


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found: List[int] = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces and parens
                fields = handle.read().rpartition(b")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_strays(grace: float = 5.0) -> List[int]:
    """Stop and reap every child this process still has.

    ``multiprocessing.shared_memory`` (the shm lanes and ``ShmRing``)
    starts a resource-tracker process that by design exits only *after*
    its parent, so without this it outlives the run by a moment.  It is
    stopped the way ``multiprocessing`` stops it (close its pipe, wait);
    whatever else is left — nothing, unless a layer leaked a worker — is
    terminated, then killed.  Returns the pids that had to be signalled.
    """
    try:
        from multiprocessing import resource_tracker

        tracker = getattr(resource_tracker, "_resource_tracker", None)
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    except Exception:  # the sweep below still gets it
        pass
    signalled: List[int] = []
    for send in (signal.SIGTERM, signal.SIGKILL):
        pending = _children()
        for pid in pending:
            try:
                os.kill(pid, send)
                signalled.append(pid)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pending.remove(pid)
                except ChildProcessError:
                    pending.remove(pid)
            if pending:
                time.sleep(0.005)
        if not pending:
            break
    return sorted(set(signalled))


def interrupt_on_sigterm() -> None:
    """Turn SIGTERM into KeyboardInterrupt so ``finally`` blocks reap."""

    def handler(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, handler)
