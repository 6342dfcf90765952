"""Nothing a run starts outlives it: ``procs.stop_strays``.

Run in a child interpreter, because the sweep stops *every* child of the
calling process and pytest's own must be left alone.
"""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker, shared_memory
from ladderbench import procs

segment = shared_memory.SharedMemory(create=True, size=64)   # starts the tracker
segment.close(); segment.unlink()
tracker = resource_tracker._resource_tracker._pid
sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
before = sorted(procs._children())
signalled = procs.stop_strays(grace=2.0)
print(json.dumps({
    "tracker": tracker, "sleeper": sleeper.pid, "before": before,
    "signalled": signalled, "after": procs._children(),
}))
"""


def test_stop_strays_leaves_no_child_behind():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(LADDER)],
        stdout=subprocess.PIPE, text=True, timeout=30, check=True,
    ).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["before"] == sorted([seen["tracker"], seen["sleeper"]])
    # the resource tracker is stopped by closing its pipe, the leak by a signal
    assert seen["signalled"] == [seen["sleeper"]]
    assert seen["after"] == []


def test_peak_rss_is_the_childs_own_not_the_parents():
    from ladderbench import procs

    # the parent of this child is large; the child's own peak is what counts
    ballast = bytearray(64 << 20)
    code, out, rss, t0, t1 = procs.run_child(
        None, [sys.executable, "-c", "import time; time.sleep(0.1); print('ok')"]
    )
    assert (code, out.strip()) == (0, "ok")
    assert 1.0 < rss < 40.0, rss
    assert t1 - t0 >= 0.1
    assert len(ballast) == 64 << 20


def test_peak_rss_of_a_live_child_then_none():
    from ladderbench import procs

    child = subprocess.Popen(
        [sys.executable, "-c", "x = bytearray(48 << 20); print('up', flush=True); input()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline().strip() == b"up"
        assert procs.peak_rss_mb(child.pid) > 48.0
    finally:
        child.communicate(b"\n", timeout=10)
    assert procs.peak_rss_mb(child.pid) is None
