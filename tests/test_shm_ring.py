"""``repro.core.shm.ShmRing``: a FIFO byte ring under wrap-around,
backpressure and interleaved push/pop, checked against a deque model.

Nothing in ``src/`` uses the ring since the shared-memory shard executor
was deleted; these tests live as long as the module does (see its
docstring).
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shm import ShmRing, shm_available

shm_only = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture
def ring():
    r = ShmRing.create(4096)
    yield r
    r.close(unlink=True)


@shm_only
class TestRing:
    def test_fifo_roundtrip(self, ring):
        frames = [bytes([i]) * (i * 7 % 200 + 1) for i in range(50)]
        for frame in frames:
            assert ring.try_push(frame)
            view = ring.try_pop()
            assert bytes(view) == frame
            ring.consume()
        assert ring.try_pop() is None
        assert ring.frames_pushed() == ring.frames_popped() == len(frames)

    def test_wrap_around_preserves_fifo(self, ring):
        # Frames sized so successive pushes straddle the ring edge and
        # force wrap markers many times over.
        size = ring.capacity // 3 - 16
        for i in range(64):
            frame = bytes([i % 251]) * size
            assert ring.try_push(frame)
            view = ring.try_pop()
            assert bytes(view) == frame
            ring.consume()

    def test_full_ring_backpressure(self, ring):
        frame = b"x" * 512
        pushed = 0
        while ring.try_push(frame):
            pushed += 1
        assert pushed >= (ring.capacity // (len(frame) + 4)) - 1
        assert not ring.try_push(frame)  # full: producer must back off
        assert ring.try_pop() is not None
        ring.consume()
        assert ring.try_push(frame)  # one slot freed, one push fits

    def test_oversize_payload_refused(self, ring):
        too_big = b"y" * (ring.max_frame + 1)
        assert not ring.try_push(too_big)
        with pytest.raises(ValueError):
            ring.push(too_big)
        assert ring.try_push(b"y" * ring.max_frame)  # bound is inclusive

    def test_pop_requires_consume(self, ring):
        assert ring.try_push(b"a")
        assert ring.try_push(b"b")
        assert bytes(ring.try_pop()) == b"a"
        with pytest.raises(RuntimeError):
            ring.try_pop()
        ring.consume()
        assert bytes(ring.try_pop()) == b"b"
        ring.consume()
        with pytest.raises(RuntimeError):
            ring.consume()

    def test_attach_shares_the_ring(self, ring):
        peer = ShmRing.attach(ring.name)
        try:
            assert ring.try_push(b"hello")
            view = peer.try_pop()
            assert bytes(view) == b"hello"
            peer.consume()
            assert ring.lag() == 0
        finally:
            peer.close()

    def test_heartbeat_counts_beats(self, ring):
        assert ring.heartbeat() == 0
        for expected in (1, 2, 3):
            ring.beat()
            assert ring.heartbeat() == expected

    def test_blocking_pop_honours_abort_and_timeout(self, ring):
        assert ring.pop(timeout=0.01) is None
        assert ring.pop(abort=lambda: True) is None
        assert ring.try_push(b"z")
        assert bytes(ring.pop(timeout=0.01)) == b"z"
        ring.consume()

    def test_lag_counts_unconsumed_frames_with_their_prefix(self, ring):
        assert ring.try_push(b"0123456789")
        assert ring.lag() == ring.bytes_pushed() == 4 + 10
        assert ring.try_pop() is not None
        assert ring.lag() == 14  # a popped frame holds its slot until consume
        ring.consume()
        assert ring.lag() == 0
        assert ring.bytes_pushed() == 14

    def test_blocking_push_honours_abort_and_timeout(self, ring):
        frame = b"f" * 512
        while ring.try_push(frame):
            pass
        assert not ring.push(frame, timeout=0.01)
        assert not ring.push(frame, abort=lambda: True)
        assert ring.try_pop() is not None
        ring.consume()
        assert ring.push(frame, timeout=0.01)

    def test_unlinked_ring_cannot_be_attached(self):
        ring = ShmRing.create(4096)
        name = ring.name
        ring.close(unlink=True)
        with pytest.raises(FileNotFoundError):
            ShmRing.attach(name)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.binary(min_size=0, max_size=700)),
            max_size=60,
        )
    )
    def test_matches_deque_model(self, script):
        # Interleaved pushes and pops against a plain deque: whenever the
        # ring accepts/yields, the model must agree byte for byte.
        ring = ShmRing.create(4096)
        model = deque()
        try:
            for is_push, payload in script:
                if is_push:
                    if ring.try_push(payload):
                        model.append(payload)
                else:
                    view = ring.try_pop()
                    if view is None:
                        assert not model
                    else:
                        assert bytes(view) == model.popleft()
                        ring.consume()
            while model:
                view = ring.try_pop()
                assert view is not None
                assert bytes(view) == model.popleft()
                ring.consume()
            assert ring.try_pop() is None
        finally:
            ring.close(unlink=True)


def test_shm_refused_cleanly_when_unavailable(monkeypatch):
    """Without ``multiprocessing.shared_memory`` the probe says no and a
    ring cannot be created; neither crashes at import."""
    import repro.core.shm as shm_mod

    monkeypatch.setattr(shm_mod, "_shared_memory", None)
    monkeypatch.setattr(shm_mod, "_available", None)
    assert not shm_available()
    with pytest.raises(RuntimeError, match="shared_memory is unavailable"):
        ShmRing.create(4096)
