"""MicroBatcher: size flushes, deadline flushes, event-loop contract."""

import numpy as np
import pytest

from repro.formats.base import SparseVector
from repro.serve import MicroBatcher, Request


def _req(i, t=0.0):
    v = SparseVector(np.array([0], dtype=np.int32), np.array([1.0]), 4)
    return Request(i, v, t)


class TestSizeFlush:
    def test_fills_to_max_batch(self):
        b = MicroBatcher(max_batch=3, max_wait_ms=100.0)
        assert b.submit(_req(0), 0.0) is None
        assert b.submit(_req(1), 0.0) is None
        batch = b.submit(_req(2), 0.0)
        assert [r.req_id for r in batch] == [0, 1, 2]
        assert len(b) == 0

    def test_max_batch_one_is_immediate(self):
        b = MicroBatcher(max_batch=1, max_wait_ms=100.0)
        assert [r.req_id for r in b.submit(_req(7), 0.0)] == [7]

    def test_preserves_submission_order(self):
        b = MicroBatcher(max_batch=4, max_wait_ms=100.0)
        for i in (3, 1, 2):
            b.submit(_req(i), 0.0)
        batch = b.submit(_req(0), 0.0)
        assert [r.req_id for r in batch] == [3, 1, 2, 0]


class TestDeadlineFlush:
    def test_poll_before_deadline_returns_none(self):
        b = MicroBatcher(max_batch=8, max_wait_ms=2.0)
        b.submit(_req(0), 0.0)
        assert b.poll(0.001) is None
        assert len(b) == 1

    def test_poll_at_deadline_flushes(self):
        b = MicroBatcher(max_batch=8, max_wait_ms=2.0)
        b.submit(_req(0), 0.0)
        b.submit(_req(1), 0.001)
        batch = b.poll(0.002)
        assert [r.req_id for r in batch] == [0, 1]

    def test_deadline_tracks_oldest_request(self):
        b = MicroBatcher(max_batch=8, max_wait_ms=2.0)
        b.submit(_req(0), 0.0)
        b.submit(_req(1), 0.0015)
        # deadline is oldest + wait, not newest + wait
        assert b.poll(0.002) is not None

    def test_poll_at_next_flush_at_always_flushes(self):
        # Regression: the deadline comparison must use the *same*
        # floating-point expression next_flush_at() returns; with
        # `now - oldest >= wait` instead, an event loop stepping to
        # next_flush_at() can poll without flushing, forever.
        b = MicroBatcher(max_batch=8, max_wait_ms=2.0)
        b.submit(_req(0), 0.12)  # 0.12 + 0.002 - 0.12 < 0.002 in fp
        fa = b.next_flush_at()
        assert b.poll(fa) is not None

    def test_zero_wait_flushes_on_first_poll(self):
        b = MicroBatcher(max_batch=8, max_wait_ms=0.0)
        b.submit(_req(0), 5.0)
        assert b.poll(5.0) is not None


class TestFlushAndIntrospection:
    def test_next_flush_at_empty_is_none(self):
        b = MicroBatcher()
        assert b.next_flush_at() is None
        b.submit(_req(0), 1.0)
        assert b.next_flush_at() == pytest.approx(1.002)

    def test_state_resets_after_drain(self):
        b = MicroBatcher(max_batch=2, max_wait_ms=2.0)
        b.submit(_req(0), 0.0)
        b.submit(_req(1), 0.0)
        b.submit(_req(2), 10.0)
        assert b.next_flush_at() == pytest.approx(10.002)


class TestValidation:
    def test_bad_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)

    def test_bad_max_wait(self):
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(max_wait_ms=-1.0)
