"""Host-speed scaling holds only while the benchmark thread has the
process to itself; the round guard must notice when it does not."""

import threading
import time

import pytest

from perfbench.hostspeed import NotAlone, other_threads


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_a_lone_thread_passes():
    with other_threads() as busy:
        _spin(0.05)
    assert busy.thread_s > 0
    assert busy.other_share <= 0.03


def test_a_live_helper_thread_fails():
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        with pytest.raises(NotAlone, match="Python threads alive"):
            with other_threads():
                _spin(0.01)
    finally:
        stop.set()
        helper.join()


def test_cpu_burnt_by_a_finished_thread_fails():
    # the helper is gone by the end of the block, but its CPU time shows
    with pytest.raises(NotAlone, match="other threads used"):
        with other_threads():
            helper = threading.Thread(target=_spin, args=(0.2,))
            helper.start()
            _spin(0.05)
            helper.join()
