"""Shared-memory lifecycle: ownership, attach semantics, crash safety.

The coordinator owns every segment it creates (``shm._OWNED``); workers
attach without registering with the resource tracker.  These tests pin
the lifecycle contract the warm pool's payload epochs and the REPRO601
lint rule are built on: nothing leaks after a normal close, and nothing leaks after a
worker is SIGKILLed mid-task.
"""

import multiprocessing
import os
import signal

import pytest

from repro.batch import shm
from repro.batch.pool import WorkerPool, worker_payload


class TestPickledSpec:
    def test_roundtrip_and_unlink(self):
        payload = {"tables": [1, 2, 3], "mode": "safe"}
        spec = shm.put_pickled(payload)
        try:
            assert spec.name in shm.active_owned()
            assert shm.get_pickled(spec) == payload
        finally:
            shm.unlink_spec(spec)
        assert spec.name not in shm.active_owned()


def _pid(_task):
    return os.getpid()


def _echo_payload(_task):
    return worker_payload()


def _kill_self(_task):
    os.kill(os.getpid(), signal.SIGKILL)


class TestPoolShmLifecycle:
    def test_no_leak_after_normal_exit(self):
        pool = WorkerPool(2, {"epoch": 0})
        try:
            pool.set_payload({"epoch": 1})  # creates the shm payload spec
            assert pool.map(_echo_payload, [0, 1]) == [{"epoch": 1}] * 2
        finally:
            pool.close()
        assert shm.active_owned() == []

    def test_payload_epochs_swap_without_leaking(self):
        with WorkerPool(2, None) as pool:
            for epoch in range(3):
                pool.set_payload({"epoch": epoch})
                assert pool.map(_echo_payload, [0])[0] == {"epoch": epoch}
            # exactly one live segment per pool: the current epoch's spec
            assert len(shm.active_owned()) <= 1
        assert shm.active_owned() == []

    def test_no_leak_after_worker_sigkill(self):
        """A SIGKILLed worker hangs the in-flight map; terminate() must
        still release every owned segment."""
        pool = WorkerPool(2, None)
        try:
            pool.set_payload({"epoch": 0})
            assert pool.map(_pid, [0])  # payload spec live, workers warm
            with pytest.raises(multiprocessing.TimeoutError):
                pool.map(_kill_self, [0], timeout=15.0)
        finally:
            pool.terminate()
        assert shm.active_owned() == []
