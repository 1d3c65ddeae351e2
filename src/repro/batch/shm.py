"""Shared-memory segments for warm-pool payload epochs.

When a warm :class:`~repro.batch.pool.WorkerPool` switches configs
mid-life (the epoch protocol), the new worker payload is pickled once
into a :class:`multiprocessing.shared_memory` segment, and every
worker copies it out from there instead of receiving one pickle per
process.

Lifecycle contract
------------------

* The **coordinator** owns every segment: :func:`put_bytes` creates
  it, and exactly one :func:`unlink_spec` retires it.  Owned segments
  are tracked in a module registry; :func:`active_owned` exposes it so
  tests and gates can assert nothing leaked, and an ``atexit`` hook
  unlinks stragglers if the coordinator dies mid-analysis.
* **Workers** only ever attach (:func:`get_bytes`).  Attaching never
  takes ownership: the view is closed once the worker has copied the
  bytes out, and the attach *never registers* with the worker's
  ``resource_tracker`` (see :func:`_attach_untracked`) — exactly one
  tracker entry exists per segment, the owner's, balanced by its
  ``unlink``.
* Unlinking while workers hold mappings is safe on POSIX: the name
  disappears but live mappings survive until closed, which is what lets
  the coordinator retire an old payload epoch eagerly.
"""

from __future__ import annotations

import atexit
import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional

__all__ = [
    "ShmSpec",
    "ShmUnavailable",
    "active_owned",
    "get_bytes",
    "get_pickled",
    "put_bytes",
    "put_pickled",
    "unlink_spec",
]


class ShmUnavailable(RuntimeError):
    """Shared memory cannot be created on this platform/container."""


#: Segments created (and not yet unlinked) by this process, by name.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}


def active_owned() -> List[str]:
    """Names of segments this process owns and has not yet unlinked."""
    return sorted(_OWNED)


def _register_owned(segment: shared_memory.SharedMemory) -> None:
    _OWNED[segment.name] = segment


def _release_owned(name: str) -> None:
    segment = _OWNED.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except (OSError, FileNotFoundError):  # already gone: nothing leaked
        pass


@atexit.register
def _cleanup_owned() -> None:
    for name in list(_OWNED):
        _release_owned(name)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering it with resource_tracker.

    CPython ≤ 3.12 registers shared memory on attach as well as create
    (fixed by ``track=False`` in 3.13).  Attach-side registrations are
    pure bookkeeping noise: whichever tracker process serves the
    attacher would either warn about (and double-unlink) the segment at
    shutdown, or — when several attachers share one tracker — blow up
    on balancing ``unregister`` calls.  Suppressing the registration
    for the duration of the constructor leaves exactly one tracker
    entry per segment: the owner's, balanced by its ``unlink``.

    The swap is process-local and momentary; batch workers are
    single-threaded, so nothing else registers concurrently.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class ShmSpec:
    """Picklable name and payload size of one owned segment (the
    segment itself may be rounded up by the OS)."""

    name: str
    nbytes: int


def put_bytes(data: bytes) -> ShmSpec:
    """Park opaque bytes (a pickled payload) in a fresh owned segment."""
    try:
        segment = shared_memory.SharedMemory(create=True, size=max(len(data), 1))
    except OSError as exc:
        raise ShmUnavailable(f"cannot create shared memory: {exc}") from exc
    _register_owned(segment)
    segment.buf[: len(data)] = data
    return ShmSpec(name=segment.name, nbytes=len(data))


def get_bytes(spec: ShmSpec) -> bytes:
    """Copy a :func:`put_bytes` segment's payload out and detach."""
    segment = _attach_untracked(spec.name)
    try:
        return bytes(segment.buf[: spec.nbytes])
    finally:
        segment.close()


def put_pickled(obj: object) -> ShmSpec:
    """Pickle ``obj`` into a fresh owned segment (payload epochs)."""
    return put_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def get_pickled(spec: ShmSpec) -> object:
    """Load a :func:`put_pickled` payload in the attaching process."""
    return pickle.loads(get_bytes(spec))


def unlink_spec(spec: Optional[ShmSpec]) -> None:
    """Owner-side retirement by spec (idempotent, ``None``-safe)."""
    if spec is not None:
        _release_owned(spec.name)
