"""Typed flat int buffers: the storage layer under every flat engine.

Every flat structure in the sparse pipeline — the CSR ``indptr``/
``indices`` arrays of :class:`~repro.graph.csr.CSRBipartite`, the
``N_{<=2}`` arrays of :func:`~repro.cores.two_hop.n_le2_flat`, the bucket
peel's working arrays, the position-space rows of
:class:`~repro.graph.prepared.OrderView` — is a flat sequence of small
ints.  This module is the one place that decides *how those ints are
stored*, behind three interchangeable backends:

* :data:`BACKEND_ARRAY` (the default): :class:`array.array` with typecode
  ``'q'`` (signed 64-bit).  Eight bytes per element in one contiguous
  allocation — roughly an order of magnitude smaller than a list of
  boxed ints — and, crucially, it exposes the buffer protocol, so a
  buffer ships to another process through
  :mod:`multiprocessing.shared_memory` as raw bytes and attaches back as
  a **zero-copy** ``memoryview`` cast (no per-element conversion in
  either direction).
* :data:`BACKEND_NUMPY`: ``numpy.int64`` arrays when numpy is importable.
  Same memory layout and zero-copy attach (``numpy.frombuffer``), plus
  vectorised consumers can operate on the buffers directly.  Entirely
  optional — nothing in the library requires numpy.
* :data:`BACKEND_LIST`: plain Python lists, the no-deps fallback and the
  historical representation.  Pure-Python index loops are fastest on
  lists (typed containers box a fresh ``int`` per ``__getitem__``), so
  this backend remains selectable for latency-critical single-process
  runs; it cannot attach zero-copy, so shared-memory consumers fall back
  to a one-time copy.

The backend is selected per process via the ``REPRO_BUFFER_BACKEND``
environment variable (or :func:`set_default_backend`), and every backend
is property-tested to produce byte-identical peel orders, ``N_{<=2}``
arrays, subgraph streams and solve results.  Consumers never switch on
the backend: they index, slice and iterate the returned containers, and
take a :func:`buffer_view` once per hot loop so slicing is zero-copy
wherever the backend allows it.

A buffer is immutable once published (the same contract as the
snapshots that own them — RPL005); the only sanctioned mutable uses are
function-local working arrays built with :func:`mutable_int_buffer`.
Shared-memory segments are written only by
:meth:`~repro.graph.prepared.PreparedGraph.to_shm` and read only by
:meth:`~repro.graph.prepared.PreparedGraph.from_shm`.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, List, Optional, Sequence, Union

from repro.exceptions import InvalidParameterError

#: Plain Python lists — the dependency-free fallback backend.
BACKEND_LIST = "list"
#: ``array('q')`` typed storage — the default backend.
BACKEND_ARRAY = "array"
#: ``numpy.int64`` arrays — optional, only when numpy is importable.
BACKEND_NUMPY = "numpy"

#: Environment variable selecting the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BUFFER_BACKEND"

_TYPECODE = "q"
_ITEMSIZE = 8

#: Static type of a flat int buffer.  ``memoryview`` appears when a
#: typed buffer is attached zero-copy from a shared-memory segment (or
#: handed out by :func:`buffer_view`); numpy arrays are duck-typed.
IntBuffer = Union[List[int], "array[int]", memoryview, Sequence[int]]

_numpy = None
_numpy_checked = False


def _numpy_module():
    """The numpy module, or ``None`` when it is not importable (cached)."""
    global _numpy, _numpy_checked
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
        _numpy_checked = True
    return _numpy


def available_backends() -> tuple:
    """Backends usable in this interpreter, default first."""
    backends = [BACKEND_ARRAY, BACKEND_LIST]
    if _numpy_module() is not None:
        backends.append(BACKEND_NUMPY)
    return tuple(backends)


_DEFAULT_BACKEND: Optional[str] = None


def _validate_backend(backend: str) -> str:
    if backend not in (BACKEND_LIST, BACKEND_ARRAY, BACKEND_NUMPY):
        raise InvalidParameterError(
            f"unknown buffer backend {backend!r}; expected one of "
            f"{(BACKEND_ARRAY, BACKEND_LIST, BACKEND_NUMPY)}"
        )
    if backend == BACKEND_NUMPY and _numpy_module() is None:
        raise InvalidParameterError(
            "buffer backend 'numpy' requested but numpy is not importable"
        )
    return backend


def default_backend() -> str:
    """The process-wide default backend.

    Resolution order: :func:`set_default_backend` override, then the
    ``REPRO_BUFFER_BACKEND`` environment variable, then
    :data:`BACKEND_ARRAY`.  The environment variable is re-read on every
    call so a test (or a CI leg forcing the pure-Python fallback) can
    flip it without importing anything.
    """
    if _DEFAULT_BACKEND is not None:
        return _DEFAULT_BACKEND
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return _validate_backend(env)
    return BACKEND_ARRAY


def set_default_backend(backend: Optional[str]) -> None:
    """Override the default backend (``None`` restores env-var resolution)."""
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = None if backend is None else _validate_backend(backend)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _is_typed(values: object) -> bool:
    """True for containers already in a typed flat layout (pass-through)."""
    if isinstance(values, array) and values.typecode == _TYPECODE:
        return True
    if isinstance(values, memoryview):
        return True
    numpy = _numpy_module()
    return numpy is not None and isinstance(values, numpy.ndarray)


def freeze_buffer(values: Iterable[int], backend: Optional[str] = None) -> IntBuffer:
    """Canonicalise freshly built int data into the backend's container.

    Typed containers (``array('q')``, ``memoryview``, numpy arrays) pass
    through untouched — they are already flat, and degrading a zero-copy
    shared-memory view back to a list would silently re-copy the data the
    caller went out of its way to share.  Lists and other iterables are
    converted per the selected backend (for :data:`BACKEND_LIST` a list
    input is returned as-is).
    """
    if _is_typed(values):
        return values
    backend = _validate_backend(backend or default_backend())
    if backend == BACKEND_LIST:
        return values if isinstance(values, list) else list(values)
    if backend == BACKEND_ARRAY:
        return array(_TYPECODE, values)
    return _numpy_module().array(
        values if isinstance(values, list) else list(values), dtype="int64"
    )


def mutable_int_buffer(
    values: Iterable[int], backend: Optional[str] = None
) -> IntBuffer:
    """A freshly owned, mutable int buffer (for function-local working arrays).

    Unlike :func:`freeze_buffer` this never returns a ``memoryview`` (a
    shared view may be read-only, and mutating one would write through to
    shared state): the result is always a new list / ``array('q')`` /
    numpy array the caller owns outright.
    """
    backend = _validate_backend(backend or default_backend())
    if backend == BACKEND_LIST:
        return list(values)
    if backend == BACKEND_ARRAY:
        return array(_TYPECODE, values)
    numpy = _numpy_module()
    if isinstance(values, numpy.ndarray):
        return values.astype("int64")
    return numpy.array(list(values), dtype="int64")


# ----------------------------------------------------------------------
# views and conversions
# ----------------------------------------------------------------------
def buffer_view(buf: IntBuffer) -> IntBuffer:
    """A slice-cheap view of ``buf`` for hot loops.

    For the typed backends the result is a ``memoryview`` (or the numpy
    array itself), whose slices are zero-copy windows into the same
    memory; for the list backend it is the list itself (slices copy —
    the documented fallback semantics).  Taken once per hot function so
    the per-call cost is one attribute lookup, not a cast.
    """
    if isinstance(buf, array):
        return memoryview(buf)
    return buf


def buffer_backend(buf: IntBuffer) -> str:
    """Which backend family a buffer belongs to (views count as 'array')."""
    if isinstance(buf, list):
        return BACKEND_LIST
    if isinstance(buf, (array, memoryview)):
        return BACKEND_ARRAY
    numpy = _numpy_module()
    if numpy is not None and isinstance(buf, numpy.ndarray):
        return BACKEND_NUMPY
    raise InvalidParameterError(f"not an int buffer: {type(buf).__name__}")


def as_int_list(buf: IntBuffer) -> List[int]:
    """The buffer's contents as a plain list of Python ints."""
    if isinstance(buf, list):
        return list(buf)
    if isinstance(buf, (array, memoryview)):
        return buf.tolist()
    numpy = _numpy_module()
    if numpy is not None and isinstance(buf, numpy.ndarray):
        return buf.tolist()
    return [int(value) for value in buf]


def buffer_nbytes(buf: IntBuffer) -> int:
    """Payload size of the buffer in its wire form (8 bytes per element)."""
    return len(buf) * _ITEMSIZE


def buffer_to_bytes(buf: IntBuffer) -> bytes:
    """The buffer as native-endian signed 64-bit raw bytes (one copy)."""
    if isinstance(buf, array):
        return buf.tobytes()
    if isinstance(buf, memoryview):
        return bytes(buf)
    numpy = _numpy_module()
    if numpy is not None and isinstance(buf, numpy.ndarray):
        return buf.astype("int64", copy=False).tobytes()
    return array(_TYPECODE, buf).tobytes()


def ints_from_buffer(
    raw: memoryview, backend: Optional[str] = None
) -> IntBuffer:
    """Interpret raw int64 bytes as an int buffer, zero-copy where possible.

    For the ``array`` backend the result is ``raw.cast('q')`` — a typed
    ``memoryview`` over the *same* memory (this is the shared-memory
    attach path: no per-element conversion, no copy).  The numpy backend
    wraps the same memory with ``numpy.frombuffer``.  The list backend
    copies once into a plain list — the documented no-deps fallback.
    """
    backend = _validate_backend(backend or default_backend())
    cast = raw.cast(_TYPECODE)
    if backend == BACKEND_ARRAY:
        return cast
    if backend == BACKEND_NUMPY:
        return _numpy_module().frombuffer(raw, dtype="int64")
    return cast.tolist()


def pickleable_buffer(buf: IntBuffer) -> IntBuffer:
    """A pickle-safe equivalent of ``buf``.

    ``memoryview`` objects (zero-copy shared-memory attachments) do not
    pickle; they are materialised as an owned ``array('q')`` copy.  Every
    other backend container pickles natively and passes through.
    """
    if isinstance(buf, memoryview):
        return array(_TYPECODE, buf.tolist())
    return buf


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------
def create_shared_memory(size: int):
    """Create an anonymous-named shared-memory segment of ``size`` bytes."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=size)


def attach_shared_memory(name: str):
    """Attach to an existing segment by name, without adopting ownership.

    The creator owns unlinking, but before 3.13's ``track=False`` every
    ``SharedMemory`` attach registers the name with the
    ``multiprocessing`` resource tracker.  A process with a tracker of
    its own would then have the segment unlinked when it exits (the
    well-known attach side effect), so such an attacher drops the
    registration again.  A ``multiprocessing`` child — a pool worker —
    shares its parent's tracker, where the creator registered the name
    already: the attach's registration is a no-op there, and dropping it
    would remove the creator's entry instead; two workers attaching at
    once would unregister it twice, which the tracker reports as a
    ``KeyError``.  Children therefore keep it.  The unregister is
    best-effort — on platforms without the tracker the attach alone is
    already correct.
    """
    import multiprocessing
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    if multiprocessing.parent_process() is not None:
        return segment
    try:  # pragma: no cover - tracker internals differ per platform
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    return segment


def unlink_shared_memory(segment) -> None:
    """Unlink a segment this process created, balancing tracker accounting.

    ``SharedMemory.unlink`` sends the resource tracker an unregister for
    the name — but if this same process also *attached* to the segment
    (the handoff benchmark does; tests do), :func:`attach_shared_memory`
    already consumed the registration, and the tracker would log a
    ``KeyError`` at exit.  The tracker's cache is a set and its pipe is
    ordered, so re-registering immediately before the unlink is
    idempotent when accounting is balanced and heals it when it is not.
    An already-removed segment is not an error.
    """
    try:  # pragma: no cover - tracker internals differ per platform
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


class SegmentKeepalive:
    """Keeps an attached segment mapped for as long as views of it live.

    A :class:`~repro.graph.prepared.PreparedGraph` built zero-copy from
    shared memory stores one of these alongside its buffers.  Teardown
    order between the bundle's views and the segment is not guaranteed:
    the bundle sits in reference cycles (order views point back at it),
    so it dies inside a garbage-collector pass, where the finalizers of
    the whole unreachable group run in **arbitrary order** — including
    ``SharedMemory.__del__``, which prints a ``BufferError`` whenever it
    runs while the bundle's views still export the mapping.

    The wrapper therefore takes the mapping over *at construction*: it
    adopts the ``mmap``, the root buffer and the file descriptor, and
    neuters the ``SharedMemory`` object on the spot so its finalizer is
    a guaranteed no-op no matter when it fires.  The wrapper's own
    finalizer releases what it can and otherwise leaves the mapping to
    the surviving views — an ``mmap`` unmaps itself once its last
    exported view dies.  Nothing here unlinks: attachers never own the
    segment name.
    """

    __slots__ = ("name", "_mmap", "_buf", "_fd")

    def __init__(self, segment) -> None:
        self.name: str = segment.name
        self._mmap = segment._mmap
        self._buf = segment._buf
        self._fd = getattr(segment, "_fd", -1)
        segment._mmap = None
        segment._buf = None
        if hasattr(segment, "_fd"):
            segment._fd = -1

    def __del__(self) -> None:
        if self._buf is not None:
            try:
                self._buf.release()
            except (BufferError, ValueError):  # pragma: no cover - order
                pass
        if self._mmap is not None:
            try:
                self._mmap.close()
            except (BufferError, ValueError):  # pragma: no cover - order
                pass
        if self._fd >= 0:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - already closed
                pass
