"""Zero-copy simulator snapshots for campaign warm-start.

A :class:`SimulatorSnapshot` freezes a fully booted (and optionally
pre-sprayed) simulator world once, so every campaign segment can start
from it instead of replaying boot per segment:

- **DRAM row bytes** go into one :mod:`multiprocessing.shared_memory`
  block. Workers map the block read-only and rebind each row as a
  zero-copy numpy view; :meth:`~repro.dram.module.DramModule._row_array`
  promotes a row to a private writable copy on first mutation
  (copy-on-write), so segments never see each other's writes and
  untouched rows are never copied at all.
- **Kernel skeleton** (zones, buddy free lists, page DB, processes,
  page-table bookkeeping) travels as a compact pickle with the row dict
  detached.
- **Obs state** recorded while building the world (an isolated registry
  wraps the capture) is exported with
  :meth:`~repro.obs.metrics.Registry.export_state`; materializing merges
  it into the current registry, so a warmed segment's totals — and hence
  reports, checkpoints, and ``repro stats`` output — are byte-identical
  to a segment that booted cold.
- **Extra state** (e.g. a pre-run attack's sprayed-address lists) rides
  along as an arbitrary picklable value.

Layout of the shared block: ``[8-byte little-endian payload length |
pickle payload | concatenated row bytes]``. The segment is created by
the parent (which owns ``unlink``); workers attach by name with
:meth:`attach_cached` and keep one mapping per process.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.kernel.kernel import Kernel

__all__ = ["SimulatorSnapshot"]

_HEADER = struct.Struct("<Q")

#: One attached snapshot per shared-memory name per process (workers are
#: reused across segments; re-attaching per segment would leak mappings).
_ATTACHED: Dict[str, "SimulatorSnapshot"] = {}


class SimulatorSnapshot:
    """A frozen simulator world in shared memory (see module docstring)."""

    def __init__(self, shm: Any, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False

    # -- construction -------------------------------------------------------
    @classmethod
    def capture(
        cls,
        factory: Callable[[], Kernel],
        extra_fn: Optional[Callable[[Kernel], Any]] = None,
    ) -> "SimulatorSnapshot":
        """Build a world with ``factory`` and freeze it.

        ``factory`` (and ``extra_fn``, which may run setup like an attack
        spray against the fresh kernel before returning its extra state)
        execute under an isolated obs registry; everything they record is
        captured and replayed into the consuming registry at
        :meth:`materialize` time.
        """
        from multiprocessing import shared_memory

        previous = obs.get_registry()
        registry = obs.set_registry(obs.Registry())
        try:
            kernel = factory()
            extra = extra_fn(kernel) if extra_fn is not None else None
        finally:
            obs.set_registry(previous)

        module = kernel.module
        rows = module._rows
        row_index: Dict[int, Tuple[int, int]] = {}
        cursor = 0
        for row in sorted(rows):
            row_index[row] = (cursor, rows[row].size)
            cursor += rows[row].size

        # Pickle the kernel with the heavy row storage (and the caches
        # aliasing it) detached; the rows travel as raw bytes instead.
        saved_views = module._u64_views
        saved_pt_views = kernel.mmu._pt_views
        module._rows = {}
        module._u64_views = {}
        kernel.mmu._pt_views = {}
        try:
            payload = pickle.dumps(
                {
                    "kernel": kernel,
                    "row_index": row_index,
                    "obs_state": registry.export_state(),
                    "extra": extra,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        finally:
            module._rows = rows
            module._u64_views = saved_views
            kernel.mmu._pt_views = saved_pt_views

        rows_offset = _HEADER.size + len(payload)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, rows_offset + cursor)
        )
        _HEADER.pack_into(shm.buf, 0, len(payload))
        shm.buf[_HEADER.size : rows_offset] = payload
        if cursor:
            # One writable view over the row region; numpy slice-assigns
            # each row straight from its backing array. The per-row
            # tobytes() this replaces materialized an intermediate bytes
            # object per row — real money at multi-GB resident sets.
            region = np.frombuffer(
                shm.buf, dtype=np.uint8, count=cursor, offset=rows_offset
            )
            for row, (offset, length) in row_index.items():
                region[offset : offset + length] = rows[row]
            del region  # drop the view so release() can close the mapping
        snapshot = cls(shm, owner=True)
        # Serial (in-process) warm starts resolve the name through
        # attach_cached too; give them the owner handle rather than a
        # second mapping, which would fight the resource tracker over
        # the segment's registration.
        _ATTACHED[snapshot.name] = snapshot
        return snapshot

    @classmethod
    def attach(cls, name: str) -> "SimulatorSnapshot":
        """Map an existing snapshot by shared-memory name (worker side)."""
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            shm = shared_memory.SharedMemory(name=name)
            try:
                from multiprocessing import resource_tracker

                # The attaching process must not unlink the segment at
                # exit — the creating parent owns cleanup.
                resource_tracker.unregister(shm._name, "shared_memory")
            except (ImportError, AttributeError, KeyError):
                pass
        return cls(shm, owner=False)

    @classmethod
    def attach_cached(cls, name: str) -> "SimulatorSnapshot":
        """Attach once per process; later calls reuse the mapping."""
        snapshot = _ATTACHED.get(name)
        if snapshot is None:
            snapshot = _ATTACHED[name] = cls.attach(name)
        return snapshot

    # -- use ----------------------------------------------------------------
    @property
    def name(self) -> str:
        """Shared-memory name workers attach by."""
        return self._shm.name

    def materialize(self) -> Tuple[Kernel, Any]:
        """A fresh, independent kernel backed read-only by the snapshot.

        Unpickles a new kernel skeleton, rebinds every DRAM row as a
        read-only zero-copy view into the shared block (mutations promote
        per row, copy-on-write), and merges the captured obs state into
        the current registry. Returns ``(kernel, extra)``.
        """
        if self._closed:
            raise ConfigurationError("snapshot has been released")
        (payload_len,) = _HEADER.unpack_from(self._shm.buf, 0)
        state = pickle.loads(bytes(self._shm.buf[_HEADER.size : _HEADER.size + payload_len]))
        kernel: Kernel = state["kernel"]
        module = kernel.module
        rows_offset = _HEADER.size + payload_len
        rows: Dict[int, np.ndarray] = {}
        for row, (offset, length) in state["row_index"].items():
            view = np.frombuffer(
                self._shm.buf, dtype=np.uint8, count=length,
                offset=rows_offset + offset,
            )
            view.setflags(write=False)
            rows[row] = view
        module._rows = rows
        module._u64_views = {}
        kernel.mmu._pt_views = {}
        # The pickled fault-plane caches (fault_plane_armed and
        # read_faults_armed) belong to the capture process; epochs are not
        # comparable across processes, so force both to recompute.
        module._faults_epoch = -1
        # Keep the mapping alive as long as this kernel aliases it.
        kernel._warm_snapshot = self  # type: ignore[attr-defined]
        obs.get_registry().merge_state(state["obs_state"])
        return kernel, state["extra"]

    # -- cleanup ------------------------------------------------------------
    def release(self) -> None:
        """Unlink (owner) and drop this handle.

        Kernels materialized earlier keep their mapping until they die;
        unlinking only removes the name. ``close`` is best-effort — live
        numpy views legitimately pin the buffer.
        """
        if self._closed:
            return
        self._closed = True
        _ATTACHED.pop(self.name, None)
        if self._owner:
            self._shm.unlink()
        try:
            self._shm.close()
        except BufferError:
            pass
