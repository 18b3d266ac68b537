"""Virtual-machine support for CTA (paper Section 7).

In a virtualised deployment the *hypervisor* owns the physical true-cell
inventory: it reserves the highest true-cell addresses as
``ZONE_HYPERVISOR`` and hands each guest OS a slice of it to use as the
guest's ``ZONE_PTP``, while all regular guest memory is served from below
``ZONE_HYPERVISOR``. Guest page tables therefore live in host true-cells
above every guest data page, so PTE self-reference is impossible both
*within* a VM and *across* VMs.

Model: each guest sees a contiguous guest-physical window backed by two
host ranges — a data range (low host memory) and a PTP slice (inside
ZONE_HYPERVISOR). A :class:`GuestPhysicalWindow` translates guest
addresses to host addresses so guest kernels run unmodified over the
shared host module, and the cell types seen by the guest are the host's
real cell types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.dram.cells import CellType, CellTypeMap
from repro.dram.module import DramModule
from repro.errors import CapacityError, ConfigurationError, ZoneViolationError
from repro.kernel.cta import CtaConfig, CtaPolicy
from repro.kernel.kernel import Kernel, KernelConfig
from repro.units import PAGE_SHIFT


class GuestPhysicalWindow(DramModule):
    """A guest-physical view stitched from host ranges.

    Guest addresses ``[0, data_size)`` map to the host data range; guest
    addresses ``[data_size, data_size + ptp_size)`` map to the host PTP
    slice inside ZONE_HYPERVISOR. Rows keep their host cell types, so a
    guest-side CTA policy sees the truth.
    """

    def __init__(
        self,
        host: DramModule,
        data_base: int,
        data_size: int,
        ptp_base: int,
        ptp_size: int,
    ):
        geometry = host.geometry
        row_bytes = geometry.row_bytes
        for name, value in (
            ("data_base", data_base), ("data_size", data_size),
            ("ptp_base", ptp_base), ("ptp_size", ptp_size),
        ):
            if value % row_bytes:
                raise ConfigurationError(f"{name} must be row aligned")
        geometry.check_address(data_base, data_size)
        geometry.check_address(ptp_base, ptp_size)
        self._host = host
        self._data_base = data_base
        self._data_size = data_size
        self._ptp_base = ptp_base
        self._ptp_size = ptp_size

        from repro.dram.geometry import DramGeometry

        guest_rows_data = data_size // row_bytes
        guest_rows_ptp = ptp_size // row_bytes
        guest_geometry = DramGeometry(
            total_bytes=data_size + ptp_size,
            row_bytes=row_bytes,
            num_banks=1,
        )
        host_map = host.cell_map
        if host_map is None:
            raise ConfigurationError("host module needs a cell map")
        row_types = [
            host_map.type_of_row(data_base // row_bytes + row)
            for row in range(guest_rows_data)
        ] + [
            host_map.type_of_row(ptp_base // row_bytes + row)
            for row in range(guest_rows_ptp)
        ]
        guest_map = CellTypeMap.from_rows(guest_geometry, row_types)
        super().__init__(guest_geometry, guest_map)

    # -- address translation ------------------------------------------------
    def host_address(self, guest_address: int) -> int:
        """Translate a guest-physical address to the host-physical one."""
        if guest_address < self._data_size:
            return self._data_base + guest_address
        offset = guest_address - self._data_size
        if offset < self._ptp_size:
            return self._ptp_base + offset
        raise ConfigurationError(
            f"guest address {guest_address:#x} outside the window"
        )

    @property
    def ptp_guest_base(self) -> int:
        """Guest-physical address where the PTP slice begins."""
        return self._data_size

    # -- forwarded storage ----------------------------------------------------
    def read(self, address: int, length: int) -> bytes:
        """Read through to host memory."""
        self.geometry.check_address(address, length)
        self.read_count += 1
        return self._host.read(self.host_address(address), length)

    def write(self, address: int, data: bytes) -> None:
        """Write through to host memory."""
        self.geometry.check_address(address, len(data))
        self.write_count += 1
        self._host.write(self.host_address(address), data)

    def fill_row(self, row: int, byte: int) -> None:
        """Fill a guest row via the host."""
        self.write(row * self.geometry.row_bytes, bytes([byte]) * self.geometry.row_bytes)

    def decay_row_fully(self, row: int) -> None:
        """Decay a guest row on the host (host cell type governs)."""
        host_row = self.host_address(row * self.geometry.row_bytes) // self.geometry.row_bytes
        self._host.decay_row_fully(host_row)

    def decay_bits(self, row: int, bit_positions) -> int:
        """Decay specific bits of a guest row on the host."""
        host_row = self.host_address(row * self.geometry.row_bytes) // self.geometry.row_bytes
        return self._host.decay_bits(host_row, bit_positions)

    def _host_addresses(self, addresses: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`host_address` for in-window addresses."""
        addrs = np.asarray(addresses, dtype=np.int64)
        return np.where(
            addrs < self._data_size,
            self._data_base + addrs,
            self._ptp_base + (addrs - self._data_size),
        )

    def _in_window(self, addresses: "np.ndarray", length: int) -> bool:
        addrs = np.asarray(addresses, dtype=np.int64)
        return not (
            bool(np.any(addrs < 0))
            or bool(np.any(addrs + length > self.geometry.total_bytes))
        )

    def read_many(self, addresses: "np.ndarray", length: int) -> List[bytes]:
        """Batched :meth:`read`, forwarded to the host in one call."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if not self._in_window(addrs, length):
            return [self.read(address, length) for address in addrs.tolist()]
        self.read_count += int(addrs.size)
        return self._host.read_many(self._host_addresses(addrs), length)

    def read_u64_many(self, addresses: "np.ndarray") -> "np.ndarray":
        """Batched :meth:`read_u64`, forwarded to the host in one call."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if not self._in_window(addrs, 8):
            return np.array(
                [self.read_u64(address) for address in addrs.tolist()],
                dtype=np.uint64,
            )
        self.read_count += int(addrs.size)
        return self._host.read_u64_many(self._host_addresses(addrs))

    def write_many(self, addresses: "np.ndarray", data: bytes) -> None:
        """Batched :meth:`write`, forwarded to the host in one call."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if not self._in_window(addrs, len(data)):
            for address in addrs.tolist():
                self.write(address, data)
            return
        self.write_count += int(addrs.size)
        self._host.write_many(self._host_addresses(addrs), data)

    def write_u64_many(self, addresses: "np.ndarray", values: "np.ndarray") -> None:
        """Batched :meth:`write_u64`, forwarded to the host in one call."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if not self._in_window(addrs, 8):
            super().write_u64_many(addrs, values)
            return
        self.write_count += int(addrs.size)
        self._host.write_u64_many(self._host_addresses(addrs), values)

    # -- forwarded fast paths -------------------------------------------------
    # The base-class batched primitives operate in place on *this* module's
    # sparse rows; a window has no storage of its own, so every one of them
    # must forward to the host or guest writes would land in dead arrays.
    def _host_row(self, row: int) -> int:
        return self.host_address(row * self.geometry.row_bytes) // self.geometry.row_bytes

    @property
    def generation(self) -> int:
        """Host generation — the window aliases host storage."""
        return self._host.generation

    def write_bit(self, address: int, bit: int, value: int) -> None:
        """Set one bit via the host backing array."""
        self.geometry.check_address(address, 1)
        self.write_count += 1
        self._host.write_bit(self.host_address(address), bit, value)

    def read_bits(self, row: int, positions) -> "np.ndarray":
        """Batched bit read via the host row."""
        self.read_count += 1
        return self._host.read_bits(self._host_row(row), positions)

    def apply_bit_flips(self, row: int, positions, targets) -> int:
        """Batched bit write via the host row."""
        self.write_count += 1
        return self._host.apply_bit_flips(self._host_row(row), positions, targets)

    def row_u64_view(self, row: int) -> "np.ndarray":
        """u64 alias of the backing host row."""
        return self._host.row_u64_view(self._host_row(row))

    def u64_view(self, address: int, count: int):
        """Aliasing u64 view resolved against host storage (or ``None``)."""
        span = 8 * count
        if address < 0 or count < 0:
            return None
        in_data = address + span <= self._data_size
        in_ptp = address >= self._data_size and address + span <= self._data_size + self._ptp_size
        if not (in_data or in_ptp):
            return None
        return self._host.u64_view(self.host_address(address), count)


@dataclass
class GuestVm:
    """One provisioned guest."""

    vm_id: int
    kernel: Kernel
    window: GuestPhysicalWindow
    host_data_range: Tuple[int, int]
    host_ptp_range: Tuple[int, int]


class Hypervisor:
    """Plans ZONE_HYPERVISOR and provisions CTA guests from it.

    Parameters
    ----------
    module:
        Host physical memory (with a cell map).
    hypervisor_zone_bytes:
        True-cell capacity reserved at the top of host memory for guest
        PTP slices.
    """

    def __init__(self, module: DramModule, hypervisor_zone_bytes: int):
        if module.cell_map is None:
            raise ConfigurationError("hypervisor requires a module with a cell map")
        self._module = module
        # Reuse the CTA planner: ZONE_HYPERVISOR is exactly a CTA region
        # plan over the host map.
        self._plan = CtaPolicy(
            module.cell_map, CtaConfig(ptp_bytes=hypervisor_zone_bytes)
        )
        self._guests: Dict[int, GuestVm] = {}
        self._next_vm_id = 1
        # Free lists: true-cell host ranges for PTP slices; data cursor in
        # low host memory.
        self._ptp_free: List[Tuple[int, int]] = list(self._plan.true_cell_ranges)
        self._data_cursor = 0

    @property
    def zone_hypervisor_base(self) -> int:
        """Host address of the hypervisor zone's low water mark."""
        return self._plan.low_water_mark

    @property
    def guests(self) -> Dict[int, GuestVm]:
        """Provisioned guests by id."""
        return dict(self._guests)

    # -- provisioning --------------------------------------------------------
    def create_guest(
        self, data_bytes: int, ptp_bytes: int, cell_interleave_rows: int = 32
    ) -> GuestVm:
        """Provision a guest with its own data range and PTP slice."""
        row_bytes = self._module.geometry.row_bytes
        if data_bytes % row_bytes or ptp_bytes % row_bytes:
            raise ConfigurationError("guest sizes must be row aligned")
        data_base = self._allocate_data(data_bytes)
        ptp_base = self._allocate_ptp(ptp_bytes)
        window = GuestPhysicalWindow(
            self._module, data_base, data_bytes, ptp_base, ptp_bytes
        )
        guest_kernel = Kernel(
            KernelConfig(
                total_bytes=window.geometry.total_bytes,
                row_bytes=row_bytes,
                num_banks=1,
                cta=CtaConfig(ptp_bytes=ptp_bytes),
                profile_cells=False,
            ),
            module=window,
        )
        vm = GuestVm(
            vm_id=self._next_vm_id,
            kernel=guest_kernel,
            window=window,
            host_data_range=(data_base, data_base + data_bytes),
            host_ptp_range=(ptp_base, ptp_base + ptp_bytes),
        )
        self._guests[vm.vm_id] = vm
        self._next_vm_id += 1
        return vm

    def _allocate_data(self, size: int) -> int:
        base = self._data_cursor
        if base + size > self.zone_hypervisor_base:
            raise CapacityError("host out of guest data memory", zone="guest-data")
        self._data_cursor = base + size
        return base

    def _allocate_ptp(self, size: int) -> int:
        for index, (start, end) in enumerate(self._ptp_free):
            if end - start >= size:
                self._ptp_free[index] = (start + size, end)
                return start
        raise CapacityError("ZONE_HYPERVISOR exhausted", zone="ZONE_HYPERVISOR")

    # -- invariants ------------------------------------------------------------
    def verify_isolation(self) -> None:
        """Cross-VM CTA invariants (Section 7).

        - every guest PTP slice lies inside ZONE_HYPERVISOR true-cells;
        - every guest data range lies wholly below ZONE_HYPERVISOR;
        - no two guests share any host range;
        - within each guest, CTA Rules 1/2 hold.

        Raises :class:`ZoneViolationError` on the first violation.
        """
        claimed: List[Tuple[int, int, str]] = []
        for vm in self._guests.values():
            data_start, data_end = vm.host_data_range
            ptp_start, ptp_end = vm.host_ptp_range
            if data_end > self.zone_hypervisor_base:
                raise ZoneViolationError(
                    f"VM {vm.vm_id} data range reaches into ZONE_HYPERVISOR"
                )
            if ptp_start < self.zone_hypervisor_base:
                raise ZoneViolationError(
                    f"VM {vm.vm_id} PTP slice below ZONE_HYPERVISOR"
                )
            for start, end in ((data_start, data_end), (ptp_start, ptp_end)):
                for other_start, other_end, owner in claimed:
                    if start < other_end and other_start < end:
                        raise ZoneViolationError(
                            f"VM {vm.vm_id} overlaps host range of {owner}"
                        )
                claimed.append((start, end, f"VM {vm.vm_id}"))
            row_bytes = self._module.geometry.row_bytes
            host_map = self._module.cell_map
            for row in range(ptp_start // row_bytes, ptp_end // row_bytes):
                if host_map.type_of_row(row) is not CellType.TRUE:
                    raise ZoneViolationError(
                        f"VM {vm.vm_id} PTP slice includes anti-cell host row {row}"
                    )
            vm.kernel.verify_cta_rules()

    def host_page_tables(self) -> List[int]:
        """Host pfns of every guest's page tables (for audits)."""
        pfns = []
        for vm in self._guests.values():
            for guest_pfn in vm.kernel.page_table_pfns():
                host = vm.window.host_address(guest_pfn << PAGE_SHIFT)
                pfns.append(host >> PAGE_SHIFT)
        return sorted(pfns)
