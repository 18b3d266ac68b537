"""Hypervisor / VM support (Section 7)."""

import pytest

from repro.dram.cells import CellType, CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.errors import CapacityError, ConfigurationError, ZoneViolationError
from repro.kernel.hypervisor import GuestPhysicalWindow, Hypervisor
from repro.units import MIB, PAGE_SHIFT, PAGE_SIZE


ROW = 16 * 1024


@pytest.fixture
def host_module():
    geometry = DramGeometry(total_bytes=64 * MIB, row_bytes=ROW, num_banks=2)
    # 64-row period -> 1 MiB same-type regions, so a 1 MiB guest PTP slice
    # fits inside one contiguous true-cell range.
    cell_map = CellTypeMap.interleaved(geometry, period_rows=64)
    return DramModule(geometry, cell_map)


@pytest.fixture
def hypervisor(host_module):
    return Hypervisor(host_module, hypervisor_zone_bytes=8 * MIB)


class TestGuestPhysicalWindow:
    def test_address_translation(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=0, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        assert window.host_address(0x1234) == 0x1234
        assert window.host_address(2 * MIB) == 60 * MIB
        assert window.host_address(2 * MIB + 5) == 60 * MIB + 5
        with pytest.raises(ConfigurationError):
            window.host_address(3 * MIB)

    def test_writes_reach_host(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=MIB, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        window.write(0x100, b"guest data")
        assert host_module.read(MIB + 0x100, 10) == b"guest data"
        window.write(2 * MIB + 8, b"pte")
        assert host_module.read(60 * MIB + 8, 3) == b"pte"

    def test_cell_types_inherited_from_host(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=0, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        host_map = host_module.cell_map
        for guest_row in (0, 10, 130):
            guest_address = guest_row * ROW
            host_row = window.host_address(guest_address) // ROW
            assert (
                window.cell_map.type_of_row(guest_row)
                is host_map.type_of_row(host_row)
            )

    def test_alignment_enforced(self, host_module):
        with pytest.raises(ConfigurationError):
            GuestPhysicalWindow(host_module, 100, 2 * MIB, 60 * MIB, MIB)


class TestHypervisor:
    def test_zone_sits_high(self, hypervisor, host_module):
        assert hypervisor.zone_hypervisor_base > host_module.geometry.total_bytes // 2

    def test_guest_boots_with_cta(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        assert vm.kernel.cta_enabled
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 4 * PAGE_SIZE)
        vm.kernel.write_virtual(process, vma.start, b"guest payload")
        assert vm.kernel.read_virtual(process, vma.start, 13) == b"guest payload"
        hypervisor.verify_isolation()

    def test_guest_page_tables_land_in_hypervisor_zone(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 2 * PAGE_SIZE)
        vm.kernel.touch(process, vma.start, write=True)
        base = hypervisor.zone_hypervisor_base >> PAGE_SHIFT
        for host_pfn in hypervisor.host_page_tables():
            assert host_pfn >= base

    def test_guest_batched_paging_reads_and_writes_host_memory(self, hypervisor):
        """The batched walk, zeroing and leaf stores go through the window.

        After a TLB flush every page is walked again; a walk that read
        the window's own (never written) rows would see no page tables
        and re-fault pages that are mapped.
        """
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        kernel = vm.kernel
        process = kernel.create_process()
        vma = kernel.mmap(process, 16 * PAGE_SIZE)
        vas = [vma.start + page * PAGE_SIZE for page in range(16)]
        pas = kernel.touch_many(process, vas, write=True)
        kernel.tlb.flush()
        assert kernel.touch_many(process, vas, write=True) == pas
        assert kernel.stats.demand_faults == 16
        translated = kernel.mmu.translate_many(process.cr3, vas, pid=process.pid)
        assert list(translated) == pas
        kernel.write_virtual(process, vas[3], b"guest")
        assert kernel.read_virtual(process, vas[3], 5) == b"guest"
        hypervisor.verify_isolation()

    def test_guest_data_lands_below_zone(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 4 * PAGE_SIZE)
        for page in range(4):
            guest_pa = vm.kernel.touch(process, vma.start + page * PAGE_SIZE, write=True)
            host_pa = vm.window.host_address(guest_pa)
            assert host_pa < hypervisor.zone_hypervisor_base

    def test_two_guests_disjoint(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        assert vm_a.host_data_range[1] <= vm_b.host_data_range[0]
        a_ptp, b_ptp = vm_a.host_ptp_range, vm_b.host_ptp_range
        assert a_ptp[1] <= b_ptp[0] or b_ptp[1] <= a_ptp[0]
        for vm in (vm_a, vm_b):
            process = vm.kernel.create_process()
            vma = vm.kernel.mmap(process, PAGE_SIZE)
            vm.kernel.touch(process, vma.start, write=True)
        hypervisor.verify_isolation()

    def test_guest_writes_do_not_leak_across_vms(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        process_a = vm_a.kernel.create_process()
        process_b = vm_b.kernel.create_process()
        vma_a = vm_a.kernel.mmap(process_a, PAGE_SIZE)
        vma_b = vm_b.kernel.mmap(process_b, PAGE_SIZE)
        vm_a.kernel.write_virtual(process_a, vma_a.start, b"AAAA")
        vm_b.kernel.write_virtual(process_b, vma_b.start, b"BBBB")
        assert vm_a.kernel.read_virtual(process_a, vma_a.start, 4) == b"AAAA"
        assert vm_b.kernel.read_virtual(process_b, vma_b.start, 4) == b"BBBB"

    def test_hypervisor_zone_exhaustion(self, host_module):
        hypervisor = Hypervisor(host_module, hypervisor_zone_bytes=MIB)
        hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        with pytest.raises(CapacityError):
            hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)

    def test_guest_ptp_slices_are_true_cells(self, hypervisor, host_module):
        vm = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        host_map = host_module.cell_map
        start, end = vm.host_ptp_range
        for row in range(start // ROW, end // ROW):
            assert host_map.type_of_row(row) is CellType.TRUE

    def test_isolation_check_catches_overlap(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        # Corrupt the bookkeeping to simulate a provisioning bug.
        vm_b.host_data_range = vm_a.host_data_range
        with pytest.raises(ZoneViolationError):
            hypervisor.verify_isolation()
