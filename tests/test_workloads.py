"""Tests for the workload layer: layout, traces, kernels, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AddressMapping, GPUConfig
from repro.errors import WorkloadError
from repro.workloads import TABLE_II, get_workload, list_workloads
from repro.workloads.layout import AddressSpace
from repro.workloads.traces import dram_row_groups, row_visit_streams

CONFIG = GPUConfig()


class TestAddressSpace:
    def make(self) -> tuple[AddressSpace, dict[str, np.ndarray]]:
        space = AddressSpace()
        arrays = {
            "A": np.arange(1024, dtype=np.float32),
            "B": np.arange(512, dtype=np.float32) * 2,
        }
        space.add("A", arrays["A"], approximable=True)
        space.add("B", arrays["B"])
        return space, arrays

    def test_bases_are_chunk_aligned(self) -> None:
        space, _ = self.make()
        for spec in space.arrays:
            assert spec.base % 256 == 0

    def test_addr_of_and_bounds(self) -> None:
        space, _ = self.make()
        assert space.addr_of("A", 0) == space.spec("A").base
        assert space.addr_of("A", 10) == space.spec("A").base + 40
        with pytest.raises(WorkloadError):
            space.addr_of("A", 5000)
        with pytest.raises(WorkloadError):
            space.spec("missing")

    def test_duplicate_rejected(self) -> None:
        space, _ = self.make()
        with pytest.raises(WorkloadError):
            space.add("A", np.zeros(4, dtype=np.float32))

    def test_locate_line_roundtrip(self) -> None:
        space, _ = self.make()
        line = space.line_of("B", 100)
        spec, lo, hi = space.locate_line(line)
        assert spec.name == "B"
        assert hi - lo <= 128

    def test_locate_unmapped_line(self) -> None:
        space, _ = self.make()
        beyond = space.footprint_bytes + 10_000
        assert space.locate_line(beyond - beyond % 128) is None

    def test_read_write_line_bytes_roundtrip(self) -> None:
        space, arrays = self.make()
        line = space.line_of("A", 32)
        payload = space.read_line_bytes(arrays, line)
        assert len(payload) == 128
        # Writing the same bytes back is a no-op.
        copies = {k: v.copy() for k, v in arrays.items()}
        assert space.write_line_bytes(copies, line, payload)
        np.testing.assert_array_equal(copies["A"], arrays["A"])

    def test_write_line_substitutes_values(self) -> None:
        space, arrays = self.make()
        target = space.line_of("A", 0)
        donor = space.line_of("A", 64)
        copies = {k: v.copy() for k, v in arrays.items()}
        space.write_line_bytes(
            copies, target, space.read_line_bytes(arrays, donor)
        )
        np.testing.assert_array_equal(copies["A"][:32], arrays["A"][64:96])

    @given(idx=st.integers(min_value=0, max_value=1023))
    @settings(max_examples=50, deadline=None)
    def test_line_alignment_property(self, idx: int) -> None:
        space, _ = self.make()
        line = space.line_of("A", idx)
        assert line % 128 == 0
        assert line <= space.addr_of("A", idx) < line + 128


class TestRowVisitStreams:
    def setup_method(self) -> None:
        self.space = AddressSpace()
        self.data = np.zeros(65536, dtype=np.float32)  # 256 KB = 128 rows
        self.space.add("X", self.data, approximable=True)
        self.mapping = AddressMapping()

    def test_groups_are_complete_rows(self) -> None:
        groups = dram_row_groups(self.space, "X", self.mapping)
        # 256 KB spans ~128 DRAM rows of 16 lines; rows clipped at the
        # array edges may be partial (the 12 KB row-group period does not
        # divide the base address).
        assert 128 <= len(groups) <= 134
        assert sum(len(g) for g in groups) == 2048  # every line grouped
        assert sum(1 for g in groups if len(g) == 16) >= 124
        for g in groups:
            decoded = {
                (self.mapping.decode(a).channel,
                 self.mapping.decode(a).bank,
                 self.mapping.decode(a).row)
                for a in g
            }
            assert len(decoded) == 1

    def test_single_visit_lines_per_visit(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=4, lines_per_visit=3, visits_per_row=1, compute=10.0,
        )
        assert len(streams) == 4
        ops = [op for s in streams for op in s]
        groups = dram_row_groups(self.space, "X", self.mapping)
        assert len(ops) == len(groups)  # one visit per row
        assert all(1 <= len(op.accesses) <= 3 for op in ops)
        assert sum(1 for op in ops if len(op.accesses) == 3) >= 124

    def test_lines_per_op_splits_visits(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=2, lines_per_visit=4, lines_per_op=2,
            visits_per_row=1, compute=10.0,
        )
        ops = [op for s in streams for op in s]
        assert all(1 <= len(op.accesses) <= 2 for op in ops)
        # Each row's 4-line visit splits into two 2-line ops.
        assert sum(len(op.accesses) for op in ops) >= 4 * 124

    def test_paired_visits_are_disjoint_lines(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=2, lines_per_visit=2, visits_per_row=2,
            skew_cycles=100.0, compute=10.0,
        )
        lead, trail = streams
        lead_addrs = {a.addr for op in lead for a in op.accesses}
        trail_addrs = {a.addr for op in trail for a in op.accesses}
        assert not lead_addrs & trail_addrs
        # The trail starts with the idle (skew) op.
        assert trail[0].accesses == ()
        assert trail[0].compute_cycles == 100.0

    def test_repeat_visits_reread_same_lines(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=2, lines_per_visit=2, visits_per_row=2,
            repeat_visits=True, compute=10.0,
        )
        lead, trail = streams
        lead_addrs = [a.addr for op in lead for a in op.accesses]
        trail_addrs = [a.addr for op in trail for a in op.accesses]
        assert lead_addrs == trail_addrs

    def test_row_range_partitions(self) -> None:
        lo = row_visit_streams(
            self.space, "X", self.mapping, n_warps=2,
            lines_per_visit=1, compute=1.0, row_range=(0.0, 0.5),
        )
        hi = row_visit_streams(
            self.space, "X", self.mapping, n_warps=2,
            lines_per_visit=1, compute=1.0, row_range=(0.5, 1.0),
        )
        lo_addrs = {a.addr for s in lo for op in s for a in op.accesses}
        hi_addrs = {a.addr for s in hi for op in s for a in op.accesses}
        assert not lo_addrs & hi_addrs

    def test_skew_tuple_spreads(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=8, lines_per_visit=2, visits_per_row=2,
            skew_cycles=(100.0, 400.0), compute=10.0,
        )
        idles = [s[0].compute_cycles for s in streams[1::2]]
        assert min(idles) == 100.0
        assert max(idles) == 400.0
        assert len(set(idles)) > 1

    def test_approximable_annotation_propagates(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=2, lines_per_visit=1, compute=1.0,
        )
        assert all(
            a.approximable for s in streams for op in s for a in op.accesses
        )

    def test_writes_never_approximable(self) -> None:
        streams = row_visit_streams(
            self.space, "X", self.mapping,
            n_warps=2, lines_per_visit=1, compute=1.0, write=True,
        )
        accesses = [a for s in streams for op in s for a in op.accesses]
        assert all(a.is_write and not a.approximable for a in accesses)


class TestRegistryAndKernels:
    def test_all_twenty_apps_registered(self) -> None:
        names = list_workloads()
        assert len(TABLE_II) == 20
        # The 20 Table II applications plus the dial-a-characteristic
        # synthetic workload (usable from `repro-harness trace`).
        assert set(names) == set(TABLE_II) | {"synthetic"}

    def test_unknown_app_rejected(self) -> None:
        with pytest.raises(WorkloadError):
            get_workload("quake3")

    @pytest.mark.parametrize("name", sorted(TABLE_II))
    def test_traces_map_to_registered_arrays(self, name: str) -> None:
        wl = get_workload(name, scale=0.12)
        streams = wl.warp_streams(CONFIG)
        assert streams, f"{name} produced no warps"
        for stream in streams[:4]:
            for op in stream[:8]:
                for access in op.accesses:
                    located = wl.space.locate_line(
                        access.addr - access.addr % 128
                    )
                    assert located is not None

    @pytest.mark.parametrize("name", sorted(TABLE_II))
    def test_kernels_run_and_are_deterministic(self, name: str) -> None:
        wl = get_workload(name, scale=0.12)
        out1 = wl.run_exact()
        out2 = get_workload(name, scale=0.12).run_exact()
        np.testing.assert_array_equal(out1, out2)
        assert np.isfinite(np.asarray(out1, dtype=np.float64)).all()

    def test_scale_changes_problem_size(self) -> None:
        small = get_workload("GEMM", scale=0.12)
        big = get_workload("GEMM", scale=0.5)
        assert big.space.footprint_bytes > small.space.footprint_bytes

    def test_output_error_zero_for_identical(self) -> None:
        wl = get_workload("SCP", scale=0.12)
        out = wl.run_exact()
        assert wl.output_error(out, out.copy()) == 0.0

    def test_jmein_uses_mismatch_rate(self) -> None:
        wl = get_workload("jmein", scale=0.12)
        exact = np.array([1.0, 0.0, 1.0, 1.0])
        approx = np.array([1.0, 1.0, 1.0, 0.0])
        assert wl.output_error(exact, approx) == pytest.approx(0.5)
