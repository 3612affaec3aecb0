"""End-to-end property tests: invariants of full simulations.

These drive the whole system (frontend -> L2 -> controller -> DRAM)
with randomized small workload shapes and check conservation laws, the
coverage bound, determinism, and — via the independent TimingChecker —
that every DRAM command stream the scheduler emits is protocol-legal,
under every selector and arbiter, both row policies, every device
preset, and with refresh on or off.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    AMSConfig,
    AMSMode,
    DMSConfig,
    DMSMode,
    GPUConfig,
    SchedulerConfig,
)
from repro.config.tenants import TENANT_CLASSES, TenantMixSpec, TenantSpec
from repro.dram import TimingChecker
from repro.dram.devices import device_names, get_device
from repro.sched.policies import arbiter_names, selector_names
from repro.sim.spec import SimSpec
from repro.sim.system import GPUSystem
from repro.telemetry import MetricsHub
from repro.workloads.layout import AddressSpace
from repro.workloads.tenant_mix import TenantMix
from repro.workloads.traces import row_visit_streams


def build_streams(
    *,
    n_warps: int,
    lines_per_visit: int,
    visits: int,
    skew: float,
    approximable: bool,
    write_component: bool,
    seed: int,
    config: GPUConfig,
):
    space = AddressSpace()
    data = np.zeros(98304, dtype=np.float32)  # 384 KB
    space.add("X", data, approximable=approximable)
    streams = row_visit_streams(
        space, "X", config.mapping,
        n_warps=n_warps,
        lines_per_visit=lines_per_visit,
        visits_per_row=visits,
        skew_cycles=skew if visits > 1 else 0.0,
        compute=30.0,
        shuffle_seed=seed,
    )
    if write_component:
        streams += row_visit_streams(
            space, "X", config.mapping,
            n_warps=2, lines_per_visit=1, visits_per_row=1,
            line_offset=8, compute=30.0, write=True,
        )
    return streams


scheduler_strategy = st.sampled_from(
    [
        SchedulerConfig(),
        SchedulerConfig(
            dms=DMSConfig(mode=DMSMode.STATIC, static_delay=256)
        ),
        SchedulerConfig(
            dms=DMSConfig(mode=DMSMode.DYNAMIC, window_cycles=512,
                          windows_per_phase=8)
        ),
        SchedulerConfig(
            ams=AMSConfig(mode=AMSMode.STATIC, static_th_rbl=8,
                          coverage_limit=0.10, warmup_fills=16)
        ),
        SchedulerConfig(
            dms=DMSConfig(mode=DMSMode.STATIC, static_delay=128),
            ams=AMSConfig(mode=AMSMode.DYNAMIC, coverage_limit=0.10,
                          window_cycles=512, warmup_fills=16),
        ),
    ]
)


#: One selector or arbiter, row policy, device and refresh setting.
policy_strategy = st.fixed_dictionaries({
    "row_policy": st.sampled_from(["open", "close"]),
    "device": st.sampled_from(device_names()),
    "refresh": st.booleans(),
})


def assert_protocol_legal_and_conserved(system, report) -> None:
    """Every channel's command stream passes the TimingChecker, and
    every arriving request is served or dropped."""
    for channel in system.channels:
        checker = TimingChecker(channel.timings)
        checker.check_stream(channel.command_log)
    arrived = sum(
        s.reads_arrived + s.writes_arrived for s in report.channel_stats
    )
    assert report.requests_served + report.requests_dropped == arrived


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler=scheduler_strategy,
    selector=st.sampled_from(selector_names()),
    policy=policy_strategy,
    n_warps=st.sampled_from([4, 10, 24]),
    lines_per_visit=st.integers(min_value=1, max_value=4),
    visits=st.integers(min_value=1, max_value=2),
    skew=st.sampled_from([200.0, 900.0]),
    approximable=st.booleans(),
    write_component=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
)
def test_full_system_invariants(
    scheduler, selector, policy, n_warps, lines_per_visit, visits, skew,
    approximable, write_component, seed,
) -> None:
    scheduler = replace(
        scheduler, arbiter=selector, row_policy=policy["row_policy"]
    )
    config = get_device(policy["device"]).apply(
        GPUConfig(refresh_enabled=policy["refresh"])
    )
    system = GPUSystem(config, scheduler, log_commands=True)
    streams = build_streams(
        n_warps=n_warps,
        lines_per_visit=lines_per_visit,
        visits=visits,
        skew=skew,
        approximable=approximable,
        write_component=write_component,
        seed=seed,
        config=system.config,
    )
    report = system.run(streams, workload_name="prop")

    # RBL accounting: the histogram partitions all served requests.
    hist = report.rbl_histogram
    assert sum(r * c for r, c in hist.items()) == report.requests_served
    assert sum(hist.values()) == report.activations + sum(
        1 for s in report.channel_stats for _ in ()
    )

    # Coverage never exceeds the configured bound.
    if scheduler.ams.mode is not AMSMode.OFF:
        assert report.coverage <= scheduler.ams.coverage_limit + 1e-9
    else:
        assert report.requests_dropped == 0

    # Drops only ever happen on annotated (approximable) data.
    if not approximable:
        assert report.requests_dropped == 0

    assert_protocol_legal_and_conserved(system, report)

    # Energy accounting is consistent with the counters.
    expected_row = report.activations * system.config.energy.e_act_nj
    assert report.row_energy_nj == pytest.approx(expected_row)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler=scheduler_strategy,
    arbiter=st.sampled_from(arbiter_names()),
    policy=policy_strategy,
    tenants=st.lists(
        st.tuples(
            st.sampled_from(["synthetic", "MVT", "ATAX", "SCP"]),
            st.sampled_from(TENANT_CLASSES),
        ),
        min_size=2, max_size=3,
    ),
    scale=st.sampled_from([0.02, 0.05]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_tenant_mix_invariants(
    scheduler, arbiter, policy, tenants, scale, seed,
) -> None:
    """A 2-3 tenant mix under every arbiter is protocol-legal and
    conserves requests, per tenant too, and drops only the requests of
    ``approx-batch`` tenants."""
    mix = TenantMixSpec(
        tenants=tuple(
            TenantSpec(f"t{i}", workload, tenant_class)
            for i, (workload, tenant_class) in enumerate(tenants)
        ),
        arbiter=arbiter,
    )
    spec = SimSpec(
        scheduler=replace(scheduler, row_policy=policy["row_policy"]),
        device=policy["device"],
        config=GPUConfig(refresh_enabled=policy["refresh"]),
        tenants=mix,
    )
    system = GPUSystem.from_spec(spec, log_commands=True)
    workload = TenantMix(mix, scale=scale, seed=seed)
    report = system.run(
        workload.trace(system.config),
        workload_name=workload.name,
        stream_tenants=workload.stream_tenants,
    )
    assert_protocol_legal_and_conserved(system, report)
    for tenant in report.tenants.tenants:
        arrived = tenant.reads_arrived + tenant.writes_arrived
        assert tenant.requests_served + tenant.requests_dropped == arrived
        if tenant.tenant_class != "approx-batch":
            assert tenant.requests_dropped == 0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler=scheduler_strategy,
    n_warps=st.sampled_from([4, 16]),
    lines_per_visit=st.integers(min_value=1, max_value=4),
    window_cycles=st.sampled_from([256, 512, 1024]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_telemetry_window_invariants(
    scheduler, n_warps, lines_per_visit, window_cycles, seed,
) -> None:
    """Per-window telemetry is consistent with the aggregate report.

    The windowed series must tile the run (contiguous, ordered windows),
    its busy cycles must sum *exactly* to the channels' aggregate bus
    occupancy, and every recorded mechanism trajectory must stay inside
    the paper's bounds: Dyn-DMS X in [0, 2048] in multiples of 128,
    Dyn-AMS Th_RBL in [1, 8], cumulative coverage within the 10% cap.
    """
    hub = MetricsHub(window_cycles=window_cycles)
    system = GPUSystem(scheduler=scheduler, telemetry=hub)
    streams = build_streams(
        n_warps=n_warps,
        lines_per_visit=lines_per_visit,
        visits=1,
        skew=0.0,
        approximable=True,
        write_component=False,
        seed=seed,
        config=system.config,
    )
    report = system.run(streams, workload_name="prop-telemetry")
    timeline = report.timeline
    assert timeline is not None and len(timeline) > 0
    n_channels = len(system.channels)

    # Windows tile the run: ordered indices, contiguous spans, and the
    # last window covers the end of the simulation.
    prev_end = 0.0
    for i, sample in enumerate(timeline):
        assert sample.index == i
        assert sample.start == prev_end
        assert sample.end > sample.start
        prev_end = sample.end
    assert prev_end >= report.elapsed_mem_cycles

    # Busy-cycle conservation: per-window busy sums to the aggregate
    # bus occupancy (windowing only re-associates the float additions,
    # so the tolerance covers rounding alone), and hence to
    # report.bwutil scaled back up.
    total_busy = sum(ch.stats.bus.total_busy for ch in system.channels)
    assert sum(s.busy_cycles for s in timeline) == pytest.approx(
        total_busy, abs=1e-6
    )
    assert report.bwutil == pytest.approx(
        total_busy / (report.elapsed_mem_cycles * n_channels)
    )

    # Windowed counter deltas sum back to the aggregate counters.
    assert sum(s.activations for s in timeline) == report.activations
    assert sum(s.drops for s in timeline) == report.requests_dropped
    assert (
        sum(s.requests_served for s in timeline) == report.requests_served
    )

    for sample in timeline:
        assert len(sample.dms_x) == n_channels
        assert len(sample.th_rbl) == n_channels
        for x in sample.dms_x:
            assert 0 <= x <= 2048
            assert x % 128 == 0
        for th in sample.th_rbl:
            assert 1 <= th <= 8
        assert 0.0 <= sample.bwutil <= 1.0 + 1e-9
        if scheduler.ams.mode is not AMSMode.OFF:
            assert (
                sample.coverage <= scheduler.ams.coverage_limit + 1e-9
            )
        else:
            assert sample.coverage == 0.0

    # Final-window trajectory values match the report's final state.
    assert timeline.samples[-1].dms_x == list(report.final_dms_delays)
    assert timeline.samples[-1].th_rbl == list(report.final_th_rbls)


def test_determinism_across_identical_runs() -> None:
    def once() -> tuple:
        system = GPUSystem(
            scheduler=SchedulerConfig(
                dms=DMSConfig(mode=DMSMode.DYNAMIC, window_cycles=512,
                              windows_per_phase=8),
                ams=AMSConfig(mode=AMSMode.DYNAMIC, coverage_limit=0.10,
                              window_cycles=512, warmup_fills=16),
            )
        )
        streams = build_streams(
            n_warps=16, lines_per_visit=2, visits=2, skew=400.0,
            approximable=True, write_component=True, seed=1,
            config=system.config,
        )
        r = system.run(streams, workload_name="det")
        return (
            r.elapsed_mem_cycles,
            r.activations,
            r.requests_served,
            r.requests_dropped,
            # rids come from a process-global counter; compare the
            # physically meaningful identity of each drop instead.
            tuple(sorted((d.addr, d.time, d.donor_line_addr or -1)
                         for d in r.drops)),
        )

    assert once() == once()
