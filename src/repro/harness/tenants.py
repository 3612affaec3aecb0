"""Per-tenant slowdown/fairness attribution for multi-tenant runs.

A shared run's :class:`~repro.sim.report.TenantReport` entries carry the
intrinsic counters (finish time, served, drops, activations); what they
*mean* requires each tenant's **solo baseline** — the same workload at
the same effective scale and seed, simulated alone under the same scheme
and device. :func:`attach_slowdowns` runs (or cache-loads) those
baselines through a runner derived from the parent's (same spec minus
the mix, same cache), then fills in ``solo_mem_cycles``,
``slowdown = finish / solo``, and the mix-wide Jain fairness index.

Slowdown and fairness are **presentation data**: the runner persists the
shared report to the result cache *before* this module touches it, so
cached blobs never embed baseline-dependent numbers.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.scheduler import AMSMode, DMSMode, SchedulerConfig
from repro.config.tenants import TenantMixSpec, TenantSpec
from repro.harness.fairness import jain_index, slowdown
from repro.sim.report import SimReport, TenantSummary


def scheme_for_tenant(
    scheme: SchedulerConfig, tenant: TenantSpec
) -> SchedulerConfig:
    """The scheme as *this tenant's class* experiences it.

    Per-tenant policy scoping exempts ``latency`` tenants from the DMS
    activation gate and every non-``approx-batch`` tenant from AMS
    drops, so a fair solo baseline must apply the same exemptions — a
    latency tenant compared against a solo run that *does* pay the DMS
    delay would show slowdowns below 1.0, crediting the shared system
    with speedups the arbiter never produced.
    """
    dms = (
        scheme.dms if tenant.gated
        else replace(scheme.dms, mode=DMSMode.OFF)
    )
    ams = (
        scheme.ams if tenant.approximable
        else replace(scheme.ams, mode=AMSMode.OFF)
    )
    if dms is scheme.dms and ams is scheme.ams:
        return scheme
    return replace(scheme, dms=dms, ams=ams)


def solo_baseline(
    runner,
    tenant: TenantSpec,
    scheme: SchedulerConfig,
) -> SimReport:
    """Simulate (or cache-load) one tenant's solo run.

    The effective scale and seed reproduce exactly how
    :class:`~repro.workloads.tenant_mix.TenantMix` constructed the
    member inside the shared run (``runner.scale * tenant.scale``,
    tenant seed falling back to the runner's), and the scheme carries
    the tenant's class exemptions (:func:`scheme_for_tenant`), so the
    baseline replays the very same warp stream under the very same
    per-request policy — just without neighbours.
    """
    sub = replace(
        runner,
        scale=runner.scale * tenant.scale,
        seed=tenant.seed if tenant.seed is not None else runner.seed,
        spec=replace(runner.spec, tenants=None),
    )
    return sub.run(
        tenant.workload,
        scheme_for_tenant(scheme, tenant),
        label=f"solo:{tenant.name}",
    )


def attach_slowdowns(
    report: SimReport,
    runner,
    mix: TenantMixSpec,
    scheme: SchedulerConfig,
) -> SimReport:
    """Fill per-tenant slowdowns and Jain fairness on a shared report.

    Mutates ``report.tenants`` in place and returns the report. A
    report without a tenant section (single-tenant passthrough) is
    returned untouched — alone, there is no one to be slowed down by.
    """
    summary = report.tenants
    if summary is None:
        return report
    slowdowns: list[float] = []
    for tenant, entry in zip(mix.tenants, summary.tenants):
        solo = solo_baseline(runner, tenant, scheme)
        entry.solo_mem_cycles = solo.elapsed_mem_cycles
        entry.slowdown = slowdown(
            entry.finish_mem_cycles, solo.elapsed_mem_cycles
        )
        slowdowns.append(entry.slowdown)
    summary.jain_fairness = jain_index(slowdowns)
    return report


def fairness_table(summary: TenantSummary) -> str:
    """Render the per-tenant slowdown/fairness/energy table.

    One row per tenant: class, served/dropped column accesses, the
    tenant's share of row energy (activation-proportional), and — when
    :func:`attach_slowdowns` ran — its solo-relative slowdown.
    """
    header = (
        f"{'tenant':<16} {'class':<12} {'served':>8} {'drops':>7} "
        f"{'row-energy':>10} {'slowdown':>9}"
    )
    lines = [header, "-" * len(header)]
    energy_shares = summary.row_energy_shares()
    for tenant, share in zip(summary.tenants, energy_shares):
        slow = (
            f"{tenant.slowdown:9.2f}" if tenant.slowdown is not None
            else f"{'-':>9}"
        )
        lines.append(
            f"{tenant.name:<16} {tenant.tenant_class:<12} "
            f"{tenant.requests_served:>8} {tenant.requests_dropped:>7} "
            f"{share:>10.1%} {slow}"
        )
    lines.append("-" * len(header))
    jain = (
        f"{summary.jain_fairness:.3f}"
        if summary.jain_fairness is not None else "-"
    )
    lines.append(f"arbiter {summary.arbiter}   Jain fairness {jain}")
    return "\n".join(lines)

