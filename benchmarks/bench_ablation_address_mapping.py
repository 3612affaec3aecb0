"""Ablation — address-mapping scheme vs row-buffer locality.

The paper's related work (Zhang et al., MICRO 2000) reduces row-buffer
conflicts by permuting the bank index; the paper argues its scheduling
approach is complementary. This ablation runs a thrash-heavy workload
under both mappings, with and without DMS.
"""

from repro.config import (
    AddressMapping,
    GPUConfig,
    baseline_scheduler,
    static_dms,
)
from repro.harness.tables import format_table
from repro.sim.spec import SimSpec
from repro.sim.system import simulate_spec
from repro.workloads import get_workload

APP = "MVT"


def config_for(scheme: str) -> GPUConfig:
    return GPUConfig(mapping=AddressMapping(scheme=scheme))


def run_all(scale: float):
    out = {}
    for scheme in ("bank_interleaved", "permuted"):
        cfg = config_for(scheme)
        base = simulate_spec(
            get_workload(APP, scale=scale),
            SimSpec(scheduler=baseline_scheduler(), config=cfg),
        )
        dms = simulate_spec(
            get_workload(APP, scale=scale),
            SimSpec(scheduler=static_dms(1024), config=cfg),
        )
        out[scheme] = (base, dms)
    return out


def test_address_mapping_ablation(runner, benchmark):
    results = benchmark.pedantic(lambda: run_all(runner.scale),
                                 rounds=1, iterations=1)
    rows = []
    for scheme, (base, dms) in results.items():
        rows.append([
            scheme,
            base.activations,
            f"{base.avg_rbl:.2f}",
            f"{1 - dms.activations / base.activations:.1%}",
        ])
    print()
    print(format_table(
        ["mapping", "baseline acts", "avg RBL", "DMS(1024) act reduction"],
        rows, title=f"Address-mapping ablation on {APP}",
    ))
    plain_base, plain_dms = results["bank_interleaved"]
    perm_base, perm_dms = results["permuted"]
    # Both mappings leave DMS headroom (the paper's complementarity
    # argument): delay still reduces activations under either scheme.
    assert plain_dms.activations < plain_base.activations
    assert perm_dms.activations < perm_base.activations
