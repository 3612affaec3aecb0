"""Tests for the approximation-replay pipeline and quality metrics."""

import json

import numpy as np
import pytest

from repro.approx import (
    build_perturbed_inputs,
    mean_relative_error,
    measure_application_error,
    mismatch_rate,
    psnr,
    rmse,
)
from repro.vp.predictor import DropRecord
from repro.workloads import get_workload
from repro.workloads.layout import AddressSpace


def drop(addr: int, donor_line: int | None) -> DropRecord:
    return DropRecord(
        rid=0, addr=addr, tag=None, donor_line_addr=donor_line,
        time=0.0, channel=0,
    )


class TestBuildPerturbedInputs:
    def setup_method(self) -> None:
        self.space = AddressSpace()
        self.a = np.arange(256, dtype=np.float32)
        self.space.add("A", self.a, approximable=True)
        self.b = np.arange(256, dtype=np.float32) + 1000
        self.space.add("B", self.b, approximable=False)
        self.arrays = {"A": self.a, "B": self.b}

    def test_donor_values_substituted(self) -> None:
        target = self.space.line_of("A", 0)
        donor_line_addr = self.space.line_of("A", 32) // 128
        perturbed = build_perturbed_inputs(
            self.space, self.arrays, [drop(target, donor_line_addr)]
        )
        np.testing.assert_array_equal(
            perturbed["A"][:32], self.a[32:64]
        )
        # Untouched elements are identical.
        np.testing.assert_array_equal(perturbed["A"][32:], self.a[32:])

    def test_no_donor_means_zeros(self) -> None:
        target = self.space.line_of("A", 64)
        perturbed = build_perturbed_inputs(
            self.space, self.arrays, [drop(target, None)]
        )
        assert (perturbed["A"][64:96] == 0).all()

    def test_non_approximable_arrays_never_touched(self) -> None:
        target = self.space.line_of("B", 0)
        perturbed = build_perturbed_inputs(
            self.space, self.arrays, [drop(target, None)]
        )
        np.testing.assert_array_equal(perturbed["B"], self.b)

    def test_unmapped_drop_ignored(self) -> None:
        far = self.space.footprint_bytes + 4096
        perturbed = build_perturbed_inputs(
            self.space, self.arrays, [drop(far - far % 128, None)]
        )
        np.testing.assert_array_equal(perturbed["A"], self.a)

    def test_originals_never_mutated(self) -> None:
        snapshot = self.a.copy()
        target = self.space.line_of("A", 0)
        build_perturbed_inputs(
            self.space, self.arrays, [drop(target, None)]
        )
        np.testing.assert_array_equal(self.a, snapshot)


class TestMeasureApplicationError:
    def test_no_drops_no_error(self) -> None:
        wl = get_workload("SCP", scale=0.12)
        assert measure_application_error(wl, []) == 0.0

    def test_drops_cause_bounded_error(self) -> None:
        wl = get_workload("meanfilter", scale=0.12)
        spec = wl.space.spec("img")
        drops = [
            drop(spec.base + i * 128, (spec.base + (i + 1) * 128) // 128)
            for i in range(8)
        ]
        err = measure_application_error(wl, drops)
        assert 0.0 < err < 0.05  # smooth image: tiny error

    def test_zero_donor_worse_than_exact_donor(self) -> None:
        wl = get_workload("meanfilter", scale=0.12)
        spec = wl.space.spec("img")
        exact = [
            drop(spec.base + i * 128, (spec.base + i * 128) // 128)
            for i in range(8)
        ]
        zeros = [drop(spec.base + i * 128, None) for i in range(8)]
        assert measure_application_error(wl, exact) == 0.0
        assert measure_application_error(wl, zeros) > 0.0

    def test_blackscholes_cell_with_zeroed_strikes_has_finite_error(
        self,
    ) -> None:
        # This cell's replayed drops zero 96 strikes, 64 of them beside
        # a zero spot. Priced as 0 / 0, they made the error NaN, which
        # the report's JSON then carried as the non-standard token NaN.
        from repro.harness.cache import encode_report
        from repro.harness.runner import Runner
        from repro.harness.schemes import evaluation_schemes

        runner = Runner(scale=0.1, seed=7, cache=None, verbose=False)
        report = runner.run(
            "blackscholes",
            evaluation_schemes()["Static-DMS+Static-AMS"],
            measure_error=True,
        )
        assert report.drops
        assert np.isfinite(report.application_error)
        json.loads(encode_report(report), parse_constant=pytest.fail)


class TestQualityMetrics:
    def test_mean_relative_error(self) -> None:
        e = np.array([1.0, 2.0, 4.0])
        a = np.array([1.1, 2.0, 4.0])
        assert mean_relative_error(e, a) == pytest.approx(0.1 / 3)

    def test_rmse_and_psnr(self) -> None:
        e = np.full((8, 8), 100.0)
        a = e + 10.0
        assert rmse(e, a) == pytest.approx(10.0)
        assert psnr(e, a) == pytest.approx(20 * np.log10(255 / 10))
        assert psnr(e, e) == float("inf")

    def test_mismatch_rate(self) -> None:
        assert mismatch_rate(np.array([1, 0, 1]), np.array([1, 1, 1])) == (
            pytest.approx(1 / 3)
        )
