"""Mathematical correctness of the workload kernels.

The application-error pipeline is only as meaningful as the kernels it
replays, so each kernel is checked against an independent property or
reference implementation.
"""

import warnings

import numpy as np
import pytest

from repro.workloads import get_workload

SCALE = 0.12


def kernel_output(name: str):
    wl = get_workload(name, scale=SCALE)
    return wl, wl.run_exact()


class TestLinearAlgebraKernels:
    def test_gemm_matches_numpy(self) -> None:
        wl, out = kernel_output("GEMM")
        a = wl.arrays["A"].astype(np.float64)
        b = wl.arrays["B"].astype(np.float64)
        c = wl.arrays["C"].astype(np.float64)
        np.testing.assert_allclose(out, 1.5 * (a @ b) + 1.2 * c)

    def test_atax_is_gram_matrix_product(self) -> None:
        wl, out = kernel_output("ATAX")
        a = wl.arrays["A"].astype(np.float64)
        x = wl.arrays["x"].astype(np.float64)
        np.testing.assert_allclose(out, (a.T @ a) @ x, rtol=1e-10)

    def test_mvt_concatenates_both_products(self) -> None:
        wl, out = kernel_output("MVT")
        n = wl.n
        assert out.shape == (2 * n,)
        a = wl.arrays["A"].astype(np.float64)
        np.testing.assert_allclose(
            out[:n], a @ wl.arrays["y1"].astype(np.float64)
        )

    def test_scp_segment_sums(self) -> None:
        wl, out = kernel_output("SCP")
        a = wl.arrays["A"].astype(np.float64)
        b = wl.arrays["B"].astype(np.float64)
        assert out[0] == pytest.approx(np.dot(a[:128], b[:128]))


class TestTransformKernels:
    def test_walsh_hadamard_involution(self) -> None:
        # WHT(WHT(x)) == n * x for length-n inputs.
        from repro.workloads.kernels.fwt import walsh_hadamard

        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024)
        twice = walsh_hadamard(walsh_hadamard(x))
        np.testing.assert_allclose(twice, 1024 * x, rtol=1e-9)

    def test_sla_prefix_sum_property(self) -> None:
        wl, out = kernel_output("SLA")
        x = wl.arrays["X"].astype(np.float64)
        # Exclusive scan: out[i+1] - out[i] == x[i].
        np.testing.assert_allclose(np.diff(out), x[:-1], rtol=1e-8,
                                   atol=1e-8)
        assert out[0] == 0.0

    def test_cons_convolution_preserves_dc(self) -> None:
        wl, out = kernel_output("CONS")
        # Taps sum to 1.0: a constant signal is a fixed point.
        const = {"X": np.ones_like(wl.arrays["X"])}
        y = wl.run_kernel(const)
        np.testing.assert_allclose(y[5:-5], 1.0, rtol=1e-12)


class TestPhysicsAndGeometryKernels:
    def test_inversek2j_roundtrips_through_forward_kinematics(self) -> None:
        from repro.workloads.kernels.inversek2j import L1, L2

        wl, out = kernel_output("inversek2j")
        t1, t2 = out[0], out[1]
        fx = L1 * np.cos(t1) + L2 * np.cos(t1 + t2)
        fy = L1 * np.sin(t1) + L2 * np.sin(t1 + t2)
        np.testing.assert_allclose(fx, wl.arrays["X"].astype(np.float64),
                                   atol=1e-6)
        np.testing.assert_allclose(fy, wl.arrays["Y"].astype(np.float64),
                                   atol=1e-6)

    def test_newtonraph_finds_roots(self) -> None:
        wl, out = kernel_output("newtonraph")
        a = wl.arrays["A"].astype(np.float64)
        b = wl.arrays["B"].astype(np.float64)
        c = wl.arrays["C"].astype(np.float64)
        residual = a * out**3 + b * out - c
        assert np.median(np.abs(residual)) < 1e-6

    def test_blackscholes_respects_no_arbitrage_bounds(self) -> None:
        wl, out = kernel_output("blackscholes")
        s = wl.arrays["S"].astype(np.float64)
        # 0 <= call price <= spot.
        assert (out >= -1e-9).all()
        assert (out <= s + 1e-9).all()

    def test_blackscholes_prices_a_zero_strike_at_the_spot(self) -> None:
        # A replayed drop can zero a strike; the call is then worth its
        # limit as the strike falls to 0, the spot, even beside a spot
        # of 0 (where s / k is 0 / 0).
        wl = get_workload("blackscholes", scale=SCALE)
        arrays = {nm: a[:4].copy() for nm, a in wl.arrays.items()}
        arrays["K"][:2] = 0.0
        arrays["S"][0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wl.run_kernel(arrays)
        np.testing.assert_array_equal(out[:2], arrays["S"][:2])
        intact = {nm: a[2:4] for nm, a in wl.arrays.items()}
        np.testing.assert_array_equal(out[2:], wl.run_kernel(intact))

    def test_ray_shading_is_bounded(self) -> None:
        _, out = kernel_output("RAY")
        assert (out >= 0).all() and (out <= 1.2).all()

    def test_jmein_outputs_are_binary(self) -> None:
        _, out = kernel_output("jmein")
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestStencilKernels:
    def test_lps_preserves_harmonic_interior(self) -> None:
        wl, _ = kernel_output("LPS")
        # A linear field is harmonic: one Jacobi step is the identity
        # on the interior.
        side = wl.side
        z = np.arange(side, dtype=np.float64)
        linear = np.broadcast_to(
            z[:, None, None], (side, side, side)
        ).copy()
        out = wl.run_kernel({"U": linear})
        np.testing.assert_allclose(
            out[1:-1, 1:-1, 1:-1], linear[1:-1, 1:-1, 1:-1], atol=1e-9
        )

    def test_meanfilter_preserves_constants(self) -> None:
        wl, _ = kernel_output("meanfilter")
        const = {"img": np.full_like(wl.arrays["img"], 42.0)}
        np.testing.assert_allclose(wl.run_kernel(const), 42.0)

    def test_laplacian_sharpen_identity_on_flat_image(self) -> None:
        wl, _ = kernel_output("laplacian")
        flat = {"img": np.full_like(wl.arrays["img"], 100.0)}
        np.testing.assert_allclose(wl.run_kernel(flat), 100.0)

    def test_conv3d_weights_sum_to_one(self) -> None:
        wl, _ = kernel_output("3DCONV")
        const = {"V": np.ones_like(wl.arrays["V"])}
        np.testing.assert_allclose(wl.run_kernel(const), 1.0, rtol=1e-12)

    def test_srad_fixed_point_on_constant_image(self) -> None:
        wl, _ = kernel_output("srad")
        const = {"I": np.full_like(wl.arrays["I"], 0.7)}
        np.testing.assert_allclose(wl.run_kernel(const), 0.7, atol=1e-9)
