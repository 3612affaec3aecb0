#!/usr/bin/env python
"""Fig. 14 scenario: image sharpening with approximate memory.

Runs the laplacian filter under Dyn-DMS + Dyn-AMS, replays the dropped
cache lines through the real kernel, and writes three PGM images (input,
exact output, approximate output) so the quality loss can be inspected
visually — the experiment behind the paper's Fig. 14.

Usage::

    python examples/image_approximation.py [--outdir /tmp/repro_fig14]
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from repro import SimSpec, dyn_combo, get_workload, simulate_spec
from repro.approx.quality import psnr
from repro.approx.replay import build_perturbed_inputs


def write_pgm(path: pathlib.Path, image: np.ndarray) -> None:
    """Write a grayscale image as a binary PGM (no external deps)."""
    data = np.clip(image, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="/tmp/repro_fig14")
    parser.add_argument("--scale", type=float, default=0.7)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    workload = get_workload("laplacian", scale=args.scale)
    report = simulate_spec(
        workload, SimSpec(scheduler=dyn_combo(), measure_error=True)
    )

    exact = workload.run_exact()
    perturbed = build_perturbed_inputs(
        workload.space, workload.arrays, report.drops
    )
    approx = workload.run_approx(perturbed)

    write_pgm(outdir / "input.pgm", workload.arrays["img"])
    write_pgm(outdir / "sharpened_exact.pgm", exact)
    write_pgm(outdir / "sharpened_approx.pgm", approx)

    print(report.summary())
    print()
    print(f"dropped lines    : {len(report.drops)}")
    print(f"application error: {report.application_error:.2%}")
    print(f"PSNR             : {psnr(exact, approx):.1f} dB")
    print(f"images written to: {outdir}/")


if __name__ == "__main__":
    main()
