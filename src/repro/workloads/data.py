"""Input-data generators with controlled spatial smoothness.

The paper's value predictor approximates a dropped line with the nearest
resident L2 line, so an application's error tolerance is governed by how
predictable its data is from neighbouring addresses (plus how much the
kernel amplifies input perturbations). These generators give each
workload the Table II error-tolerance level:

* :func:`smooth_field` — spatially correlated, strictly positive data:
  neighbour prediction is accurate and reductions do not cancel
  (High tolerance).
* :func:`rough_field` — zero-mean white noise: neighbour prediction is
  uninformative and sums suffer cancellation (Low tolerance).
"""

from __future__ import annotations

import numpy as np


def smooth_field(
    rng: np.random.Generator,
    shape: tuple[int, ...] | int,
    *,
    low: float = 1.0,
    high: float = 2.0,
    waves: int = 3,
) -> np.ndarray:
    """Positive, slowly varying data (sums of long-wavelength sinusoids)."""
    if isinstance(shape, int):
        shape = (shape,)
    n = int(np.prod(shape))
    t = np.linspace(0.0, 1.0, n, dtype=np.float64)
    field = np.zeros(n)
    for _ in range(waves):
        freq = rng.uniform(0.5, 4.0)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * freq * t + phase)
    field -= field.min()
    span = field.max() - field.min() or 1.0
    field = low + (high - low) * field / span
    return field.reshape(shape).astype(np.float32)


def rough_field(
    rng: np.random.Generator,
    shape: tuple[int, ...] | int,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """Zero-mean white noise: hostile to nearest-line prediction."""
    if isinstance(shape, int):
        shape = (shape,)
    return (scale * rng.standard_normal(shape)).astype(np.float32)


def offset_noise(
    rng: np.random.Generator,
    shape: tuple[int, ...] | int,
    *,
    offset: float,
    scale: float = 1.0,
) -> np.ndarray:
    """White noise around a positive offset.

    The offset directly dials the error-tolerance class under the
    nearest-line VP: offset 0 leaves reductions near zero (huge relative
    errors, Low tolerance), ~0.5 gives Medium, >=1 gives High.
    """
    if isinstance(shape, int):
        shape = (shape,)
    return (offset + scale * rng.standard_normal(shape)).astype(np.float32)


def smooth_image(
    rng: np.random.Generator, height: int, width: int, *, levels: float = 255.0
) -> np.ndarray:
    """A synthetic grayscale photograph: smooth gradients + soft blobs."""
    y = np.linspace(0, 1, height)[:, None]
    x = np.linspace(0, 1, width)[None, :]
    img = 0.4 + 0.3 * np.sin(2 * np.pi * (x + 0.5 * y))
    for _ in range(6):
        cy, cx = rng.uniform(0, 1, 2)
        r = rng.uniform(0.05, 0.25)
        img += rng.uniform(-0.3, 0.5) * np.exp(
            -((y - cy) ** 2 + (x - cx) ** 2) / (2 * r * r)
        )
    img -= img.min()
    img /= img.max() or 1.0
    return (levels * img).astype(np.float32)
