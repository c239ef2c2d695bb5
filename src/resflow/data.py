"""2D toy datasets for density estimation.

Every dataset is a seeded sampler with a known support box.  The
checkerboard construction is documented precisely because evaluation
relies on it: the square ``[-4, 4]^2`` is divided into 64 unit cells
indexed by their floor coordinates ``(i, j)``, and the density is uniform
over the 32 cells with ``i + j`` even.  A sample draws the horizontal
coordinate uniformly, picks one of the 4 admissible rows for that
column's parity uniformly, and places the vertical coordinate uniformly
inside the chosen cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DATASET_NAMES = ("checkerboard", "eight_gaussians", "rings")

CHECKERBOARD_LOW, CHECKERBOARD_HIGH = -4.0, 4.0

EIGHT_GAUSSIANS_RADIUS = 3.0
EIGHT_GAUSSIANS_STD = 0.3

RING_RADII = (0.9, 1.8, 2.7, 3.6)
RING_NOISE_STD = 0.08

# resampling rounds before _clip_to_bounds gives up
CLIP_MAX_ROUNDS = 100


@dataclass
class Dataset2D:
    name: str
    support_bounds: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    rng: np.random.Generator = field(repr=False)

    def sample(self, n: int) -> np.ndarray:
        fn = _SAMPLERS[self.name]
        out = fn(self.rng, n)
        return _clip_to_bounds(out, self.support_bounds, fn, self.rng)

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        xmin, xmax, ymin, ymax = self.support_bounds
        return (
            (x[:, 0] >= xmin) & (x[:, 0] <= xmax) & (x[:, 1] >= ymin) & (x[:, 1] <= ymax)
        )


def make_dataset(name: str, seed: int) -> Dataset2D:
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; options: {DATASET_NAMES}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _DATASET_SALT[name]]))
    return Dataset2D(name=name, support_bounds=_BOUNDS[name], rng=rng)


def checkerboard_cell_occupied(i, j) -> np.ndarray:
    """True on the cells that carry density."""
    return (np.asarray(i) + np.asarray(j)) % 2 == 0


def _sample_checkerboard(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.uniform(CHECKERBOARD_LOW, CHECKERBOARD_HIGH, size=n)
    i = np.floor(x).astype(np.int64)
    # rows with the parity of i, 4 per column: -4+2t for even i, -3+2t for odd
    t = rng.integers(0, 4, size=n)
    j = -4 + 2 * t + (i % 2)
    y = j + rng.uniform(0.0, 1.0, size=n)
    return np.stack([x, y], axis=1)


def _sample_eight_gaussians(rng: np.random.Generator, n: int) -> np.ndarray:
    k = rng.integers(0, 8, size=n)
    angles = 2.0 * np.pi * k / 8.0
    centers = EIGHT_GAUSSIANS_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers + EIGHT_GAUSSIANS_STD * rng.standard_normal((n, 2))


def _sample_rings(rng: np.random.Generator, n: int) -> np.ndarray:
    radii = np.asarray(RING_RADII)
    probs = radii / radii.sum()  # uniform density along arc length
    ring = rng.choice(len(radii), size=n, p=probs)
    r = radii[ring] + RING_NOISE_STD * rng.standard_normal(n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _clip_to_bounds(x, bounds, fn, rng) -> np.ndarray:
    """Resample the (astronomically rare) points outside the support box."""
    xmin, xmax, ymin, ymax = bounds
    for _ in range(CLIP_MAX_ROUNDS):
        bad = ~(
            (x[:, 0] >= xmin) & (x[:, 0] <= xmax) & (x[:, 1] >= ymin) & (x[:, 1] <= ymax)
        )
        k = int(bad.sum())
        if k == 0:
            return x
        x[bad] = fn(rng, k)
    raise RuntimeError("could not confine samples to the support bounds")


_BOUNDS = {
    "checkerboard": (CHECKERBOARD_LOW, CHECKERBOARD_HIGH, CHECKERBOARD_LOW, CHECKERBOARD_HIGH),
    # 5-sigma boxes; stragglers are resampled
    "eight_gaussians": (-4.5, 4.5, -4.5, 4.5),
    "rings": (-4.0, 4.0, -4.0, 4.0),
}

_DATASET_SALT = {"checkerboard": 101, "eight_gaussians": 102, "rings": 103}

_SAMPLERS = {
    "checkerboard": _sample_checkerboard,
    "eight_gaussians": _sample_eight_gaussians,
    "rings": _sample_rings,
}
