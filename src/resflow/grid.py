"""Density grids: evaluation, CSV export, and graymap heatmaps.

A grid evaluates log density at the midpoints of ``nx * ny`` rectangular
cells, so summing ``exp(values) * cell_area`` is exactly the midpoint
quadrature rule; for a well-normalized 2D model over a generous box that
integral lands near 1.  Exports are plain text: a CSV of ``x,y,logp``
rows with the grid geometry in comment headers, and an 8-bit ASCII
portable graymap normalized over the grid (brightest pixel = highest
density).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from resflow.flow import FlowModel, log_density_batch
from resflow.logdet import EstimatorConfig

GRID_CHUNK = 8192  # grid points per log_density_batch call


@dataclass
class DensityGrid:
    bounds: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    resolution: tuple[int, int]  # nx, ny
    values: np.ndarray  # (ny, nx) log density in nats, row 0 at ymin
    mode: str

    def x_centers(self) -> np.ndarray:
        xmin, xmax, _, _ = self.bounds
        nx = self.resolution[0]
        return xmin + (xmax - xmin) * (np.arange(nx) + 0.5) / nx

    def y_centers(self) -> np.ndarray:
        _, _, ymin, ymax = self.bounds
        ny = self.resolution[1]
        return ymin + (ymax - ymin) * (np.arange(ny) + 0.5) / ny

    def cell_area(self) -> float:
        xmin, xmax, ymin, ymax = self.bounds
        nx, ny = self.resolution
        return (xmax - xmin) / nx * (ymax - ymin) / ny

    def integral(self) -> float:
        """Midpoint quadrature of exp(logp) over the box."""
        return float(np.sum(np.exp(self.values)) * self.cell_area())


def compute_grid(
    model: FlowModel,
    bounds: tuple[float, float, float, float],
    resolution: tuple[int, int],
    mode: str = "exact",
    cfg: EstimatorConfig | None = None,
    rng: np.random.Generator | None = None,
) -> DensityGrid:
    xmin, xmax, ymin, ymax = bounds
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("bounds must satisfy xmin < xmax and ymin < ymax")
    nx, ny = resolution
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    grid = DensityGrid(bounds=bounds, resolution=resolution, values=np.zeros((ny, nx)), mode=mode)
    xs = grid.x_centers()
    ys = grid.y_centers()
    xx, yy = np.meshgrid(xs, ys)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    flow_mode = "exact" if mode == "exact" else "unbiased"
    vals = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], GRID_CHUNK):
        _, logp, _ = log_density_batch(
            model, pts[start : start + GRID_CHUNK], mode=flow_mode, cfg=cfg, rng=rng
        )
        vals[start : start + GRID_CHUNK] = logp
    grid.values = vals.reshape(ny, nx)
    return grid


def write_grid_csv(grid: DensityGrid, path: str | Path) -> None:
    xmin, xmax, ymin, ymax = grid.bounds
    nx, ny = grid.resolution
    lines = [
        f"# bounds = {xmin!r},{xmax!r},{ymin!r},{ymax!r}",
        f"# resolution = {nx},{ny}",
        f"# mode = {grid.mode}",
        "x,y,logp",
    ]
    xs, ys = grid.x_centers(), grid.y_centers()
    for iy in range(ny):
        for ix in range(nx):
            lines.append(
                f"{float(xs[ix])!r},{float(ys[iy])!r},{float(grid.values[iy, ix])!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_pgm(grid: DensityGrid, path: str | Path) -> None:
    """8-bit ASCII portable graymap, density-normalized over the grid.

    Image rows run top to bottom, so row 0 of the file is the highest y.
    """
    density = np.exp(grid.values)
    lo, hi = float(density.min()), float(density.max())
    span = hi - lo
    if span <= 0:
        pixels = np.zeros_like(density, dtype=np.int64)
    else:
        pixels = np.rint(255.0 * (density - lo) / span).astype(np.int64)
    ny, nx = pixels.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join(str(int(p)) for p in pixels[iy]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_grid_csv(path: str | Path) -> DensityGrid:
    lines = Path(path).read_text().splitlines()
    header = {}
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            data_start = i
            break
    bounds = tuple(float(t) for t in header["bounds"].split(","))
    nx, ny = (int(t) for t in header["resolution"].split(","))
    values = np.empty((ny, nx))
    rows = lines[data_start + 1 :]
    for k, row in enumerate(r for r in rows if r):
        _, _, logp = row.split(",")
        values[k // nx, k % nx] = float(logp)
    return DensityGrid(bounds=bounds, resolution=(nx, ny), values=values, mode=header["mode"])
