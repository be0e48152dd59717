"""Uniform 2-D lattices, ball stencils, grid fields and initial guesses,
and the one writer of every output file.

Domains are the square (-1,1)^2 style box and the L-shape obtained by
removing the closed upper-right quadrant.  Everything outside the interior
mask carries the value 0 (homogeneous Dirichlet extension).
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid domain / stencil / experiment configuration."""


@dataclass(frozen=True)
class GridDomain:
    nx: int
    ny: int
    h: float
    origin: tuple[float, float]
    interior_mask: np.ndarray  # bool, shape (ny, nx); True = unknown

    @property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates (X, Y), each shaped (ny, nx)."""
        x0, y0 = self.origin
        x = x0 + self.h * np.arange(self.nx)
        y = y0 + self.h * np.arange(self.ny)
        return np.meshgrid(x, y)


@dataclass(frozen=True)
class Stencil:
    """Integer offsets (dy, dx) covering the punctured ball of radius r; its
    weight, which also depends on p, is the PLaplaceInstance's."""

    offsets: np.ndarray  # shape (m, 2), int

    @property
    def margin(self) -> int:
        return int(np.max(np.abs(self.offsets)))


@dataclass
class GridFunction:
    values: np.ndarray  # shape (ny, nx), row 0 = smallest y
    domain: GridDomain


def build_domain(shape_tag: str, side_length: float, h: float) -> GridDomain:
    """Node lattice over a box of the given side with spacing h.

    shape_tag 'square' keeps all strictly inner nodes; 'lshape' additionally
    pins every node with x >= 0 and y >= 0 (the notch, reentrant edges
    included) to zero.
    """
    if shape_tag not in ("square", "lshape"):
        raise ConfigError(f"unknown shape_tag {shape_tag!r}")
    if not (0 < h < math.inf and 0 < side_length < math.inf):
        raise ConfigError("side_length and h must be positive and finite")
    ratio = side_length / h
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError(f"side_length/h = {ratio} is not integral")
    nx = ny = n + 1
    half = side_length / 2.0
    origin = (-half, -half)
    x = origin[0] + h * np.arange(nx)
    X, Y = np.meshgrid(x, x)  # nx == ny, one origin for both axes
    tol = 1e-12 * max(1.0, side_length)
    mask = (X > origin[0] + tol) & (X < half - tol) & \
           (Y > origin[1] + tol) & (Y < half - tol)
    if shape_tag == "lshape":
        mask &= ~((X >= -tol) & (Y >= -tol))
    return GridDomain(nx=nx, ny=ny, h=h, origin=origin, interior_mask=mask)


def build_stencil(domain: GridDomain, r: float) -> Stencil:
    """All integer offsets with Euclidean length in (0, r] on the lattice
    of spacing domain.h; r must be finite and at least h."""
    h = domain.h
    if not h <= r < math.inf:
        raise ConfigError(f"mean value radius r={r} must be finite and at "
                          f"least the spacing h={h}")
    m = int(math.floor(r / h + 1e-12))
    offsets = []
    for dy in range(-m, m + 1):
        for dx in range(-m, m + 1):
            if dx == 0 and dy == 0:
                continue
            if math.hypot(dx * h, dy * h) <= r * (1 + 1e-12):
                offsets.append((dy, dx))
    return Stencil(offsets=np.array(offsets, dtype=int))


def _ex1(X, Y):
    return -(1 - 2 * np.abs(X + 0.5)) * (1 - 2 * np.abs(Y + 0.5)) \
        * (1 - np.abs(X)) * (1 - np.abs(Y))


def _ex2(X, Y):
    return 100.0 * (X + 1) * (Y + 1) * (X - 1) * (Y - 1) * (0.0625 - X ** 2 - Y ** 2)


def eval_initial_guess(tag: str, domain: GridDomain) -> GridFunction:
    """Evaluate the named initial guess ex1 or ex2 on the lattice.

    No normalization is applied; values at non-interior nodes are pinned
    to 0.  Any other start is read from a CSV snapshot (load_snapshot).
    """
    X, Y = domain.coords()
    if tag == "ex1":
        vals = _ex1(X, Y)
    elif tag == "ex2":
        vals = _ex2(X, Y)
    else:
        raise ConfigError(f"unknown initial guess tag {tag!r}")
    vals = np.where(domain.interior_mask, vals, 0.0)
    return GridFunction(vals.astype(float), domain)


@contextlib.contextmanager
def rewrite(path):
    """A text file open for writing at path that keeps an existing file:
    it is opened without O_TRUNC, and on leaving the block, by its end or
    by an exception, any stale tail past the written text is cut, so a
    failed write leaves no tail of the old file behind its text.

    Reruns write into the same output directory, so most writes meet an
    existing file.  On an ext4 file system mounted with discard (files of
    100 B to 200 KB), opening such a file with "w" truncates it and stalls
    for 24-47 ms; writing a temporary file and os.replace-ing it takes
    33 ms, and unlinking an old file whose data is on disk 19-47 ms.
    Rewriting in place takes 0.1 ms, whether or not the old data is on
    disk.  Only a file on disk that shrinks by 4 KB or more is slow again
    (36-44 ms), and a rerun barely changes the size of its outputs.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
        try:
            yield f
        finally:
            f.truncate()


def save_snapshot(path, gf: GridFunction) -> None:
    """Plain-text CSV matrix, ny rows x nx columns, row 0 = smallest y."""
    with rewrite(path) as f:
        np.savetxt(f, gf.values, delimiter=",")


def load_snapshot(path, domain: GridDomain) -> GridFunction:
    vals = np.loadtxt(path, delimiter=",", ndmin=2)
    if vals.shape != (domain.ny, domain.nx):
        raise ConfigError(
            f"snapshot shape {vals.shape} does not match domain "
            f"({domain.ny}, {domain.nx})")
    if not np.all(np.isfinite(vals[domain.interior_mask])):
        raise ConfigError(f"snapshot {path} holds a non-finite interior value")
    vals = np.where(domain.interior_mask, vals, 0.0)
    return GridFunction(vals, domain)
