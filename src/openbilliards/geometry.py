"""Cavity boundary geometry for two-lead open billiards.

A cavity occupies ``0 <= x <= length`` between a lower wall ``y = lower(x)``
and an upper wall ``y = upper(x)``.  Straight leads of width ``w`` attach at
both ends, so the local width ``J(x) = upper(x) - lower(x)`` must equal ``w``
at ``x = 0`` and ``x = length``.  Everything downstream (basis assembly, FFT
quadrature) works on a midpoint grid ``x_i = (i + 1/2) * length / samples``,
so profiles carry both sampled arrays and callables for off-grid evaluation.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tables import write_table

logger = logging.getLogger(__name__)

Array = np.ndarray

# Nominal shape parameters of the reference cavity: a Gaussian bump facing a
# shallow parabolic floor.  The first three are dimensionless; the length unit
# is REFERENCE_SCALE.
BUMP_DECAY = 0.161
FLOOR_OFFSET = 0.2
FLOOR_CURVATURE = 0.1
REFERENCE_SCALE = 0.432


class GeometryError(ValueError):
    """Raised when a boundary profile is unusable (walls cross, bad inputs)."""


@dataclass(frozen=True)
class BoundaryProfile:
    """Sampled two-wall cavity boundary plus callables for off-grid points.

    Attributes
    ----------
    length:
        Cavity extent along the lead axis.
    lead_width:
        Channel width at both interfaces, ``J(0) = J(length)``.
    grid:
        Midpoint sample abscissas, shape ``(samples,)``.
    upper, lower:
        Wall heights on `grid`.
    upper_slope, lower_slope:
        First derivatives of the walls on `grid`.
    upper_fn, lower_fn, upper_slope_fn, lower_slope_fn:
        Vectorized callables evaluating the walls and slopes anywhere.
    """

    length: float
    lead_width: float
    grid: Array
    upper: Array
    lower: Array
    upper_slope: Array
    lower_slope: Array
    upper_fn: Callable[[Array], Array]
    lower_fn: Callable[[Array], Array]
    upper_slope_fn: Callable[[Array], Array]
    lower_slope_fn: Callable[[Array], Array]

    @property
    def samples(self) -> int:
        return self.grid.size

    @property
    def width(self) -> Array:
        """Local channel width J on the midpoint grid."""
        return self.upper - self.lower

    @property
    def width_slope(self) -> Array:
        return self.upper_slope - self.lower_slope

    def width_at(self, x: Array | float) -> Array:
        return np.asarray(self.upper_fn(x)) - np.asarray(self.lower_fn(x))

    def validate(self) -> None:
        """Check finite walls, wall ordering and lead matching; raise GeometryError if bad."""
        if not 0.0 < self.length < math.inf:
            raise GeometryError(f"cavity length must be positive and finite, got {self.length}")
        for name in ("upper", "lower", "upper_slope", "lower_slope"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise GeometryError(f"{name} is not finite at x = {self.grid[bad[0]]:.6f}")
        w = self.width
        if np.any(w <= 0.0):
            i = int(np.argmin(w))
            raise GeometryError(
                f"walls cross or touch: width {w[i]:.3e} at x = {self.grid[i]:.6f}"
            )
        for x_end in (0.0, self.length):
            w_end = float(self.width_at(x_end))
            if not abs(w_end - self.lead_width) <= 1e-9 * self.lead_width:
                raise GeometryError(
                    f"interface width {w_end!r} at x = {x_end} does not match "
                    f"lead width {self.lead_width!r}"
                )

    def content_hash(self) -> str:
        """Stable digest of the sampled geometry, used for cache keys."""
        h = hashlib.sha256()
        h.update(np.float64(self.length).tobytes())
        h.update(np.float64(self.lead_width).tobytes())
        for arr in (self.grid, self.upper, self.lower):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def _midpoint_grid(length: float, samples: int) -> Array:
    return (np.arange(samples) + 0.5) * (length / samples)


def _build_profile(
    length: float,
    samples: int,
    upper_fn: Callable,
    lower_fn: Callable,
    upper_slope_fn: Callable,
    lower_slope_fn: Callable,
) -> BoundaryProfile:
    grid = _midpoint_grid(length, samples)
    lead_width = float(upper_fn(0.0) - lower_fn(0.0))
    profile = BoundaryProfile(
        length=float(length),
        lead_width=lead_width,
        grid=grid,
        upper=np.asarray(upper_fn(grid), dtype=float),
        lower=np.asarray(lower_fn(grid), dtype=float),
        upper_slope=np.asarray(upper_slope_fn(grid), dtype=float),
        lower_slope=np.asarray(lower_slope_fn(grid), dtype=float),
        upper_fn=upper_fn,
        lower_fn=lower_fn,
        upper_slope_fn=upper_slope_fn,
        lower_slope_fn=lower_slope_fn,
    )
    profile.validate()
    return profile


def make_rectangle(height: float, length: float, samples: int = 1024) -> BoundaryProfile:
    """Straight guide of constant width `height`; the separable sanity case."""
    if height <= 0.0:
        raise GeometryError(f"rectangle height must be positive, got {height}")
    h = float(height)
    return _build_profile(
        length,
        samples,
        upper_fn=lambda x: np.full_like(np.asarray(x, dtype=float), h),
        lower_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        upper_slope_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lower_slope_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def make_reference_cavity(samples: int = 2048) -> BoundaryProfile:
    """Gaussian-bump cavity over a shallow parabolic floor, length 10*REFERENCE_SCALE.

    The interface width is ~1.00133 (nominally 1 for this geometry), the
    central width is REFERENCE_SCALE*(1 - FLOOR_OFFSET) = 0.3456, and the
    narrowest point sits at |x - length/2| ~ 0.743 with width ~0.3097.
    """
    lam = REFERENCE_SCALE
    length = 10.0 * lam
    x_mid = 0.5 * length

    def upper_fn(x):
        s = (np.asarray(x, dtype=float) - x_mid) / lam
        return lam * np.exp(-BUMP_DECAY * s * s)

    def lower_fn(x):
        s = (np.asarray(x, dtype=float) - x_mid) / lam
        return lam * (FLOOR_OFFSET - FLOOR_CURVATURE * s * s)

    def upper_slope_fn(x):
        s = (np.asarray(x, dtype=float) - x_mid) / lam
        return -2.0 * BUMP_DECAY * s * np.exp(-BUMP_DECAY * s * s)

    def lower_slope_fn(x):
        s = (np.asarray(x, dtype=float) - x_mid) / lam
        return -2.0 * FLOOR_CURVATURE * s * np.ones_like(s)

    return _build_profile(length, samples, upper_fn, lower_fn, upper_slope_fn, lower_slope_fn)


def min_width(profile: BoundaryProfile) -> tuple[float, float]:
    """Locate the narrowest channel cross-section.

    Returns ``(x_min, w_min)``.  The sampled grid brackets the minimum and a
    bounded scalar minimization of the width callable polishes it.
    """
    from scipy.optimize import minimize_scalar

    w = profile.width
    i = int(np.argmin(w))
    lo = profile.grid[max(i - 1, 0)]
    hi = profile.grid[min(i + 1, profile.samples - 1)]
    if lo == hi:
        return float(profile.grid[i]), float(w[i])
    res = minimize_scalar(
        lambda x: float(profile.width_at(x)),
        bounds=(float(lo), float(hi)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(res.fun)


def _smoothstep(t: Array) -> Array:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_slope(t: Array) -> Array:
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 6.0 * t * (1.0 - t), 0.0)


def apply_wiggle(
    profile: BoundaryProfile, amplitude: float = 0.01, cycles: int = 10
) -> BoundaryProfile:
    """Superpose a short sinusoidal ripple on the upper wall.

    The ripple is ``amplitude * sin(cycles * pi * x / length)`` restricted to
    ``0.45*length < x < 0.55*length``.  A smoothstep taper of width
    ``0.005*length`` just inside each window edge makes the perturbed wall
    continuously differentiable; outside the window the wall is untouched.
    """
    length = profile.length
    x0, x1 = 0.45 * length, 0.55 * length
    eps = 0.005 * length
    amp = float(amplitude)
    freq = cycles * math.pi / length

    def taper(x):
        x = np.asarray(x, dtype=float)
        return _smoothstep((x - x0) / eps) * _smoothstep((x1 - x) / eps)

    def taper_slope(x):
        x = np.asarray(x, dtype=float)
        up = _smoothstep((x - x0) / eps)
        down = _smoothstep((x1 - x) / eps)
        d_up = _smoothstep_slope((x - x0) / eps) / eps
        d_down = -_smoothstep_slope((x1 - x) / eps) / eps
        return d_up * down + up * d_down

    base_fn = profile.upper_fn
    base_slope_fn = profile.upper_slope_fn

    def upper_fn(x):
        x = np.asarray(x, dtype=float)
        return base_fn(x) + amp * np.sin(freq * x) * taper(x)

    def upper_slope_fn(x):
        x = np.asarray(x, dtype=float)
        return (
            base_slope_fn(x)
            + amp * freq * np.cos(freq * x) * taper(x)
            + amp * np.sin(freq * x) * taper_slope(x)
        )

    return _build_profile(
        length, profile.samples, upper_fn, profile.lower_fn, upper_slope_fn, profile.lower_slope_fn
    )


def apply_surface_disorder(
    profile: BoundaryProfile,
    roughness: float,
    pieces: int,
    seed: int,
) -> BoundaryProfile:
    """Roughen the lower wall by piecewise random vertical shifts.

    The wall is cut into `pieces` equal segments; each segment midpoint is
    displaced by an independent draw from uniform(-roughness/2, +roughness/2)
    and a cubic spline through the displaced midpoints rebuilds a smooth
    wall.  The spline is clamped to the unperturbed wall slope at x = 0 and
    x = length so the interfaces keep the exact lead width.
    """
    from scipy.interpolate import CubicSpline

    if pieces < 2:
        raise GeometryError(f"need at least 2 pieces, got {pieces}")
    if not roughness >= 0.0:  # NaN fails too
        raise GeometryError(f"roughness must be non-negative, got {roughness}")

    length = profile.length
    rng = np.random.default_rng(seed)
    shifts = rng.uniform(-0.5 * roughness, 0.5 * roughness, size=pieces)

    knots_x = (np.arange(pieces) + 0.5) * (length / pieces)
    knots_y = np.asarray(profile.lower_fn(knots_x), dtype=float) + shifts

    # Pin both interfaces: value and slope equal the unperturbed wall there,
    # otherwise the leads no longer match the cavity mouth.
    x_all = np.concatenate(([0.0], knots_x, [length]))
    y_all = np.concatenate(
        ([float(profile.lower_fn(0.0))], knots_y, [float(profile.lower_fn(length))])
    )
    slope0 = float(profile.lower_slope_fn(0.0))
    slope1 = float(profile.lower_slope_fn(length))
    spline = CubicSpline(x_all, y_all, bc_type=((1, slope0), (1, slope1)))
    new = _build_profile(
        length, profile.samples, profile.upper_fn, spline, profile.upper_slope_fn,
        spline.derivative(),
    )
    logger.info(
        "surface disorder applied: roughness=%g pieces=%d seed=%d min width %.6f",
        roughness,
        pieces,
        seed,
        float(np.min(new.width)),
    )
    return new


def profile_to_csv(profile: BoundaryProfile, path) -> None:
    """Write the boundary as CSV rows (u, P, Q) on an endpoint-inclusive grid.

    Column names follow the on-disk interface convention: u is the axial
    coordinate, P the upper wall, Q the lower wall.
    """
    xs = np.linspace(0.0, profile.length, profile.samples + 1)
    upper = np.asarray(profile.upper_fn(xs), dtype=float)
    lower = np.asarray(profile.lower_fn(xs), dtype=float)
    write_table(path, (), ("u", "P", "Q"), (".17g",) * 3, xs, upper, lower)


def profile_from_csv(path, samples: int = 1024) -> BoundaryProfile:
    """Load a tabulated boundary written by `profile_to_csv` (or by hand).

    Walls are interpolated with cubic splines and differentiated through the
    spline; the table must start at u = 0 and its last row defines the
    cavity length.
    """
    from scipy.interpolate import CubicSpline

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["u", "P", "Q"]:
            raise GeometryError(f"profile CSV must have columns u,P,Q; got {header}")
        for number, row in enumerate(filter(None, reader), start=1):  # blank lines skipped
            try:
                u, upper, lower = map(float, row)
            except ValueError as err:  # a field that is not a number, or not 3 fields
                raise GeometryError(
                    f"profile CSV {path}: data row {number} '{','.join(row)}' is not "
                    f"three numbers u,P,Q ({err})"
                ) from None
            rows.append((u, upper, lower))
    table = np.asarray(rows, dtype=float).reshape(-1, 3)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise GeometryError(f"profile CSV {path}: data row {np.argmin(finite) + 1} is not finite")
    xs, ps, qs = table.T
    if xs.size < 4:
        raise GeometryError(f"need at least 4 table rows, got {xs.size}")
    if xs[0] != 0.0:
        raise GeometryError(f"profile table must start at u = 0, got {xs[0]}")
    if np.any(np.diff(xs) <= 0.0):
        raise GeometryError("profile table abscissas must be strictly increasing")

    upper = CubicSpline(xs, ps)
    lower = CubicSpline(xs, qs)
    return _build_profile(
        float(xs[-1]), samples, upper, lower, upper.derivative(), lower.derivative()
    )
