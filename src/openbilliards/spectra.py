"""Length and power spectra of swept transmission amplitudes.

The length spectrum is the windowed transform t(L) = sum_k t(k) e^{-ikL} dk
taken as a plain Riemann sum on the uniform physical-k grid (no 2/pi
normalization), so peak heights are convention-dependent but positions are
not. Peaks sit at geometric path lengths; the Fourier-limited resolution is
2*pi over the k-window width, and zero-padding only interpolates between
those independent bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .scattering import SweepResult
from .tables import write_table

Array = NDArray[np.float64]
CArray = NDArray[np.complex128]

GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumSeries:
    """Uniform t_nm(k) samples over a window, ready for the transform."""

    k: Array  # physical wave numbers, uniform ascending
    samples: CArray  # (n_k, n_modes, n_modes)

    @property
    def resolution(self) -> float:
        """Fourier-limited length resolution 2*pi/(k_max - k_min)."""
        return 2.0 * math.pi / (self.k[-1] - self.k[0])


def window_points(k: Array, window: tuple[float, float]) -> NDArray[np.intp]:
    """Indices of the grid points `k` inside `window`, at least 8 of them.

    `window` and `k` share their units (pi/w for a sweep grid).
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"empty window {window}")
    inside = np.flatnonzero((k >= lo - GRID_RTOL) & (k <= hi + GRID_RTOL))
    if inside.size < 8:
        raise ValueError(f"window {window} covers only {inside.size} sweep points")
    return inside


def uniform_series(
    result: SweepResult, window: tuple[float, float], n_modes: int
) -> SpectrumSeries:
    """Extract uniform t_nm(k) samples of the sweep points inside `window`.

    `window` is in units pi/w like the sweep grid. Every point in the window
    must have at least `n_modes` channels open.
    """
    lo, hi = window
    inside = window_points(result.k, window)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    scale = math.pi / result.lead_width
    grid = result.k[inside]
    steps = np.diff(grid)
    if np.max(steps) - np.min(steps) > GRID_RTOL * max(abs(lo), abs(hi)):
        raise ValueError("sweep grid is not uniform inside the window")
    n_open = result.n_open[inside]
    if np.any(n_open < n_modes):
        i = inside[np.argmax(n_open < n_modes)]
        raise ValueError(
            f"only {result.n_open[i]} channels open at k={result.k[i]:.6g}, "
            f"need {n_modes}"
        )
    # entry (a, b) of point i's block sits at offset_i + a * n_open_i + b of `t`
    modes = np.arange(n_modes)
    at = result.t_offsets[inside, None, None] + modes[:, None] * n_open[:, None, None] + modes
    samples = result.t[at]
    return SpectrumSeries(k=grid * scale, samples=samples)


def length_spectrum(series: SpectrumSeries, pad_factor: int = 8) -> tuple[Array, CArray]:
    """Transform samples to t_nm(L) on L_j = 2*pi*j/(n_pad*dk), j >= 0.

    Zero-padding by `pad_factor` refines the L readout without adding
    information.
    """
    if pad_factor < 1:
        raise ValueError("pad_factor must be >= 1")
    k = series.k
    if k.size < 2:
        raise ValueError("need at least two samples")
    steps = np.diff(k)
    dk = float(steps[0])
    if not dk > 0.0:
        raise ValueError(f"sample grid must ascend, got step dk = {dk:.6g}")
    if np.max(steps) - np.min(steps) > GRID_RTOL * abs(k[-1]):
        raise ValueError("sample grid is not uniform")
    n_pad = pad_factor * k.size
    transform = np.fft.fft(series.samples, n=n_pad, axis=0)
    lengths = 2.0 * math.pi * np.arange(n_pad) / (n_pad * dk)
    phase = np.exp(-1j * k[0] * lengths)
    return lengths, dk * phase[:, None, None] * transform


def power_spectrum(series: SpectrumSeries, pad_factor: int = 8) -> tuple[Array, Array]:
    """P(L) = sum over the retained n, m of |t_nm(L)|^2."""
    lengths, amplitudes = length_spectrum(series, pad_factor=pad_factor)
    return lengths, np.sum(np.abs(amplitudes) ** 2, axis=(1, 2))


def peak_positions(
    lengths: Array,
    values: Array,
    band: tuple[float, float] | None = None,
    min_prominence: float = 0.1,
) -> Array:
    """Peak locations inside `band`, strongest prominence first.

    `min_prominence` is relative to the largest value inside the band.
    """
    lengths = np.asarray(lengths, dtype=float)
    values = np.asarray(values, dtype=float)
    if band is None:
        mask = np.ones(lengths.size, dtype=bool)
    else:
        mask = (lengths >= band[0]) & (lengths <= band[1])
    if not np.any(mask):
        return np.empty(0)
    sub_l = lengths[mask]
    sub_v = values[mask]
    idx, prominences = _prominent_peaks(sub_v, min_prominence * np.max(sub_v))
    order = np.argsort(prominences)[::-1]
    return sub_l[idx[order]]


def _prominent_peaks(x: Array, threshold: float) -> tuple[NDArray[np.intp], Array]:
    """Local maxima of `x` with prominence >= `threshold`, and their prominences.

    The same peaks and values as ``scipy.signal.find_peaks(x,
    prominence=threshold)``. A maximum is a run of equal samples with lower
    neighbours on both sides, none at either end of `x`; it sits at the run's
    middle index (rounded down). Its prominence is its value minus the higher
    of two minima, each taken on one side over the samples up to the first
    strictly higher one, or up to the end of `x`.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    runs = x[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    prominences = np.empty(peaks.size)
    for j, p in enumerate(peaks):
        higher = np.flatnonzero(x > x[p])
        split = np.searchsorted(higher, p)
        left = higher[split - 1] + 1 if split > 0 else 0
        right = higher[split] if split < higher.size else x.size
        prominences[j] = x[p] - max(x[left : p + 1].min(), x[p:right].min())
    keep = prominences >= threshold
    return peaks[keep], prominences[keep]


def write_amplitude_csv(path, lengths: Array, amplitude: CArray, header_lines=()):
    """One t_nm(L) series: columns L, Re, Im, modulus."""
    write_table(
        path, header_lines, ("L", "re_t", "im_t", "abs_t"), (".12g",) * 4,
        lengths, amplitude.real, amplitude.imag, np.abs(amplitude),
    )


def write_power_csv(path, lengths: Array, power: Array, header_lines=()):
    write_table(path, header_lines, ("L", "P"), (".12g", ".12g"), lengths, power)
