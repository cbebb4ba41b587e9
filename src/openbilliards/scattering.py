"""S-matrices from the reaction matrix, conductance, and energy sweeps.

With K = diag(k_n) over both leads and Rt = K^(1/2) R K^(1/2), the scattering
matrix referenced at the interfaces is the Cayley image

    S = (i*Rt - I) (i*Rt + I)^(-1),

which is exactly unitary and symmetric for real symmetric R. The sign is
fixed by the hard-wall limit: R -> 0 must give r = -1 (Dirichlet phase), and
a clean guide then transmits with t = exp(i*k_n*L). Outgoing amplitudes are
measured at each lead's own interface (x=0 left, x=L right).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cavity import CavitySolution
from .leads import (
    LeadSpace,
    ReactionMatrix,
    channel_counts,
    channel_space,
    overlaps,
    r_matrix,
)
from .tables import write_table

Array = NDArray[np.float64]
CArray = NDArray[np.complex128]

logger = logging.getLogger(__name__)

# Points per stacked S-matrix evaluation in a sweep: keeps the stack's
# temporaries at a few MB whatever the grid size.
_SLICE = 64


def cayley_smatrix(rmat: ReactionMatrix, wavevectors: Array) -> CArray:
    """Unitary symmetric S from a reaction matrix split at its nearest pole.

    `wavevectors` lists the channel k's in the same order as the rows of
    R, with the same leading axes. With At = K^(1/2) regular K^(1/2),
    u = K^(1/2) residue, g = gap, M = I + i*At and v = M^(-1) u, the
    Sherman-Morrison form of the Cayley image is

        S = I - 2 M^(-1) + 2i v v^T / (g + i u^T v).

    The denominator's modulus is at least u^T (I + At^2)^(-1) u > 0, so S
    is finite on the pole (g = 0). M^(-1) comes from the eigenpairs of At,
    which keeps S unitary to rounding however large At is. A channel at
    its threshold (k = 0) carries no flux: S_nn = -1 and its other entries
    vanish. The 2D sweep and the 1D barrier (a one-channel `OverlapTable`)
    both reach it through `s_from_r`.

    A stack of reaction matrices and wave vectors (leading axes on every
    field) gives a stack of S-matrices, each equal bit for bit to the one
    its point alone gives.
    """
    k = np.asarray(wavevectors, dtype=float)
    n = k.shape[-1]
    if rmat.regular.shape != k.shape + (n,) or rmat.residue.shape != k.shape:
        raise ValueError(f"R shape {rmat.regular.shape} does not match channels {k.shape}")
    if k.min(initial=0.0) < 0.0:
        raise ValueError("channel wave vectors must not be negative")
    sk = np.sqrt(k)
    levels, vectors = np.linalg.eigh(sk[..., :, None] * rmat.regular * sk[..., None, :])
    inverse = 1.0 / (1.0 + 1j * levels)  # eigenvalues of M^(-1)
    coupling = (vectors.mT @ (sk * rmat.residue)[..., None])[..., 0]  # u in the eigenbasis
    smat = np.eye(n) - 2.0 * (vectors * inverse[..., None, :]) @ vectors.mT
    weighted = inverse * coupling  # v in the eigenbasis
    denom = rmat.gap + 1j * np.sum(weighted * coupling, axis=-1)
    # zero only for a decoupled level (u = 0) on its pole, which adds nothing
    scale = np.divide(2j, denom, out=np.zeros(np.shape(denom), complex), where=denom != 0.0)
    v = (vectors @ weighted[..., None])[..., 0]
    smat += scale[..., None, None] * (v[..., :, None] * v[..., None, :])
    # time-reversal symmetry is exact; BLAS products are symmetric only to
    # rounding
    return 0.5 * (smat + smat.mT)


def s_from_r(rmat: ReactionMatrix, space: LeadSpace) -> CArray:
    """Flux-normalized S-matrix from the reaction matrix at `space.energy`.

    A plain 2N x 2N array with blocks [[r, t'], [t, r']] over the N open
    channels of each lead; 0 x 0 when no channel is open. A stacked `space`
    and `rmat` give a stack of S-matrices. An `rmat` in the two-block
    layout (see `leads.ReactionMatrix`) gives S_even and S_odd in one stack;
    back in the lead channels r = r' = (S_even + S_odd)/2 and
    t = t' = (S_even - S_odd)/2.
    """
    k = space.wavevectors
    if rmat.residue.ndim == k.ndim:  # one block: the lead channels, left then right
        return cayley_smatrix(rmat, np.concatenate([k, k], axis=-1))
    half = 0.5 * cayley_smatrix(rmat, k[..., None, :].repeat(2, axis=-2))
    even, odd = half[..., 0, :, :], half[..., 1, :, :]
    n = k.shape[-1]
    smat = np.empty(k.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    smat[..., :n, :n] = smat[..., n:, n:] = even + odd
    smat[..., n:, :n] = smat[..., :n, n:] = even - odd
    return smat


def conductance(smat: CArray) -> float | Array:
    """Dimensionless Landauer sum T = trace(t t^dagger); 0.0 for a 0 x 0 S.

    One value per matrix of a stack.
    """
    n = smat.shape[-1] // 2
    flux = np.abs(smat[..., n:, :n]) ** 2
    return np.sum(flux.reshape(flux.shape[:-2] + (n * n,)), axis=-1)


def unitarity_defect(smat: CArray) -> float | Array:
    """max |S S^dagger - I|; 0.0 for a 0 x 0 S. One value per matrix of a stack."""
    product = smat @ smat.conj().mT
    return np.max(np.abs(product - np.eye(smat.shape[-1])), axis=(-2, -1), initial=0.0)


@dataclass(frozen=True)
class SweepResult:
    """Conductance sweep over a k-grid in units of pi/w, one entry per point.

    The t blocks are stored as the t-store holds them: every point's
    n_open x n_open block raveled and concatenated in grid order.
    """

    lead_width: float
    k: Array  # the requested grid, units pi/w
    transmission: Array
    n_open: NDArray[np.int64]
    unitarity_defect: Array
    t: CArray  # (sum of n_open^2,) complex

    @property
    def t_offsets(self) -> NDArray[np.int64]:
        """Where each point's block starts in `t`, and the end: n_open.size + 1 entries."""
        return np.concatenate([[0], np.cumsum(self.n_open**2)])

    @property
    def t_blocks(self) -> tuple[CArray, ...]:
        """Per-point n_open x n_open views of `t`."""
        return _split_blocks(self.t, self.n_open)

    @property
    def k_requested(self) -> Array:
        """The grid; equal to `k`, since every point is computed."""
        return self.k

    @property
    def skipped(self) -> tuple[tuple[float, str], ...]:
        """Always empty: no point is skipped."""
        return ()


def _split_blocks(flat: CArray, n_open: NDArray[np.int64]) -> tuple[CArray, ...]:
    bounds = np.cumsum(n_open**2)[:-1]
    return tuple(b.reshape(n, n) for b, n in zip(np.split(flat, bounds), n_open))


def check_sweep_grid(solution: CavitySolution, k_grid: Array) -> Array:
    """`k_grid` as a float array; ValueError unless `solution` can sweep it.

    The grid (units pi/w) must be 1D, non-empty, positive and finite, and
    its top point must open no more lead channels than the basis has modes.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1 or k_grid.size == 0:
        raise ValueError("k_grid must be a non-empty 1D array")
    if not np.all((k_grid > 0.0) & (k_grid < math.inf)):
        raise ValueError("k_grid values must be positive and finite (units pi/w)")
    w = solution.profile.lead_width
    k = float(np.max(k_grid)) * math.pi / w
    needed = channel_space(k * k, w).n_open  # k * k: the sweep's own energy
    if needed > solution.basis.n_max:
        raise ValueError(
            f"sweep needs {needed} lead channels but the basis holds "
            f"n_max={solution.basis.n_max} transverse modes"
        )
    return k_grid


def sweep_conductance(solution: CavitySolution, k_grid: Array) -> SweepResult:
    """Sweep S-matrices over `k_grid` (units pi/w), reusing one solution.

    Every point is computed, on channel thresholds and cavity levels too.
    Below the first threshold no channel is open and T = 0. The points that
    open the same channels are swept as stacks of at most `_SLICE` points,
    and a point's T, t block and unitarity defect are bit for bit those of
    `s_from_r` at its energy alone, whatever the rest of the grid. A grid
    reaching past the axial cutoff k_c = m_max*w/L logs a warning.
    """
    k_grid = check_sweep_grid(solution, k_grid)
    w = solution.profile.lead_width
    k_top = float(np.max(k_grid))
    k_cutoff = solution.basis.m_max * w / solution.profile.length
    if k_top > k_cutoff:
        logger.warning(
            "sweep reaches k = %.6g pi/w, past the axial cutoff k_c = m_max*w/L "
            "= %.6g pi/w", k_top, k_cutoff,
        )
    energies = (k_grid * math.pi / w) ** 2
    table = overlaps(solution)
    n_open = channel_counts(energies, w)
    result = SweepResult(
        lead_width=w,
        k=k_grid.copy(),
        transmission=np.empty(k_grid.size),
        n_open=n_open,
        unitarity_defect=np.empty(k_grid.size),
        t=np.empty(int(np.sum(n_open**2)), dtype=complex),
    )
    offsets = result.t_offsets
    # The points between two channel thresholds share one channel space:
    # their S-matrices are formed as one stack, a slice at a time.
    for n in np.flatnonzero(np.bincount(n_open)):  # np.unique would import numpy.ma
        group = np.flatnonzero(n_open == n)
        for start in range(0, group.size, _SLICE):
            idx = group[start : start + _SLICE]
            space = channel_space(energies[idx], w)
            smat = s_from_r(r_matrix(table, space), space)
            result.transmission[idx] = conductance(smat)
            result.unitarity_defect[idx] = unitarity_defect(smat)
            at = offsets[idx, None] + np.arange(n * n)
            result.t[at] = smat[:, n:, :n].reshape(idx.size, n * n)
    return result


def write_sweep_csv(result: SweepResult, path, header_lines=()) -> None:
    """Write one row per sweep point: k, T, N_open, unitarity defect."""
    write_table(
        path, header_lines, ("k_over_piw", "T", "N_open", "unitarity_defect"),
        (".12g", ".12g", "d", ".6g"),
        result.k, result.transmission, result.n_open, result.unitarity_defect,
    )


def write_t_store(result: SweepResult, path) -> None:
    """Three .npy arrays back to back: k, n_open (int64), then every t block
    raveled and concatenated in sweep order."""
    with open(path, "wb") as fh:
        np.save(fh, result.k)
        np.save(fh, np.asarray(result.n_open, dtype=np.int64))
        np.save(fh, np.asarray(result.t, dtype=np.complex128))


def read_t_store(path) -> tuple[Array, list[CArray]]:
    """Inverse of write_t_store: the grid and one n_open x n_open block per point."""
    with open(path, "rb") as fh:
        ks, n_open, flat = np.load(fh), np.load(fh), np.load(fh)
    if n_open.shape != ks.shape or np.sum(n_open**2) != flat.size:
        raise ValueError(f"{path}: {ks.size} points, {n_open.size} counts, {flat.size} values")
    return ks, list(_split_blocks(flat, n_open))
