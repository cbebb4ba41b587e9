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
from .leads import LeadSpace, ReactionMatrix, channel_space, overlaps, r_matrix
from .tables import write_table

Array = NDArray[np.float64]
CArray = NDArray[np.complex128]

logger = logging.getLogger(__name__)


def cayley_smatrix(rmat: ReactionMatrix, wavevectors: Array) -> CArray:
    """Unitary symmetric S from a reaction matrix split at its nearest pole.

    `wavevectors` lists the channel k's in the same order as the rows of
    R (both leads concatenated). With At = K^(1/2) regular K^(1/2),
    u = K^(1/2) residue, g = gap, M = I + i*At and v = M^(-1) u, the
    Sherman-Morrison form of the Cayley image is

        S = I - 2 M^(-1) + 2i v v^T / (g + i u^T v).

    The denominator's modulus is at least u^T (I + At^2)^(-1) u > 0, so S
    is finite on the pole (g = 0). M^(-1) comes from the eigenpairs of At,
    which keeps S unitary to rounding however large At is. A channel at
    its threshold (k = 0) carries no flux: S_nn = -1 and its other entries
    vanish. The 2D sweep and the 1D barrier (a one-channel `OverlapTable`)
    both reach it through `s_from_r`.
    """
    k = np.asarray(wavevectors, dtype=float)
    n = k.size
    if rmat.regular.shape != (n, n) or rmat.residue.shape != (n,):
        raise ValueError(f"R shape {rmat.regular.shape} does not match {n} channels")
    if np.any(k < 0.0):
        raise ValueError("channel wave vectors must not be negative")
    sk = np.sqrt(k)
    levels, vectors = np.linalg.eigh(sk[:, None] * rmat.regular * sk[None, :])
    inverse = 1.0 / (1.0 + 1j * levels)  # eigenvalues of M^(-1)
    coupling = vectors.T @ (sk * rmat.residue)  # u in the eigenbasis
    smat = np.eye(n) - 2.0 * (vectors * inverse) @ vectors.T
    denom = rmat.gap + 1j * np.sum(inverse * coupling**2)
    if denom != 0.0:  # zero only for a decoupled level (u = 0) on its pole
        v = vectors @ (inverse * coupling)
        smat += (2j / denom) * np.outer(v, v)
    # time-reversal symmetry is exact; BLAS products are symmetric only to
    # rounding
    return 0.5 * (smat + smat.T)


def s_from_r(rmat: ReactionMatrix, space: LeadSpace) -> CArray:
    """Flux-normalized S-matrix from the reaction matrix at `space.energy`.

    A plain 2N x 2N array with blocks [[r, t'], [t, r']] over the N open
    channels of each lead; 0 x 0 when no channel is open.
    """
    both = np.concatenate([space.wavevectors, space.wavevectors])
    return cayley_smatrix(rmat, both)


def conductance(smat: CArray) -> float:
    """Dimensionless Landauer sum T = trace(t t^dagger); 0.0 for a 0 x 0 S."""
    n = smat.shape[0] // 2
    return float(np.sum(np.abs(smat[n:, :n]) ** 2))


@dataclass(frozen=True)
class SweepResult:
    """Conductance sweep over a k-grid in units of pi/w, one entry per point."""

    lead_width: float
    k: Array  # the requested grid, units pi/w
    transmission: Array
    n_open: NDArray[np.int64]
    unitarity_defect: Array
    t_blocks: tuple[CArray, ...]  # per point, n_open x n_open

    @property
    def k_requested(self) -> Array:
        """The grid; equal to `k`, since every point is computed."""
        return self.k

    @property
    def skipped(self) -> tuple[tuple[float, str], ...]:
        """Always empty: no point is skipped."""
        return ()


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
    Below the first threshold no channel is open and T = 0. T at a point
    does not depend on the rest of the grid. A grid reaching past the axial
    cutoff k_c = m_max*w/L logs a warning.
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

    points = []
    for energy in energies:
        space = channel_space(float(energy), w)
        n = space.n_open
        smat = s_from_r(r_matrix(table, space), space)
        defect = np.max(np.abs(smat @ smat.conj().T - np.eye(2 * n)), initial=0.0)
        points.append((conductance(smat), n, defect, smat[n:, :n].copy()))
    transmission, n_open, defects, blocks = zip(*points)
    return SweepResult(
        lead_width=w,
        k=k_grid.copy(),
        transmission=np.asarray(transmission),
        n_open=np.asarray(n_open, dtype=np.int64),
        unitarity_defect=np.asarray(defects),
        t_blocks=blocks,
    )


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
        np.save(fh, np.concatenate([b.ravel() for b in result.t_blocks], dtype=np.complex128))


def read_t_store(path) -> tuple[Array, list[CArray]]:
    """Inverse of write_t_store: the grid and one n_open x n_open block per point."""
    with open(path, "rb") as fh:
        ks, n_open, flat = np.load(fh), np.load(fh), np.load(fh)
    sizes = n_open**2
    if n_open.shape != ks.shape or sizes.sum() != flat.size:
        raise ValueError(f"{path}: {ks.size} points, {n_open.size} counts, {flat.size} values")
    return ks, [b.reshape(n, n) for b, n in zip(np.split(flat, np.cumsum(sizes)[:-1]), n_open)]
