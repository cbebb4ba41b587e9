"""Step-barrier transmission in one dimension, exact and via reaction matrix.

End-to-end check of the energy-domain pipeline on a problem with a closed
form: a constant potential step of height V0 on [0, 1]. The reaction matrix
is the Neumann-basis spectral sum with poles at V0 + (m*pi)^2, split at the
level nearest E like the cavity's, and the scattering matrix reuses the
same Cayley construction as the cavity solver, with interface phases
diag(1, e^{-ik}). Units hbar^2/2m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .leads import ReactionMatrix
from .scattering import cayley_smatrix
from .tables import write_table

Array = NDArray[np.float64]


@dataclass(frozen=True)
class BarrierProblem:
    """Constant step of height `height` on the unit interval."""

    height: float
    m_trunc: int = 1000

    def __post_init__(self):
        if self.height < 0.0:
            raise ValueError(f"step height must be >= 0, got {self.height}")
        if self.m_trunc < 1:
            raise ValueError(f"m_trunc must be >= 1, got {self.m_trunc}")

    def levels(self) -> Array:
        """Interior Neumann levels V0 + (m*pi)^2, m = 0..m_trunc."""
        m = np.arange(self.m_trunc + 1, dtype=float)
        return self.height + (m * math.pi) ** 2


def exact_transmission(energy: float, height: float) -> float:
    """Closed-form |t|^2 across the unit step.

    T = [1 + V0^2 sin^2(k2) / (4 E (E - V0))]^{-1} with k2 = sqrt(E - V0);
    below the step sin continues to sinh and the correction stays positive.
    The removable point E = V0 is filled with its limit.
    """
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    if height == 0.0:
        return 1.0
    gap = energy - height
    if gap > 0.0:
        shape = math.sin(math.sqrt(gap)) ** 2 / gap
    elif gap < 0.0:
        shape = math.sinh(math.sqrt(-gap)) ** 2 / -gap
    else:
        shape = 1.0
    return 1.0 / (1.0 + height**2 * shape / (4.0 * energy))


def reaction_matrix(energy: float, problem: BarrierProblem) -> ReactionMatrix:
    """2x2 reaction matrix from the truncated Neumann-basis series.

    Diagonal: 1/(E - V0) + sum_m 2/(E - V0 - m^2 pi^2). Off-diagonal gets
    the alternating sign of the basis function at the far wall. Strictly
    decreasing in E between consecutive poles. The level nearest E is
    split off as the pole term.
    """
    e = float(energy)
    if e <= 0.0:
        raise ValueError(f"energy must be positive, got {e}")
    gaps = e - problem.levels()
    nearest = int(np.argmin(np.abs(gaps)))
    gap = float(gaps[nearest])
    gaps[nearest] = np.inf  # drops the split-off level from the sums
    weights = np.full(gaps.size, 2.0)
    weights[0] = 1.0
    signs = np.where(np.arange(gaps.size) % 2 == 0, 1.0, -1.0)
    diag = math.fsum(weights / gaps)
    off = math.fsum(weights * signs / gaps)
    return ReactionMatrix(
        regular=np.array([[diag, off], [off, diag]]),
        residue=math.sqrt(weights[nearest]) * np.array([1.0, signs[nearest]]),
        gap=gap,
    )


def barrier_smatrix(energy: float, problem: BarrierProblem) -> NDArray[np.complex128]:
    """2x2 scattering matrix with interface phases diag(1, e^{-ik})."""
    k = math.sqrt(float(energy))
    core = cayley_smatrix(reaction_matrix(energy, problem), np.array([k, k]))
    phases = np.array([1.0, np.exp(-1j * k)])
    return phases[:, None] * core * phases[None, :]


def rmatrix_transmission(energy: float, problem: BarrierProblem) -> float:
    """|S_21|^2 from the truncated reaction matrix."""
    smat = barrier_smatrix(energy, problem)
    return float(abs(smat[1, 0]) ** 2)


def write_comparison_csv(path, problem, energies, header_lines=()) -> float:
    """Emit E, T_exact, T_rmatrix rows, one per energy.

    Returns the largest |T_exact - T_rmatrix| written (0 for no energies).
    """
    energies = np.asarray(energies, dtype=float)
    t_ex = np.array([exact_transmission(e, problem.height) for e in energies])
    t_rm = np.array([rmatrix_transmission(e, problem) for e in energies])
    write_table(
        path, header_lines, ("E", "T_exact", "T_rmatrix"), (".12g",) * 3, energies, t_ex, t_rm
    )
    return float(np.max(np.abs(t_ex - t_rm), initial=0.0))
