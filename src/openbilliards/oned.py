"""Step-barrier transmission in one dimension, exact and via reaction matrix.

End-to-end check of the energy-domain pipeline on a problem with a closed
form: a constant potential step of height V0 on [0, 1]. The closed region's
Neumann levels V0 + (m*pi)^2 and their interface values form a one-channel
`OverlapTable`, so R and S come from the same code as the cavity's:
`leads.r_matrix` and `scattering.s_from_r`. Units hbar^2/2m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .leads import LeadSpace, OverlapTable, r_matrix
from .scattering import conductance, s_from_r


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

    def table(self) -> OverlapTable:
        """Levels V0 + (m*pi)^2, m = 0..m_trunc, as a one-channel pole table.

        The Neumann functions sqrt(eps_m) cos(m*pi*x) (eps_0 = 1, else 2)
        take sqrt(eps_m) at x = 0 and sqrt(eps_m) (-1)^m at x = 1. Built on
        the first call; later calls return the same read-only table.
        """
        return self._table

    @cached_property
    def _table(self) -> OverlapTable:
        m = np.arange(self.m_trunc + 1)
        left = np.full(m.size, math.sqrt(2.0))
        left[0] = 1.0
        table = OverlapTable(
            lead_width=1.0,
            energies=self.height + (m * math.pi) ** 2,
            left=left[:, None],
            right=np.where(m % 2 == 0, left, -left)[:, None],
        )
        for values in (table.energies, table.left, table.right):
            values.flags.writeable = False
        return table


def lead_space(energy: float | np.ndarray) -> LeadSpace:
    """The one open channel k = sqrt(E) of the 1D leads, at one energy or a
    1D stack of them."""
    e = np.asarray(energy, dtype=float)
    if not e.min() > 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    return LeadSpace(energy=e[()], lead_width=1.0, wavevectors=np.sqrt(e[..., None]))


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


def rmatrix_transmission(energy: float, problem: BarrierProblem) -> float:
    """|S_21|^2 from the truncated reaction matrix."""
    space = lead_space(energy)
    return float(conductance(s_from_r(r_matrix(problem.table(), space), space)))
