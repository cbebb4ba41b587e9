"""Lead channel spaces, cavity-lead overlaps, and the reaction matrix.

A lead of width w supports transverse modes sqrt(2/w)*sin(n*pi*y/w) with
longitudinal wave vectors k_n = sqrt(E - (n*pi/w)^2); a mode is open when
k_n is real. The reaction matrix relates the wave function's values at the
two interfaces to its inward normal derivatives there,

    R_ab(n, n') = sum_j phi_jn(a) phi_jn'(b) / (E - E_j),

summed over the retained cavity eigenpairs. Evanescent (closed) channels
are excluded throughout. R is kept split as a regular part plus the pole
term of the level nearest E, so that the S-matrix can be formed at any
energy, the cavity levels included (see `scattering.cayley_smatrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cavity import CavitySolution

Array = NDArray[np.float64]

INTERFACE_TOL = 1e-9


class IllConditionedEnergy(ArithmeticError):
    """Energy too close to a channel threshold or a reaction-matrix pole.

    No longer raised: the S-matrix is computed at every energy. The name is
    kept for code that still catches it; `reason` is "threshold" or "pole".
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class LeadSpace:
    """Open-channel set of the two identical leads at one energy."""

    energy: float
    lead_width: float
    wavevectors: Array  # k_n for n = 1..n_open, strictly decreasing, >= 0

    @property
    def n_open(self) -> int:
        return self.wavevectors.size


def channel_space(energy: float, lead_width: float) -> LeadSpace:
    """Enumerate open channels at `energy` for leads of width `lead_width`.

    A channel is open when its threshold is <= E, so at an exact threshold
    the new channel is open with k_n = 0; it carries no flux (S_nn = -1).
    """
    if energy <= 0.0:
        raise ValueError(f"energy must be positive, got {energy}")
    if lead_width <= 0.0:
        raise ValueError(f"lead width must be positive, got {lead_width}")
    n_max = int(math.floor(lead_width * math.sqrt(energy) / math.pi)) + 1
    thresholds = (np.arange(1, n_max + 1) * math.pi / lead_width) ** 2
    n_open = int(np.count_nonzero(thresholds <= energy))
    wavevectors = np.sqrt(energy - thresholds[:n_open])
    return LeadSpace(energy=energy, lead_width=lead_width, wavevectors=wavevectors)


@dataclass(frozen=True)
class OverlapTable:
    """Interface overlaps phi_jn between cavity states and lead modes.

    Rows are retained cavity states j, columns lead channels n = 1..n_max,
    every transverse mode of the basis. Energy-independent: built once per
    solution, so an S-matrix depends only on the solution and the energy.
    """

    lead_width: float
    energies: Array  # cavity eigenvalues E_j, shape (k_keep,)
    left: Array  # (k_keep, n_max), interface x = 0
    right: Array  # (k_keep, n_max), interface x = L

    @property
    def n_lead(self) -> int:
        return self.left.shape[1]


def overlaps(solution: CavitySolution) -> OverlapTable:
    """Closed-form overlaps of the retained eigenstates with lead modes.

    At the interfaces v = (y - Q)/w, so the y-integral against the lead
    mode collapses by sine orthogonality: phi_jn is the state's expansion
    coefficient of s_n at the interface (`CavitySolution.interface_values`).
    No quadrature.
    """
    profile = solution.profile
    w = profile.lead_width
    for x in (0.0, profile.length):
        if abs(float(profile.width_at(x)) - w) > INTERFACE_TOL:
            raise ValueError(f"interface width at x={x} deviates from lead width")
    left, right = solution.interface_values()
    return OverlapTable(
        lead_width=w,
        energies=solution.energies.copy(),
        left=left,
        right=right,
    )


@dataclass(frozen=True)
class ReactionMatrix:
    """R = regular + outer(residue, residue) / gap, over both leads' channels.

    `regular` is the real symmetric pole sum without one level, `residue`
    that level's interface values and `gap` = E - E_level, which may be 0.
    A finite R is passed as `regular` with a zero residue.
    """

    regular: Array  # (n, n), exactly symmetric
    residue: Array  # (n,)
    gap: float


def r_matrix(table: OverlapTable, space: LeadSpace) -> ReactionMatrix:
    """Reaction matrix over open channels, blocks ordered (left, right).

    The retained level nearest E is split off as the pole term, so R is
    defined at every energy, exactly on a cavity level too.
    """
    n = space.n_open
    if n > table.n_lead:
        raise ValueError(f"table holds {table.n_lead} channels, need {n}")
    if abs(space.lead_width - table.lead_width) > INTERFACE_TOL:
        raise ValueError("lead width mismatch between table and channel space")
    gaps = space.energy - table.energies
    nearest = int(np.argmin(np.abs(gaps)))
    gap = float(gaps[nearest])
    gaps[nearest] = np.inf  # drops the split-off level from the sum
    phi = np.hstack([table.left[:, :n], table.right[:, :n]])
    regular = phi.T @ (phi / gaps[:, None])
    return ReactionMatrix(
        regular=0.5 * (regular + regular.T), residue=phi[nearest].copy(), gap=gap
    )
