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
    """Open-channel set of the two identical leads at one energy, or at a
    stack of energies that all open the same channels."""

    energy: float | Array  # a float, or a (p,) stack
    lead_width: float
    wavevectors: Array  # (..., n_open): k_n for n = 1..n_open, strictly decreasing, >= 0

    @property
    def n_open(self) -> int:
        return self.wavevectors.shape[-1]


def _thresholds(energies: Array, lead_width: float) -> Array:
    """Channel thresholds (n*pi/w)^2 for n = 1 up to one past the highest open."""
    if not np.all(energies > 0.0):
        raise ValueError(f"energy must be positive, got {np.min(energies)}")
    if lead_width <= 0.0:
        raise ValueError(f"lead width must be positive, got {lead_width}")
    n_max = int(math.floor(lead_width * math.sqrt(np.max(energies)) / math.pi)) + 1
    return (np.arange(1, n_max + 1) * math.pi / lead_width) ** 2


def channel_counts(energies: Array, lead_width: float) -> NDArray[np.int64]:
    """Number of open channels at each of `energies` (see `channel_space`)."""
    energies = np.asarray(energies, dtype=float)
    thresholds = _thresholds(energies, lead_width)
    return np.count_nonzero(thresholds <= energies[..., None], axis=-1)


def channel_space(energy: float | Array, lead_width: float) -> LeadSpace:
    """Enumerate open channels at `energy` for leads of width `lead_width`.

    A channel is open when its threshold is <= E, so at an exact threshold
    the new channel is open with k_n = 0; it carries no flux (S_nn = -1).
    `energy` may be a 1D stack whose energies all open the same number of
    channels; the wave vectors then get a leading stack axis.
    """
    energies = np.asarray(energy, dtype=float)
    counts = channel_counts(energies, lead_width)
    n_open = int(np.max(counts))
    if np.any(counts != n_open):
        raise ValueError("a stack of energies must open the same number of channels")
    wavevectors = np.sqrt(energies[..., None] - _thresholds(energies, lead_width)[:n_open])
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
    A finite R is passed as `regular` with a zero residue. A stack of
    reaction matrices carries the same leading axes on all three fields.
    """

    regular: Array  # (..., n, n), exactly symmetric
    residue: Array  # (..., n)
    gap: float | Array  # (...)


def r_matrix(table: OverlapTable, space: LeadSpace) -> ReactionMatrix:
    """Reaction matrix over open channels, blocks ordered (left, right).

    The retained level nearest E is split off as the pole term, so R is
    defined at every energy, exactly on a cavity level too. A stacked
    `space` gives a stack of reaction matrices; each is the one its energy
    alone gives, bit for bit.
    """
    n = space.n_open
    if n > table.n_lead:
        raise ValueError(f"table holds {table.n_lead} channels, need {n}")
    if abs(space.lead_width - table.lead_width) > INTERFACE_TOL:
        raise ValueError("lead width mismatch between table and channel space")
    energy = np.asarray(space.energy, dtype=float)
    gaps = energy.reshape(-1, 1) - table.energies  # one row per energy
    rows = np.arange(energy.size)
    nearest = np.argmin(np.abs(gaps), axis=1)
    gap = gaps[rows, nearest]
    gaps[rows, nearest] = np.inf  # drops the split-off level from the sum
    phi = np.concatenate([table.left[:, :n], table.right[:, :n]], axis=1)
    regular = np.empty((energy.size, 2 * n, 2 * n))
    for i, row in enumerate(gaps):  # one product per energy, as for one energy
        regular[i] = phi.T @ (phi / row[:, None])
    regular = regular.reshape(energy.shape + (2 * n, 2 * n))
    return ReactionMatrix(
        regular=0.5 * (regular + regular.mT),
        residue=phi[nearest].reshape(energy.shape + (2 * n,)),
        gap=gap.reshape(energy.shape)[()],  # a scalar for one energy
    )
