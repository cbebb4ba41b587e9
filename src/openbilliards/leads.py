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

R is formed in one of two layouts, chosen by the table's content
(`OverlapTable.blocks`). A mirror-symmetric cavity has levels that are even
(phi(R) = phi(L)) or odd (phi(R) = -phi(L)). In the channels (L +/- R)/sqrt(2)
its R falls apart into an even and an odd n x n block, each summed over
its own levels with amplitudes sqrt(2) phi(L) and split at its own nearest
level: two blocks on a block axis. Any other table gives one block over
the lead channels, left then right, 2n wide. The nearest level is split
off per block, so two near-degenerate levels of opposite parity each get
their own pole term; a near-degenerate pair of one parity, or any pair of
an asymmetric cavity, still leaves one of them in the regular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def blocks(self) -> tuple[Array, tuple[Array, ...]]:
        """(levels, sides): the levels and amplitudes `r_matrix` sums, per block.

        Two blocks when every level has right == left (even) or right ==
        -left (odd) bit for bit, and both parities occur: levels (2, size),
        even then odd, and one side (2, n_lead, size) of amplitudes
        sqrt(2) * left, padded to equal size with level +inf and amplitude 0.
        Otherwise one block without a block axis: levels (k_keep,) and the
        sides (left.T, right.T). Amplitudes run along the levels, the axis a
        point's scaling by 1/(E - E_j) runs along. Built on first use, once
        per table.
        """
        even = np.all(self.right == self.left, axis=1)
        odd = np.all(self.right == -self.left, axis=1) & ~even
        if not (np.all(even | odd) and np.any(even) and np.any(odd)):
            return self.energies, (self.left.T, self.right.T)
        size = max(np.count_nonzero(even), np.count_nonzero(odd))
        levels = np.full((2, size), np.inf)
        amplitudes = np.zeros((2, self.n_lead, size))
        for block, kept in enumerate((even, odd)):
            count = np.count_nonzero(kept)
            levels[block, :count] = self.energies[kept]
            amplitudes[block, :, :count] = math.sqrt(2.0) * self.left[kept].T
        return levels, (amplitudes,)


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
    """R = regular + outer(residue, residue) / gap, per block of channels.

    `regular` is the real symmetric pole sum without one level, `residue`
    that level's interface values and `gap` = E - E_level, which may be 0.
    A finite R is passed as `regular` with a zero residue. In the one-block
    layout the rows are the lead channels, left then right (2n); in the
    two-block layout a block axis of length 2 (even, odd) precedes them and
    each block is n x n over the channels (L +/- R)/sqrt(2) (see the module
    docstring). A stack of reaction matrices carries the same leading axes,
    before any block axis, on all three fields.
    """

    regular: Array  # (..., [2,] width, width), exactly symmetric
    residue: Array  # (..., [2,] width)
    gap: float | Array  # (..., [2])


def r_matrix(table: OverlapTable, space: LeadSpace) -> ReactionMatrix:
    """Reaction matrix over open channels, in the layout of `table.blocks`.

    In each block the level nearest E is split off as the pole term, so R
    is defined at every energy, exactly on a cavity level too. A stacked
    `space` gives a stack of reaction matrices; each is the one its energy
    alone gives, bit for bit.
    """
    n = space.n_open
    if n > table.n_lead:
        raise ValueError(f"table holds {table.n_lead} channels, need {n}")
    if abs(space.lead_width - table.lead_width) > INTERFACE_TOL:
        raise ValueError("lead width mismatch between table and channel space")
    levels, sides = table.blocks
    phi = np.concatenate([side[..., :n, :] for side in sides], axis=-2)  # ([2,] width, size)
    energy = np.asarray(space.energy, dtype=float)
    gaps = energy.reshape((-1,) + (1,) * levels.ndim) - levels  # (energies, [2,] size)
    flat = gaps.reshape(-1, levels.shape[-1])  # a view: one row per energy and block
    rows = np.arange(flat.shape[0])
    nearest = np.argmin(np.abs(flat), axis=1)
    gap = flat[rows, nearest]
    flat[rows, nearest] = np.inf  # drops the split-off level from the sum
    n_blocks = math.prod(levels.shape[:-1])
    residue = phi.reshape((n_blocks,) + phi.shape[-2:])[rows % n_blocks, :, nearest]
    width = phi.shape[-2]
    regular = np.empty(gaps.shape[:-1] + (width, width))
    for i, row in enumerate(gaps):  # one product per energy and block, as for one energy alone
        regular[i] = phi @ (phi / row[..., None, :]).mT
    shape = energy.shape + levels.shape[:-1]
    regular = regular.reshape(shape + (width, width))
    return ReactionMatrix(
        regular=0.5 * (regular + regular.mT),
        residue=residue.reshape(shape + (width,)),
        gap=gap.reshape(shape)[()],  # a scalar for one energy and one block
    )
