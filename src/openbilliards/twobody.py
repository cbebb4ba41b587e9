"""Two-particle interaction matrix elements over cavity eigenfunctions.

H_ijkl couples products of single-particle states through a potential that
depends on the particles' physical positions. The integral is done in the
transformed (u, v) coordinates where each state is a plain harmonic
expansion with no 1/sqrt(J) factor: the two Jacobians from the measure
cancel exactly against the paired 1/sqrt(J) normalizations. The module also
carries the original-coordinate form of the same integral (`h_ijkl_direct`)
so the cancellation can be checked numerically rather than trusted.

Particles are distinguishable; (anti)symmetrization is left to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .cavity import CavitySolution, eval_wavefunction
from .tables import write_table

Array = NDArray[np.float64]

# Values computed at quad_order and at twice that must agree within this
# (relative, floored at 1).
_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class InteractionSpec:
    """Potential plus quadrature order for pair matrix elements.

    The potential is called with the interparticle distance. `h_ijkl` and
    `pair_hamiltonian` check their values against twice quad_order.
    """

    potential: Callable[[Array], Array]
    quad_order: int

    def __post_init__(self):
        if self.quad_order < 8:
            raise ValueError(f"quad_order must be >= 8, got {self.quad_order}")


def gaussian(strength: float, width: float) -> Callable[[Array], Array]:
    """V(d) = strength * exp(-(d/width)^2)."""
    if width <= 0.0:
        raise ValueError("width must be positive")

    def potential(dist):
        return strength * np.exp(-((dist / width) ** 2))

    return potential


def contact_regularized(strength: float, width: float) -> Callable[[Array], Array]:
    """Normalized Gaussian spike: area `strength`, scale `width`."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    peak = strength / (2.0 * math.pi * width**2)

    def potential(dist):
        return peak * np.exp(-(dist**2) / (2.0 * width**2))

    return potential


def _gauss_grid(profile, q):
    """Tensor Gauss nodes on [0, L] x [0, 1] with physical positions.

    Returns flat arrays (a-major): x, y, du dv weights, plus the 1D node
    sets needed for the harmonic evaluation.
    """
    nodes, weights = np.polynomial.legendre.leggauss(q)
    u = 0.5 * profile.length * (nodes + 1.0)
    uw = 0.5 * profile.length * weights
    v = 0.5 * (nodes + 1.0)
    vw = 0.5 * weights
    lower = np.asarray(profile.lower_fn(u), dtype=float)
    width = np.asarray(profile.width_at(u), dtype=float)
    x = np.repeat(u, q)
    y = (lower[:, None] + width[:, None] * v[None, :]).ravel()
    w2 = (uw[:, None] * vw[None, :]).ravel()
    return x, y, w2, u, v, width


# Rows per block of the potential matrix, which is never held whole: at
# q = 80 (6400 points) each temporary is 26 MB instead of 328 MB.
_BLOCK_ROWS = 512


def _contract(spec, x, y, left, right):
    """left @ V @ right.T, V the potential between grid points, built in row blocks."""
    out = np.zeros((left.shape[0], right.shape[0]))
    for start in range(0, x.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        dx = x[rows, None] - x[None, :]
        dy = y[rows, None] - y[None, :]
        vm = np.asarray(spec.potential(np.hypot(dx, dy)), dtype=float)
        if vm.shape != dx.shape:
            raise ValueError("potential must evaluate elementwise on arrays")
        out += left[:, rows] @ (vm @ right.T)
    return out


def _pair_block(solution, states, spec, q):
    """G[(i,k),(j,l)] = sum over both grids of phi_i phi_k V phi_j phi_l."""
    x, y, w2, u, v, _ = _gauss_grid(solution.profile, q)
    phi = solution.grid_values(states, u, v)
    ns = len(states)
    f = (phi[:, None, :] * phi[None, :, :]).reshape(ns * ns, x.size) * w2
    g = _contract(spec, x, y, f, f)
    return 0.5 * (g + g.T)


def _check_indices(solution, indices):
    for idx in indices:
        if not 0 <= idx < solution.k_keep:
            raise IndexError(
                f"state {idx} outside retained range 0..{solution.k_keep - 1}"
            )


def _checked_at_doubled_order(value: Callable[[int], Array], spec: InteractionSpec):
    """value(spec.quad_order), verified against value(2 * spec.quad_order).

    Raises ArithmeticError when max|coarse - fine| exceeds _CHECK_TOL times
    max(1, max|coarse|, max|fine|).
    """
    coarse = value(spec.quad_order)
    fine = value(2 * spec.quad_order)
    drift = float(np.max(np.abs(coarse - fine)))
    scale = max(1.0, float(np.max(np.abs(coarse))), float(np.max(np.abs(fine))))
    if drift > _CHECK_TOL * scale:
        raise ArithmeticError(
            f"quadrature not converged at q={spec.quad_order}: "
            f"drift {drift:.3e} against q={2 * spec.quad_order}"
        )
    return coarse


def h_ijkl(
    solution: CavitySolution, i: int, j: int, k: int, l: int, spec: InteractionSpec
) -> float:
    """One matrix element <ij|V|kl>; (i,k) pair particle 1, (j,l) particle 2.

    Evaluated at spec.quad_order and verified against twice that order;
    disagreement beyond _CHECK_TOL signals an under-resolved potential.
    """
    _check_indices(solution, (i, j, k, l))
    states = sorted(set((i, j, k, l)))
    pos = {s: a for a, s in enumerate(states)}
    ns = len(states)

    def value(q):
        g = _pair_block(solution, states, spec, q)
        return g[pos[i] * ns + pos[k], pos[j] * ns + pos[l]]

    return float(_checked_at_doubled_order(value, spec))


def pair_hamiltonian(
    solution: CavitySolution, index_set: Sequence[int], spec: InteractionSpec
) -> Array:
    """Pair-basis matrix M[(ij),(kl)] = H_ijkl + (E_i + E_j) delta.

    Pair states run over ordered products of `index_set` (distinguishable
    particles), row-major in (i, j). The interaction part is checked once
    blockwise at doubled quadrature order.
    """
    states = list(index_set)
    if not states:
        raise ValueError("index_set must not be empty")
    if len(set(states)) != len(states):
        raise ValueError("index_set must not repeat states")
    _check_indices(solution, states)
    ns = len(states)

    def block(q):
        g = _pair_block(solution, states, spec, q)
        g4 = g.reshape(ns, ns, ns, ns)  # [i, k, j, l]
        return g4.transpose(0, 2, 1, 3).reshape(ns * ns, ns * ns)

    mat = _checked_at_doubled_order(block, spec)
    energies = solution.energies[states]
    mat[np.diag_indices_from(mat)] += np.add.outer(energies, energies).ravel()
    return mat


def interaction_block(
    solution: CavitySolution, index_set: Sequence[int], spec: InteractionSpec
) -> Array:
    """Pair energies, ascending, of the interacting two-particle block."""
    mat = pair_hamiltonian(solution, index_set, spec)
    return np.linalg.eigvalsh(mat)


def h_ijkl_direct(
    solution: CavitySolution,
    i: int,
    j: int,
    k: int,
    l: int,
    spec: InteractionSpec,
    quad_order: int | None = None,
) -> float:
    """Same element in original coordinates: physical wavefunctions and
    the J du dv measure. Cross-check for the transformed-coordinate form."""
    _check_indices(solution, (i, j, k, l))
    q = spec.quad_order if quad_order is None else quad_order
    x, y, w2, _, _, width = _gauss_grid(solution.profile, q)
    jac = np.repeat(width, q)
    psi = {
        s: eval_wavefunction(solution, s, x, y) for s in set((i, j, k, l))
    }
    f_ik = psi[i] * psi[k] * w2 * jac
    f_jl = psi[j] * psi[l] * w2 * jac
    return float(_contract(spec, x, y, f_ik[None, :], f_jl[None, :])[0, 0])


def write_pair_energies_csv(path, energies, header_lines=()):
    energies = np.asarray(energies, dtype=float)
    write_table(
        path, header_lines, ("index", "E_pair"), ("d", ".12g"), np.arange(energies.size), energies
    )
