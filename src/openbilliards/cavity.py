"""Closed-cavity eigenproblem on the unit-height rectangle image.

The cavity between walls ``lower(x)`` and ``upper(x)`` maps onto the strip
``(u, v) in [0, length] x [0, 1]`` through ``u = x``,
``v = (y - lower) / J`` with ``J = upper - lower``.  In these coordinates the
(negative) Laplacian becomes ``-(1/J) d_a J g^{ab} d_b`` with the inverse
metric

    g^uu = 1
    g^uv = g^vu = -(Ql + v Jl) / J
    g^vv = (1 + (Ql + v Jl)^2) / J^2

where ``Ql = lower'`` and ``Jl = J'``.  Expanding eigenfunctions as

    psi_{n,m}(u, v) = (1 / sqrt(J)) * c_m(u) * s_n(v)

with orthonormal factors ``c_m(u) = sqrt(eps_m / length) cos(m pi u / length)``
(``eps_0 = 1``, ``eps_m = 2``) and ``s_n(v) = sqrt(2) sin(n pi v)`` gives a
real symmetric positive definite matrix in the weak form

    H[l, l'] = integral of  grad(psi_l) . (J g) grad(psi_l')  du dv,

a standard (not generalized) eigenproblem since the basis is J-orthonormal.
Every u-integral reduces to cosine/sine moments of a handful of profile
functions, evaluated with fast transforms; every v-integral is analytic.

Walls mirror-symmetric about ``x = length / 2`` give no coupling between even
and odd axial modes m.  `solve_cavity` detects this from the axial tables and
then solves the two parity blocks, each half the size, instead of the full
matrix; other walls take the generic full-matrix path.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import BoundaryProfile

logger = logging.getLogger(__name__)

Array = np.ndarray


# ---------------------------------------------------------------------------
# Fourier quadrature on the midpoint grid
# ---------------------------------------------------------------------------

def _stencil(kind: str) -> Array:
    """One-sided 5-point weights on midpoint nodes t_j = j + 1/2.

    kind 'slope' estimates f'(0), kind 'value' estimates f(0); both act on
    the first five samples (mirror for the right end).
    """
    t = np.arange(5) + 0.5
    vand = np.vander(t, 5, increasing=True).T
    rhs = np.zeros(5)
    rhs[1 if kind == "slope" else 0] = 1.0
    return np.linalg.solve(vand, rhs)


_SLOPE_W = _stencil("slope")
_VALUE_W = _stencil("value")


def _edge_slopes(values: Array, step: float) -> tuple[float, float]:
    left = float(_SLOPE_W @ values[:5]) / step
    right = -float(_SLOPE_W @ values[:-6:-1]) / step
    return left, right


def _edge_values(values: Array) -> tuple[float, float]:
    return float(_VALUE_W @ values[:5]), float(_VALUE_W @ values[:-6:-1])


def _midpoint_setup(values: Array, count: int) -> tuple[Array, int]:
    """Midpoint samples as floats and the moment count, both validated."""
    values = np.asarray(values, dtype=float)
    m_samples = values.size
    if m_samples < 8:
        raise ValueError(f"need at least 8 midpoint samples, got {m_samples}")
    if count > m_samples:
        raise ValueError(f"count {count} exceeds sample count {m_samples}")
    return values, count


def fft_cosine_integrals(values: Array, length: float, count: int) -> Array:
    """Cosine moments ``I_p = int_0^length f(u) cos(p pi u / length) du``.

    values are f sampled at the midpoints u_i = (i + 1/2) length / M, any
    M >= 8; moments p = 0..count-1 (count <= M) are returned as an array of
    shape (count,).  The quadratic matching f' at both ends is integrated
    exactly and only the remainder, whose even extension is C^1, goes
    through the fast transform, so the error falls off like M^-4 for
    smooth f.
    """
    import scipy.fft

    values, count = _midpoint_setup(values, count)
    m_samples = values.size
    step = length / m_samples
    slope0, slope1 = _edge_slopes(values, step)
    lin = slope0
    quad = (slope1 - slope0) / (2.0 * length)
    u = (np.arange(m_samples) + 0.5) * step
    residual = values - (lin * u + quad * u * u)
    core = (length / (2.0 * m_samples)) * scipy.fft.dct(residual, type=2)[:count]
    p = np.arange(count)
    sign = np.where(p % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (
            lin * length**2 * (sign - 1.0) / (p * np.pi) ** 2
            + quad * 2.0 * length**3 * sign / (p * np.pi) ** 2
        )
    exact[0] = lin * length**2 / 2.0 + quad * length**3 / 3.0
    return core + exact


def fft_sine_integrals(values: Array, length: float, count: int) -> Array:
    """Sine moments ``I_p = int_0^length f(u) sin(p pi u / length) du``.

    Returns moments for p = 1..count as an array of shape (count,).  Input
    conventions follow `fft_cosine_integrals`.  The linear function matching
    f at both ends (the odd extension of the remainder is continuous) is
    integrated exactly and only the rest is transformed.
    """
    import scipy.fft

    values, count = _midpoint_setup(values, count)
    m_samples = values.size
    step = length / m_samples
    val0, val1 = _edge_values(values)
    const = val0
    lin = (val1 - val0) / length
    u = (np.arange(m_samples) + 0.5) * step
    residual = values - (const + lin * u)
    core = (length / (2.0 * m_samples)) * scipy.fft.dst(residual, type=2)[:count]
    p = np.arange(1, count + 1)
    sign = np.where(p % 2 == 0, 1.0, -1.0)
    exact = const * length * (1.0 - sign) / (p * np.pi) - lin * length**2 * sign / (
        p * np.pi
    )
    return core + exact


# ---------------------------------------------------------------------------
# Analytic transverse (v) tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VTables:
    """Closed-form v-integrals over sine-mode pairs, indices n = 1..n_max.

    With S_n = sin(n pi v), C_n = cos(n pi v) on v in [0, 1], entry (n, n')
    of each table is (0-based storage, 1-based mode numbers):

        shear_0   = n' pi * int S_n C_n' dv
        shear_1   = n' pi * int v S_n C_n' dv
        stretch_0 = n n' pi^2 * int C_n C_n' dv
        stretch_1 = n n' pi^2 * int v C_n C_n' dv
        stretch_2 = n n' pi^2 * int v^2 C_n C_n' dv

    The shear tables contract against the off-diagonal metric (wall slope)
    terms, the stretch tables against the transverse stretching term.  All
    five are evaluated from the antiderivatives directly; the unit tests pin
    them against brute-force quadrature.
    """

    shear_0: Array
    shear_1: Array
    stretch_0: Array
    stretch_1: Array
    stretch_2: Array


def build_v_tables(n_max: int) -> VTables:
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    ni = n[:, None]
    nj = n[None, :]
    diag = np.eye(n_max, dtype=bool)
    parity = np.where(((ni + nj) % 2) == 0, 1.0, -1.0)  # (-1)^(n+n')
    with np.errstate(divide="ignore", invalid="ignore"):
        diff2 = ni * ni - nj * nj
        shear_0 = ni * nj * (1.0 - parity) / diff2
        shear_1 = ni * nj * parity / (-diff2)
        stretch_1_off = ni * nj * (parity - 1.0) * (ni * ni + nj * nj) / diff2**2
        stretch_2_off = 2.0 * ni * nj * parity * (ni * ni + nj * nj) / diff2**2
    shear_0[diag] = 0.0
    shear_1[diag] = -0.25
    stretch_0 = np.diag((n * np.pi) ** 2 / 2.0)
    stretch_1 = np.where(diag, (ni * np.pi) ** 2 / 4.0, stretch_1_off)
    stretch_2 = np.where(diag, (ni * np.pi) ** 2 / 6.0 + 0.25, stretch_2_off)
    return VTables(
        shear_0=shear_0,
        shear_1=shear_1,
        stretch_0=stretch_0,
        stretch_1=stretch_1,
        stretch_2=stretch_2,
    )


# ---------------------------------------------------------------------------
# Basis bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSpec:
    """Truncation of the cosine (axial) x sine (transverse) product basis.

    Axial modes run m = 0..m_max-1, transverse modes n = 1..n_max; the
    composite index is l = (n - 1) * m_max + m (transverse-major).
    """

    m_max: int
    n_max: int

    def __post_init__(self):
        if self.m_max < 1 or self.n_max < 1:
            raise ValueError(f"basis counts must be >= 1, got {self.m_max}x{self.n_max}")

    @property
    def size(self) -> int:
        return self.m_max * self.n_max


def axial_norms(m_max: int, length: float) -> Array:
    """Normalization sqrt(eps_m / length) of the cosine factors."""
    norms = np.full(m_max, math.sqrt(2.0 / length))
    norms[0] = math.sqrt(1.0 / length)
    return norms


def _factors(basis: BasisSpec, length: float, u: Array, v: Array) -> tuple[Array, Array]:
    """The basis factors c_m(u), shape (m_max, u.size), and s_n(v), (n_max, v.size)."""
    kappa = np.arange(basis.m_max) * math.pi / length
    cos_part = axial_norms(basis.m_max, length)[:, None] * np.cos(kappa[:, None] * u[None, :])
    n_modes = np.arange(1, basis.n_max + 1)
    sin_part = math.sqrt(2.0) * np.sin(np.pi * n_modes[:, None] * v[None, :])
    return cos_part, sin_part


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

def _axial_tables(profile: BoundaryProfile, m_max: int):
    """All axial (u) integral tables, each m_max x m_max.

    Returned dict keys:
        kinetic  : grad(c_m / sqrt(J)) . J . grad(c_m' / sqrt(J)) integrals
        shear_lo : [c_m' d_u - c_m ell] coupling against -lower'/J
        shear_w  : same against -J'/J
        stretch_0/1/2 : plain c_m c_m' moments of the g_vv pieces
    with ell = J'/(2J) the half log-derivative of the width.  The metric
    ingredients are sampled on the profile's midpoint grid.
    """
    length = profile.length
    width, width_slope, lower_slope = profile.width, profile.width_slope, profile.lower_slope
    half_log_slope = width_slope / (2.0 * width)
    shear_lower = -lower_slope / width
    shear_width = -width_slope / width

    n_cos = 2 * m_max - 1
    n_sin = max(2 * m_max - 2, 1)

    def cosine(fn_values):
        return fft_cosine_integrals(fn_values, length, n_cos)

    def sine(fn_values):
        full = np.zeros(n_sin + 1)
        full[1:] = fft_sine_integrals(fn_values, length, n_sin)
        return full

    cos_ell2 = cosine(half_log_slope**2)
    cos_ell_lo = cosine(half_log_slope * shear_lower)
    cos_ell_w = cosine(half_log_slope * shear_width)
    cos_s0 = cosine((1.0 + lower_slope**2) / width**2)
    cos_s1 = cosine(2.0 * lower_slope * width_slope / width**2)
    cos_s2 = cosine(width_slope**2 / width**2)
    sin_ell = sine(half_log_slope)
    sin_lo = sine(shear_lower)
    sin_w = sine(shear_width)

    norms = axial_norms(m_max, length)
    kappa = np.arange(m_max) * math.pi / length
    idx = np.arange(m_max)
    plus = idx[:, None] + idx[None, :]
    minus = idx[:, None] - idx[None, :]
    norm2 = norms[:, None] * norms[None, :]

    def cc(moments):
        # int c_m c_m' f du   via product-to-sum on the cosine moments of f
        return 0.5 * norm2 * (moments[plus] + moments[np.abs(minus)])

    def sc(moments):
        # int (d_u c_m) c_m' f du : row index differentiated
        comb = moments[plus] + np.sign(minus) * moments[np.abs(minus)]
        return -0.5 * norm2 * kappa[:, None] * comb

    sc_ell = sc(sin_ell)
    kinetic = np.diag(kappa**2) - (sc_ell + sc_ell.T) + cc(cos_ell2)
    tables = {
        "kinetic": kinetic,
        "shear_lo": sc(sin_lo) - cc(cos_ell_lo),
        "shear_w": sc(sin_w) - cc(cos_ell_w),
        "stretch_0": cc(cos_s0),
        "stretch_1": cc(cos_s1),
        "stretch_2": cc(cos_s2),
    }
    return tables


def _axial_modes(parity: int | None) -> slice:
    """Axial modes m kept by a parity block: all, or m = parity (mod 2)."""
    return slice(None) if parity is None else slice(parity, None, 2)


def _parity_leak(tables: dict) -> float:
    """Largest axial-table entry coupling even and odd m, over the largest entry.

    It is rounding-level for walls mirror-symmetric about x = length / 2,
    and it bounds the entries of H that a parity split drops.
    """
    tables = np.abs(np.stack(list(tables.values())))
    idx = np.arange(tables.shape[1])
    mixed = (idx[:, None] + idx[None, :]) % 2 == 1
    return float(tables[:, mixed].max(initial=0.0) / tables.max())


def assemble_hamiltonian(
    profile: BoundaryProfile, basis: BasisSpec, parity: int | None = None
) -> Array:
    """Dense symmetric matrix of the weak-form Laplacian in the product basis.

    The grid must satisfy the sampling contract: profile.samples a power of
    two, at least 256, and at least twice m_max (the product-to-sum step
    reads cosine moments up to 2 m_max - 2).

    parity None gives the full matrix in the flat (n, m) order.  parity 0
    or 1 gives the block on the axial modes m = parity (mod 2) only, in the
    same transverse-major order over the kept modes; it is exactly the
    matching rows and columns of the full matrix.
    """
    m_samples = profile.samples
    if m_samples < 256 or (m_samples & (m_samples - 1)) != 0:
        raise ValueError(f"profile grid must be a power of two >= 256, got {m_samples}")
    if basis.m_max > m_samples // 2:
        raise ValueError(
            f"m_max {basis.m_max} too large for grid {m_samples}; need m_max <= samples/2"
        )
    if parity not in (None, 0, 1):
        raise ValueError(f"parity must be None, 0 or 1, got {parity!r}")

    ax = _axial_tables(profile, basis.m_max)
    vt = build_v_tables(basis.n_max)
    # Every term is a Kronecker product V[n, n'] A[m, m'].  The shear terms
    # come in transposed pairs, V x A + V^T x A^T, which are added as
    # (V + V^T) x (A + A^T) / 2 + (V - V^T) x (A - A^T) / 2: each stacked
    # term is then exactly symmetric, and so is their sum.  The factor 2
    # carries the sqrt(2)*sqrt(2) normalization of the sine factors into the
    # unnormalized v-tables and cancels the halves above.
    s0, s1 = vt.shear_0, vt.shear_1
    v_stack = np.stack(
        [np.eye(basis.n_max), s0 + s0.T, s0 - s0.T, s1 + s1.T, s1 - s1.T]
        + [2.0 * vt.stretch_0, 2.0 * vt.stretch_1, 2.0 * vt.stretch_2]
    )
    lo, w = ax["shear_lo"], ax["shear_w"]
    modes = _axial_modes(parity)
    a_stack = np.stack(
        [ax["kinetic"], lo + lo.T, lo - lo.T, w + w.T, w - w.T]
        + [ax[f"stretch_{i}"] for i in range(3)]
    )[:, modes, modes]
    n_max, m_kept = basis.n_max, a_stack.shape[1]
    ham = np.empty((n_max, m_kept, n_max, m_kept))
    for n in range(n_max):
        np.einsum("tb,tcd->cbd", v_stack[:, n], a_stack, out=ham[n])
    return ham.reshape(n_max * m_kept, n_max * m_kept)


# ---------------------------------------------------------------------------
# Eigensolution
# ---------------------------------------------------------------------------

# Walls whose parity leak is at most this are solved as two parity blocks.
# Mirror-symmetric walls sit at rounding level (1e-17 .. 1e-19); a broken
# mirror (wiggle, disorder) measures 1e-3 and above.
_PARITY_LEAK_TOL = 1e-13

# One LAPACK driver for every block.  On a 2-core Xeon with OpenBLAS at 2
# threads, evd solves a 2250 block in 1.4-2.2 s and a 4500 matrix in 9.4 s,
# against 1.7-1.9 s and 11.9 s for evr, which needs 40-160 MB less memory.
_EIGH_DRIVER = "evd"


@dataclass(frozen=True)
class CavitySolution:
    """Retained closed-cavity eigenpairs.

    coeffs rows are eigenvectors in the flat (n, m) basis ordering; rows are
    Euclidean-orthonormal, which is J-weighted orthonormality of the
    wavefunctions.  energies are sorted ascending and all positive.
    interface, shape (2, k_keep, n_max), holds each state's transverse
    coefficients at u = 0 and at u = length, computed once from coeffs by
    `solve_cavity`.  A loaded solution maps coeffs read-only from its cache
    entry, so only the rows that `grid_values` and `eval_wavefunction` read
    are paged in.  Other modules read the states through `interface_values`
    and `grid_values`, not through coeffs.
    """

    profile: BoundaryProfile
    basis: BasisSpec
    energies: Array
    coeffs: Array
    interface: Array

    @property
    def k_keep(self) -> int:
        return self.energies.size

    def interface_values(self) -> tuple[Array, Array]:
        """(left, right), each (k_keep, n_max): sum_m B_jnm c_m(u) at u = 0 and
        at u = length, where c_m(length) = (-1)^m c_m(0)."""
        return self.interface[0], self.interface[1]

    def grid_values(self, states, u: Array, v: Array) -> Array:
        """Expansions of `states` on the tensor grid u x v, without 1/sqrt(J):
        shape (len(states), u.size * v.size), u-major."""
        basis = self.basis
        cos_part, sin_part = _factors(basis, self.profile.length, u, v)
        coeffs = self.coeffs[list(states)].reshape(len(states), basis.n_max, basis.m_max)
        vals = np.einsum("snm,ma,nb->sab", coeffs, cos_part, sin_part)
        return vals.reshape(len(states), u.size * v.size)


def _interface_table(coeffs: Array, basis: BasisSpec, length: float) -> Array:
    """The (2, k, n_max) table of `CavitySolution.interface`: each row of
    coeffs summed over m against c_m(0), then against c_m(length)."""
    norms = axial_norms(basis.m_max, length)
    signs = np.where(np.arange(basis.m_max) % 2 == 0, 1.0, -1.0)
    coeffs = coeffs.reshape(-1, basis.n_max, basis.m_max)
    return np.stack([coeffs @ norms, coeffs @ (norms * signs)])


def solve_cavity(profile: BoundaryProfile, basis: BasisSpec, k_keep: int) -> CavitySolution:
    """Assemble, diagonalize, and retain the lowest k_keep eigenpairs.

    When the axial tables show no even/odd coupling in m (mirror-symmetric
    walls), the two parity blocks are assembled and solved separately and
    their spectra merged; otherwise the full matrix is solved.
    """
    from scipy import linalg

    if k_keep < 1 or k_keep > basis.size:
        raise ValueError(f"k_keep must be in 1..{basis.size}, got {k_keep}")
    leak = _parity_leak(_axial_tables(profile, basis.m_max))
    split = leak <= _PARITY_LEAK_TOL
    parities = [p for p in (0, 1) if p < basis.m_max] if split else [None]
    assemble_s = eigh_s = 0.0
    blocks = []
    for parity in parities:
        start = time.perf_counter()
        ham = assemble_hamiltonian(profile, basis, parity)
        assemble_s += time.perf_counter() - start
        start = time.perf_counter()
        # ham is exactly symmetric, so its transpose is the same matrix in
        # the Fortran order LAPACK works in, and no copy is made.
        blocks.append(
            linalg.eigh(ham.T, overwrite_a=True, check_finite=False, driver=_EIGH_DRIVER)
        )
        eigh_s += time.perf_counter() - start
    logger.info(
        "%s %s, parity leak %.1e, driver %s: assembly %.2f s, eigensolve %.2f s",
        "parity split, blocks" if split else "generic path, one block",
        " + ".join(str(e.size) for e, _ in blocks), leak, _EIGH_DRIVER, assemble_s, eigh_s,
    )
    # Merge: stable order over the concatenated block spectra, then scatter
    # each block's vectors into its own axial modes of the flat layout.
    all_energies = np.concatenate([e for e, _ in blocks])
    order = np.argsort(all_energies, kind="stable")[:k_keep]
    energies = all_energies[order]
    if not energies[0] > 0.0:  # NaN fails too
        raise ArithmeticError(
            f"lowest eigenvalue {energies[0]:.3e} not positive; assembly is inconsistent"
        )
    coeffs = np.zeros((k_keep, basis.size))
    flat = np.arange(basis.size).reshape(basis.n_max, basis.m_max)
    offset = 0
    for parity, (block_energies, vectors) in zip(parities, blocks):
        rows = np.flatnonzero((order >= offset) & (order < offset + block_energies.size))
        cols = flat[:, _axial_modes(parity)].ravel()
        coeffs[np.ix_(rows, cols)] = vectors[:, order[rows] - offset].T
        offset += block_energies.size
    return CavitySolution(
        profile=profile, basis=basis, energies=energies, coeffs=coeffs,
        interface=_interface_table(coeffs, basis, profile.length),
    )


def eval_wavefunction(
    solution: CavitySolution, index: int, x: Array, y: Array
) -> Array:
    """Eigenfunction `index` (0-based) at physical points; zero outside."""
    if not (0 <= index < solution.k_keep):
        raise IndexError(f"state {index} outside retained range 0..{solution.k_keep - 1}")
    profile = solution.profile
    basis = solution.basis
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    )
    shape = x.shape
    x = np.atleast_1d(x).ravel()
    y = np.atleast_1d(y).ravel()

    in_x = (x >= 0.0) & (x <= profile.length)
    xc = np.clip(x, 0.0, profile.length)
    width = np.asarray(profile.width_at(xc), dtype=float)
    v = (y - np.asarray(profile.lower_fn(xc), dtype=float)) / width
    inside = in_x & (v >= 0.0) & (v <= 1.0)

    cos_part, sin_part = _factors(basis, profile.length, xc, v)
    coeff = solution.coeffs[index].reshape(basis.n_max, basis.m_max)
    vals = np.einsum("np,np->p", sin_part, coeff @ cos_part)
    vals = vals / np.sqrt(width)
    vals[~inside] = 0.0
    return vals.reshape(shape)


# ---------------------------------------------------------------------------
# Solution cache
# ---------------------------------------------------------------------------

# Version of the entry layout written below and of the numbers a solve puts in
# it. Bump it whenever either changes: the files and keys, or the assembly or
# eigensolve arithmetic. load_solution reads no other version, so an old entry
# is solved again. A frozen small solve in the tests is keyed by this value.
CACHE_FORMAT = 4


def save_solution(solution: CavitySolution, directory) -> None:
    """Persist a solution as ``energies.npy``, ``interface.npy``,
    ``vectors.npy`` and ``meta.json``.

    energies.npy holds the k_keep energies, interface.npy the (2, k_keep,
    n_max) interface table and vectors.npy the k_keep x basis-size
    eigenvectors (`CavitySolution.coeffs`).  meta.json records the format
    version, the geometry hash, the basis counts and the cavity length.  The
    files are written to a temporary sibling directory that is then renamed
    into place, so a crash never leaves a partial entry at `directory`,
    which must be absent or empty.
    """
    meta = {
        "format": CACHE_FORMAT,
        "profile_hash": solution.profile.content_hash(),
        "m_max": solution.basis.m_max,
        "n_max": solution.basis.n_max,
        "length": solution.profile.length,
    }
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    try:
        np.save(staging / "energies.npy", solution.energies)
        np.save(staging / "interface.npy", solution.interface)
        np.save(staging / "vectors.npy", solution.coeffs)
        with open(staging / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def load_solution(directory, profile: BoundaryProfile) -> CavitySolution:
    """Rebuild a solution from `save_solution` output for the same geometry.

    energies.npy and interface.npy are read into memory; vectors.npy is
    mapped read-only (``mmap_mode="r"``), so a caller that needs only the
    interface table never reads the eigenvectors.  An entry in another
    format or of another geometry raises ValueError, as does one with a key
    missing from meta.json or arrays of the wrong shape.
    """
    directory = Path(directory)
    with open(directory / "meta.json") as fh:
        meta = json.load(fh)
    if meta.get("format") != CACHE_FORMAT:
        raise ValueError(f"cache format {meta.get('format')!r}, this code reads {CACHE_FORMAT}")
    missing = sorted({"profile_hash", "length", "m_max", "n_max"} - set(meta))
    if missing:
        raise ValueError(f"meta.json lacks {', '.join(missing)}")
    if meta["profile_hash"] != profile.content_hash():
        raise ValueError("cached solution belongs to a different geometry")
    length = meta["length"]
    if abs(length - profile.length) > 1e-12 * max(1.0, profile.length):
        raise ValueError(
            f"cached length {length} does not match profile length {profile.length}"
        )
    basis = BasisSpec(m_max=meta["m_max"], n_max=meta["n_max"])
    energies = np.load(directory / "energies.npy")
    interface = np.load(directory / "interface.npy")
    coeffs = np.load(directory / "vectors.npy", mmap_mode="r")
    k_keep = energies.size
    if (
        energies.ndim != 1
        or interface.shape != (2, k_keep, basis.n_max)
        or coeffs.shape != (k_keep, basis.size)
    ):
        raise ValueError(
            f"energies.npy {energies.shape}, interface.npy {interface.shape} and "
            f"vectors.npy {coeffs.shape} do not fit a {basis.m_max}x{basis.n_max} basis"
        )
    return CavitySolution(
        profile=profile, basis=basis, energies=energies, coeffs=coeffs, interface=interface
    )
