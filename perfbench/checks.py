"""Output checks of the benchmark workloads, with their tolerances.

Each check returns ``{"name", "pass", "detail"}``. Tolerances must pass the
rounding differences between BLAS thread counts and still catch a sign
error; the figures quoted below were measured on the reference
configuration (90x50 basis, k_keep 3000) solved at 1 and at 2 OpenBLAS
threads.

Stdlib only: the runner process checks the CLI's files without numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The Cayley S-matrix is unitary to ~1e-13 here (worst 1.3e-13 over the
# reference sweep); 1e-10 leaves three decades for other geometries.
UNITARITY_TOL = 1e-10
# T = trace(t t^dagger) lies in [0, N_open]; the slack covers summation
# rounding only.
T_BOUND_TOL = 1e-9
# max |dT| between 1 and 2 BLAS threads on the reference grid is 3.3e-11.
# A changed physics result (sign error in the spectrum, truncation change)
# moves T by 1e-3 or more.
T_REF_TOL = 1e-8
# Relative eigenvalue shift between 1 and 2 BLAS threads is 7e-13.
ENERGY_REF_RTOL = 1e-10
# Pair energies: relative shift between thread counts is ~1e-13.
PAIR_REF_RTOL = 1e-9
# The program's own order-doubling tolerance (InteractionSpec.check_tol):
# energies at two passing orders agree to it.
PAIR_ORDER_TOL = 1e-6
# validate-1d gate of the CLI.
ONED_GATE = 1e-3
# Power in the positive-length half of a length spectrum over the negative
# (aliased) half: 40 to 200 on disordered cavities, because transmitted
# paths have positive length. A conjugated S (sign error in the phase
# convention) mirrors L -> -L and turns the ratio below 1/40.
CAUSAL_MIN_RATIO = 5.0
# Written values carry 12 significant digits.
PRINTED_RTOL = 1e-11
# At least this share of the reference points must be computed and compared.
MIN_REFERENCE_OVERLAP = 0.99


def result(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Parsing of the CLI's files
# ---------------------------------------------------------------------------

def read_table(path):
    """Comment lines and named columns of one of the program's CSV files."""
    comments, rows = [], []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(x) for x in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no column header")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return comments, columns


def sweep_points(path):
    """Computed rows of sweep.csv as (k, T, N_open, defect) lists.

    Rows with a NaN defect are skipped points whose T was filled in by
    interpolation; they are not computed values and are left out.
    """
    _, cols = read_table(path)
    k, t, n, d = [], [], [], []
    for k_val, t_val, n_val, d_val in zip(
        cols["k_over_piw"], cols["T"], cols["N_open"], cols["unitarity_defect"]
    ):
        if math.isnan(d_val):
            continue
        k.append(k_val)
        t.append(t_val)
        n.append(n_val)
        d.append(d_val)
    return k, t, n, d


def spectrum_peaks(path):
    """Peak list and L-grid step of a power_*.csv written by `spectrum`."""
    comments, cols = read_table(path)
    peaks = []
    for line in comments:
        if line.startswith("peaks at L ="):
            text = line.split("=", 1)[1].strip()
            peaks = [float(x) for x in text.split(",")] if text else []
    lengths = cols["L"]
    step = lengths[1] - lengths[0] if len(lengths) > 1 else 0.0
    return peaks, step


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_sweep(k, transmission, n_open, defect, label="sweep"):
    """Unitarity and 0 <= T <= N_open at every computed point."""
    if not len(k):
        return [result(f"{label}: computed points", False, "no computed point")]
    worst_defect = max(defect)
    bad_t = [
        (kv, tv, nv)
        for kv, tv, nv in zip(k, transmission, n_open)
        if not (-T_BOUND_TOL <= tv <= nv + T_BOUND_TOL)
    ]
    out = [
        result(
            f"{label}: unitarity",
            worst_defect <= UNITARITY_TOL,
            f"worst defect {worst_defect:.3e} (tol {UNITARITY_TOL:.0e}) over {len(k)} points",
        ),
        result(
            f"{label}: 0 <= T <= N_open",
            not bad_t,
            f"{len(bad_t)} points out of bounds" + (f", first {bad_t[0]}" if bad_t else ""),
        ),
    ]
    return out


def check_transmission_reference(k, transmission, ref, label="sweep"):
    """T at the computed grid points against the values recorded at the seed commit.

    `ref` holds the grid as [k_min, k_max, points] and T at the grid indices
    `ref["indices"]` (at every index when absent); None marks a point the
    program skipped.
    """
    k_min, k_max, points = ref["grid"]
    step = (k_max - k_min) / (points - 1)
    indices = ref.get("indices", range(points))
    ref_t = {i: t for i, t in zip(indices, ref["T"]) if t is not None}
    compared, worst = 0, 0.0
    for kv, tv in zip(k, transmission):
        index = round((kv - k_min) / step)
        if index not in ref_t or abs(k_min + index * step - kv) > 1e-9:
            continue
        compared += 1
        worst = max(worst, abs(tv - ref_t[index]))
    expected = len(ref_t)
    enough = compared >= MIN_REFERENCE_OVERLAP * expected
    return [
        result(
            f"{label}: T vs reference",
            enough and worst <= T_REF_TOL,
            f"max |dT| {worst:.3e} (tol {T_REF_TOL:.0e}) at {compared} of {expected} reference points",
        )
    ]


def check_peaks(peaks, ref_peaks, step, label="spectrum"):
    """Detected peaks sit in the same bins of the padded L grid.

    Peaks are grid points of the zero-padded transform; rounding can move
    one only by tipping a near-tie between neighbouring bins, so each peak
    must stay within half a bin of its recorded position.
    """
    tol = 0.5 * step + 1e-9
    same = len(peaks) == len(ref_peaks) and all(
        abs(a - b) <= tol for a, b in zip(sorted(peaks), sorted(ref_peaks))
    )
    return [
        result(
            f"{label}: peak positions",
            same,
            f"peaks {sorted(peaks)} vs recorded {sorted(ref_peaks)} (tol {tol:.4f})",
        )
    ]


def check_causality(lengths, power, label="spectrum"):
    """Most length-spectrum power sits at positive path lengths.

    The transform grid covers [0, 2*pi/dk); its upper half holds the
    negative lengths.
    """
    half = len(lengths) // 2
    pos = sum(power[1:half])
    neg = sum(power[half + 1:])
    ratio = pos / neg if neg > 0 else math.inf
    return [
        result(
            f"{label}: causality",
            ratio >= CAUSAL_MIN_RATIO,
            f"positive/negative length power {ratio:.3g} (min {CAUSAL_MIN_RATIO:g})",
        )
    ]


def check_pair_energies(energies, free_energies, label="pair"):
    """Pair energies ascend and lie above the non-interacting ones.

    The Gaussian kernel is positive definite and the quadrature weights are
    positive, so the interaction block is positive semidefinite and raises
    every sorted eigenvalue (Weyl). A sign error in V lowers them.
    """
    ascending = all(b >= a for a, b in zip(energies, energies[1:]))
    free = sorted(free_energies)
    scale = max(1.0, max(abs(e) for e in free))
    below = [
        (i, e, f) for i, (e, f) in enumerate(zip(sorted(energies), free)) if e < f - 1e-9 * scale
    ]
    return [
        result(f"{label}: ascending", ascending, f"{len(energies)} pair energies"),
        result(
            f"{label}: above non-interacting levels",
            len(energies) == len(free) and not below,
            f"{len(below)} levels below their non-interacting counterpart",
        ),
    ]


def check_pair_orders(coarse, fine, label="pair"):
    """Energies at two passing quadrature orders agree to the order-check tolerance."""
    scale = max([1.0] + [abs(e) for e in fine])
    worst = max((abs(a - b) for a, b in zip(coarse, fine)), default=math.inf)
    return [
        result(
            f"{label}: order agreement",
            len(coarse) == len(fine) and worst <= PAIR_ORDER_TOL * scale,
            f"max |dE| {worst:.3e} (tol {PAIR_ORDER_TOL * scale:.3e})",
        )
    ]


def check_relative(name, values, ref_values, rtol):
    """Values equal the reference ones to `rtol`, relative to max(1, |ref|)."""
    if len(values) != len(ref_values):
        return [result(name, False, f"{len(values)} values, reference has {len(ref_values)}")]
    worst = max((abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, ref_values)), default=0.0)
    return [result(name, worst <= rtol, f"max relative difference {worst:.3e} (tol {rtol:.0e})")]


def check_oned(max_abs_dt, label="1d barrier"):
    return [
        result(
            f"{label}: max |dT| vs exact",
            max_abs_dt <= ONED_GATE,
            f"{max_abs_dt:.3e} (gate {ONED_GATE:.0e})",
        )
    ]
