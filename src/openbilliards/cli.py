"""Command-line front end: config parsing, caching, CSV/JSON emission.

Subcommands: solve-cavity, sweep, spectrum, validate, two-body.
Configuration is YAML with nested sections; unknown keys are errors. Every
output file starts with comment lines carrying the config hash, the package
version, and the unit conventions, so runs are attributable and identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import logging
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .cavity import (
    BasisSpec,
    fft_cosine_integrals,
    load_solution,
    save_solution,
    solve_cavity,
)
from .geometry import (
    apply_surface_disorder,
    apply_wiggle,
    make_rectangle,
    make_reference_cavity,
    profile_from_csv,
)
from .leads import ReactionMatrix, channel_space, overlaps, r_matrix
from .oned import BarrierProblem, exact_transmission, lead_space
from .scattering import (
    cayley_smatrix,
    check_sweep_grid,
    conductance,
    s_from_r,
    sweep_conductance,
    write_sweep_csv,
    write_t_store,
)
from .spectra import (
    SpectrumSeries,
    length_spectrum,
    peak_positions,
    uniform_series,
    window_points,
    write_amplitude_csv,
    write_power_csv,
)
from .tables import write_table
from .twobody import (
    InteractionSpec,
    contact_regularized,
    gaussian,
    interaction_block,
    write_pair_energies_csv,
)

logger = logging.getLogger("openbilliards.cli")

CACHE_ENV = "OPENBILLIARDS_CACHE"

DEFAULT_CONFIG = {
    "geometry": {
        "kind": "reference",
        "samples": 2048,
        "height": 1.0,
        "length": 3.0,
        "path": None,
        "wiggle": None,
        "disorder": None,
    },
    "basis": {"m_max": 90, "n_max": 50, "k_keep": 3000},
    "sweep": {"k_min": 1.0, "k_max": 19.0, "points": 2000},
    "spectra": {
        "windows": [{"k_min": 6.0, "k_max": 9.0, "n_modes": 6}],
        "pad_factor": 8,
    },
    "two_body": {
        "states": 4,
        "potential": {"kind": "gaussian", "strength": 1.0, "width": 0.5},
        "quad_order": 16,
    },
    "output_dir": "out",
}

# What a value must look like where DEFAULT_CONFIG holds null (an optional
# leaf or subtree) or a list (one entry). A mapping given here must hold
# every one of its keys.
_SHAPES = {
    "geometry.path": str,
    "geometry.wiggle": {"amplitude": float, "cycles": int},
    "geometry.disorder": {"roughness": float, "pieces": int, "seed": int},
    "spectra.windows": {"k_min": float, "k_max": float, "n_modes": int},
}


class ConfigError(ValueError):
    pass


def _check(value, schema, path):
    """Walk `value` against `schema`: a defaults node, a _SHAPES node or a type."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"section '{path or '<root>'}' must be a mapping")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in schema:
                raise ConfigError(f"unknown config key '{prefix}{key}'")
        for key, sub in schema.items():
            if key not in value:
                raise ConfigError(f"section '{path}' is missing key '{key}'")
            _check(value[key], sub, prefix + key)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list")
        for entry in value:
            _check(entry, _SHAPES[path], path)
    elif schema is None:
        if value is not None:
            _check(value, _SHAPES[path], path)
    else:
        kind = schema if isinstance(schema, type) else type(schema)
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ConfigError(f"'{path}' must be {kind.__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"'{path}' must be finite, got {value!r}")


def _apply(base, user):
    """Overlay user values onto a (deep-copied) defaults tree in place."""
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _apply(base[key], val)
        else:
            base[key] = copy.deepcopy(val)


def load_config(path=None, overrides=()):
    """Defaults, optionally updated from a YAML file and key=value overrides."""
    user = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as err:
            raise ConfigError(f"cannot read config file '{path}': {err}") from err
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError("section '<root>' must be a mapping")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    _apply(cfg, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key.path=value")
        dotted, _, raw = item.partition("=")
        *parents, leaf = dotted.strip().split(".")
        target = cfg
        for key in parents:
            if not isinstance(target, dict) or key not in target:
                raise ConfigError(f"unknown config key '{dotted}'")
            if target[key] is None:  # an optional subtree being switched on
                target[key] = {}
            target = target[key]
        if not isinstance(target, dict):
            raise ConfigError(f"unknown config key '{dotted}'")
        try:
            target[leaf] = yaml.safe_load(raw)
        except yaml.YAMLError as err:
            raise ConfigError(f"override '{item}' is not valid YAML: {err}") from err
    _check(cfg, DEFAULT_CONFIG, "")
    return cfg


def config_hash(cfg) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def header_lines(cfg):
    return (
        f"config {config_hash(cfg)}",
        f"openbilliards {__version__}",
        "units: k in pi/w; hbar^2/2m = 1",
    )


def build_profile(cfg):
    g = cfg["geometry"]
    kind = g["kind"]
    if kind == "rectangle":
        profile = make_rectangle(g["height"], g["length"], samples=g["samples"])
    elif kind == "reference":
        profile = make_reference_cavity(samples=g["samples"])
    elif kind == "csv":
        if not g["path"]:
            raise ConfigError("geometry.kind=csv requires geometry.path")
        try:
            profile = profile_from_csv(g["path"], samples=g["samples"])
        except OSError as err:
            raise ConfigError(f"cannot read geometry.path: {err}") from err
    else:
        raise ConfigError(f"unknown geometry.kind '{kind}'")
    if g["wiggle"]:
        w = g["wiggle"]
        profile = apply_wiggle(profile, amplitude=w["amplitude"], cycles=w["cycles"])
    if g["disorder"]:
        d = g["disorder"]
        profile = apply_surface_disorder(profile, d["roughness"], d["pieces"], d["seed"])
    return profile


def _cache_dir(cfg):
    env = os.environ.get(CACHE_ENV)
    base = Path(env) if env else Path(cfg["output_dir"]) / "cache"
    return base


def get_solution(cfg):
    """Solve the configured cavity, going through the on-disk cache."""
    profile = build_profile(cfg)
    b = cfg["basis"]
    basis = BasisSpec(m_max=b["m_max"], n_max=b["n_max"])
    k_keep = b["k_keep"]
    key_src = f"{profile.content_hash()}:{basis.m_max}:{basis.n_max}:{k_keep}"
    key = hashlib.sha256(key_src.encode()).hexdigest()[:20]
    slot = _cache_dir(cfg) / key
    if (slot / "meta.json").exists():
        try:
            solution = load_solution(slot, profile)
            if solution.k_keep == k_keep:
                logger.info("cache hit %s", key)
                return solution
        except (ValueError, OSError) as err:
            logger.warning("cache entry %s unusable (%s); recomputing", key, err)
    logger.info("cache miss %s; solving", key)
    solution = solve_cavity(profile, basis, k_keep=k_keep)
    shutil.rmtree(slot, ignore_errors=True)  # an unusable or partial entry
    save_solution(solution, slot)
    return solution


def _outdir(cfg):
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve_cavity(cfg) -> int:
    solution = get_solution(cfg)
    out = _outdir(cfg) / "energies.csv"
    write_table(
        out, header_lines(cfg), ("index", "energy"), ("d", ".12g"),
        np.arange(solution.k_keep), solution.energies,
    )
    print(f"wrote {out} ({solution.k_keep} levels)")
    return 0


def _sweep_grid(cfg):
    s = cfg["sweep"]
    return np.linspace(s["k_min"], s["k_max"], s["points"])


def cmd_sweep(cfg) -> int:
    solution = get_solution(cfg)
    result = sweep_conductance(solution, _sweep_grid(cfg))
    out = _outdir(cfg)
    write_sweep_csv(result, out / "sweep.csv", header_lines(cfg))
    write_t_store(result, out / "tstore.bin")
    worst = float(np.max(result.unitarity_defect))
    print(
        f"wrote {out / 'sweep.csv'} ({result.k.size} points, "
        f"worst unitarity defect {worst:.3e})"
    )
    return 0


def cmd_spectrum(cfg) -> int:
    """Spectra of the sweep grid's points inside the windows, and only those.

    A sweep point does not depend on the rest of the grid, so the points
    swept here equal the full sweep's at the same k, bit for bit.
    """
    solution = get_solution(cfg)
    grid = check_sweep_grid(solution, _sweep_grid(cfg))  # rejects what `sweep` rejects
    windows = cfg["spectra"]["windows"]
    if not windows:
        raise ConfigError("spectra.windows is empty; spectrum has nothing to compute")
    picked = [window_points(grid, (w["k_min"], w["k_max"])) for w in windows]
    result = sweep_conductance(solution, grid[np.unique(np.concatenate(picked))])
    pad = cfg["spectra"]["pad_factor"]
    tables = []  # every window is computed, and may be rejected, before any file is written
    for window in windows:
        lo, hi, n_modes = window["k_min"], window["k_max"], window["n_modes"]
        series = uniform_series(result, (lo, hi), n_modes)
        lengths, amps = length_spectrum(series, pad_factor=pad)
        power = np.sum(np.abs(amps) ** 2, axis=(1, 2))
        keep = lengths <= 40.0
        peaks = peak_positions(
            lengths[keep], power[keep], band=(2.0, 20.0), min_prominence=0.01
        )
        tables.append((window, lengths[keep], power[keep], amps[keep, 0, 0], peaks))
    out = _outdir(cfg)
    for window, lengths, power, t11, peaks in tables:
        lo, hi, n_modes = window["k_min"], window["k_max"], window["n_modes"]
        tag = f"{lo:g}-{hi:g}"
        peak_note = "peaks at L = " + ", ".join(f"{p:.3f}" for p in sorted(peaks[:8]))
        write_power_csv(
            out / f"power_{tag}.csv",
            lengths,
            power,
            header_lines(cfg) + (f"window [{lo:g}, {hi:g}] pi/w, {n_modes} modes", peak_note),
        )
        write_amplitude_csv(
            out / f"t11_{tag}.csv",
            lengths,
            t11,
            header_lines(cfg) + (f"window [{lo:g}, {hi:g}] pi/w, mode (1,1)",),
        )
        print(f"wrote power_{tag}.csv and t11_{tag}.csv; {peak_note}")
    return 0


def cmd_two_body(cfg) -> int:
    tb = cfg["two_body"]
    pot_cfg = tb["potential"]
    kind = pot_cfg["kind"]
    if kind == "gaussian":
        potential = gaussian(float(pot_cfg["strength"]), float(pot_cfg["width"]))
    elif kind == "contact":
        potential = contact_regularized(
            float(pot_cfg["strength"]), float(pot_cfg["width"])
        )
    else:
        raise ConfigError(f"unknown two_body.potential.kind '{kind}'")
    if not 1 <= tb["states"] <= cfg["basis"]["k_keep"]:
        raise ConfigError(
            f"two_body.states must be between 1 and basis.k_keep, got {tb['states']}"
        )
    spec = InteractionSpec(potential=potential, quad_order=tb["quad_order"])
    solution = get_solution(cfg)
    states = list(range(tb["states"]))
    try:
        energies = interaction_block(solution, states, spec)
    except ArithmeticError as err:  # the quadrature order check failed
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = _outdir(cfg) / "pair_energies.csv"
    write_pair_energies_csv(
        out,
        energies,
        header_lines(cfg) + (f"{kind} potential, {len(states)} single-particle states",),
    )
    print(f"wrote {out} ({energies.size} pair levels)")
    return 0


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------

def _check_fft_quadrature():
    from scipy.integrate import simpson

    length = 2.0
    m_grid = 512

    def f(x):
        return np.exp(-((x - 0.7) ** 2) / 0.09) * (1.0 + 0.3 * x)

    mid = (np.arange(m_grid) + 0.5) * length / m_grid
    ours = fft_cosine_integrals(f(mid), length, count=12)
    xs = np.linspace(0.0, length, 8193)
    kappa = np.arange(12) * math.pi / length
    ref = np.array([simpson(f(xs) * np.cos(k * xs), x=xs) for k in kappa])
    return float(np.max(np.abs(ours - ref)))


def _check_rectangle_eigenvalues():
    profile = make_rectangle(height=1.0, length=2.0, samples=256)
    solution = solve_cavity(profile, BasisSpec(m_max=12, n_max=12), k_keep=30)
    m = np.arange(12)
    n = np.arange(1, 13)
    exact = np.sort(
        ((m[None, :] * math.pi / 2.0) ** 2 + (n[:, None] * math.pi) ** 2).ravel()
    )[:30]
    return float(np.max(np.abs(solution.energies - exact) / exact))


def _check_free_guide():
    profile = make_rectangle(height=1.0, length=0.25, samples=256)
    basis = BasisSpec(m_max=17, n_max=69)
    solution = solve_cavity(profile, basis, k_keep=basis.size)
    k_piw = 2.5
    space = channel_space((k_piw * math.pi) ** 2, 1.0)
    table = overlaps(solution)
    rmat = r_matrix(table, space)
    smat = s_from_r(rmat, space)
    return abs(conductance(smat) - 2.0)


def _check_barrier(inject_fault=False):
    """Largest |dT| on acceptance criterion 1's grid: V0 = 1, 200 energies in [0.1, 20]."""
    v0 = 1.0
    table = BarrierProblem(height=v0).table()
    errors = []
    for energy in np.linspace(0.1, 20.0, 200):
        space = lead_space(energy)
        rmat = r_matrix(table, space)
        if inject_fault:
            # Negative control: sign error on the m = 0 series term.
            rmat = dataclasses.replace(rmat, regular=rmat.regular - 2.0 / (energy - v0))
        t_ours = conductance(s_from_r(rmat, space))
        errors.append(abs(t_ours - exact_transmission(energy, v0)))
    return np.max(errors)  # a NaN propagates and fails the check


def _check_cayley_unitarity():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(6, 6))
    rmat = ReactionMatrix(regular=0.5 * (raw + raw.T), residue=np.zeros(6), gap=1.0)
    smat = cayley_smatrix(rmat, np.linspace(1.0, 2.5, 6))
    return float(np.max(np.abs(smat @ smat.conj().T - np.eye(6))))


def _check_shift_theorem():
    """|peak - L0| of the length spectrum of e^{ikL0} over k in [5, 9]."""
    length_true = 7.5
    k = np.linspace(5.0, 9.0, 321)
    series = SpectrumSeries(k=k, samples=np.exp(1j * k * length_true)[:, None, None])
    lengths, amps = length_spectrum(series, pad_factor=8)
    return abs(float(lengths[np.argmax(np.abs(amps[:, 0, 0]))]) - length_true)


def _check_parseval():
    rng = np.random.default_rng(11)
    k = np.linspace(5.0, 8.0, 128)
    dk = k[1] - k[0]
    t = rng.normal(size=(128, 1, 1)) + 1j * rng.normal(size=(128, 1, 1))
    series = SpectrumSeries(k=k, samples=t)
    lengths, amps = length_spectrum(series, pad_factor=4)
    lhs = float(np.sum(np.abs(amps) ** 2) * (lengths[1] - lengths[0]))
    rhs = float(2.0 * math.pi * np.sum(np.abs(t) ** 2) * dk)
    return abs(lhs - rhs) / rhs


def run_validation(inject_fault=False):
    checks = [
        ("fft-quadrature-vs-simpson", 1e-9, _check_fft_quadrature),
        ("rectangle-eigenvalues", 1e-10, _check_rectangle_eigenvalues),
        ("free-guide-conductance", 1e-3, _check_free_guide),
        ("barrier-rmatrix-vs-exact", 1e-3, lambda: _check_barrier(inject_fault)),
        ("cayley-unitarity", 1e-12, _check_cayley_unitarity),
        ("parseval", 1e-9, _check_parseval),
        # resolution / 4 of the 5-9 window
        ("shift-theorem", math.pi / 8.0, _check_shift_theorem),
    ]
    report = []
    for name, tol, fn in checks:
        measured = float(fn())
        report.append(
            {
                "name": name,
                "tolerance": tol,
                "measured": measured,
                "pass": bool(measured <= tol),
            }
        )
    return report


def cmd_validate(cfg, inject_fault=False) -> int:
    report = run_validation(inject_fault=inject_fault)
    payload = {
        "version": __version__,
        "config": config_hash(cfg),
        "checks": report,
        "all_pass": all(c["pass"] for c in report),
    }
    out = _outdir(cfg) / "validation.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for check in report:
        state = "PASS" if check["pass"] else "FAIL"
        print(
            f"{state} {check['name']}: measured {check['measured']:.3e} "
            f"(tolerance {check['tolerance']:.0e})"
        )
    print(f"wrote {out}")
    return 0 if payload["all_pass"] else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser():
    parser = argparse.ArgumentParser(
        prog="openbilliards",
        description="Two-lead open-billiard scattering pipelines.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        dest="overrides",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--output-dir", help="shorthand for output_dir")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve-cavity")
    sub.add_parser("sweep")
    sub.add_parser("spectrum")
    validate = sub.add_parser("validate")
    validate.add_argument(
        "--inject-fault",
        action="store_true",
        help="negative control: plant a sign error and expect a FAIL",
    )
    sub.add_parser("two-body")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    overrides = list(args.overrides)
    if args.output_dir:
        overrides.append(f"output_dir={args.output_dir}")
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "solve-cavity":
            return cmd_solve_cavity(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, inject_fault=args.inject_fault)
        if args.command == "two-body":
            return cmd_two_body(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ValueError as err:  # a ConfigError, or an input the program rejects
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
