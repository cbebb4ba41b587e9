"""Command-line front end: config parsing, caching, CSV/JSON emission.

Subcommands: solve-cavity, sweep, spectrum, validate-1d, validate, two-body.
Configuration is YAML with nested sections; unknown keys are errors. Every
output file starts with comment lines carrying the config hash, the package
version, and the unit conventions, so runs are attributable and identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import math
import os
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
from .leads import IllConditionedEnergy, channel_space, overlaps, r_matrix
from .oned import (
    BarrierProblem,
    exact_transmission,
    reaction_matrix,
    rmatrix_transmission,
    write_comparison_csv,
)
from .scattering import (
    cayley_smatrix,
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
    power_spectrum,
    uniform_series,
    write_amplitude_csv,
    write_power_csv,
)
from .twobody import (
    InteractionSpec,
    contact_regularized,
    gaussian,
    interaction_block,
    write_pair_energies_csv,
)

logger = logging.getLogger("openbilliards.cli")

CACHE_ENV = "OPENBILLIARDS_CACHE"

# Part of every cache key; bump it when the solve path or the store format
# changes, so entries written by older code are not reused.
CACHE_FORMAT = 2

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
    "sweep": {
        "k_min": 1.0,
        "k_max": 19.0,
        "points": 2000,
        "n_lead": None,
        "phase_reference": "interface",
    },
    "spectra": {
        "windows": [{"k_min": 6.0, "k_max": 9.0, "n_modes": 6}],
        "pad_factor": 8,
        "hann": False,
    },
    "two_body": {
        "states": 4,
        "potential": {"kind": "gaussian", "strength": 1.0, "width": 0.5},
        "quad_order": 16,
        "mode": "euclidean",
    },
    "oned": {"v0": 1.0, "m_trunc": 1000, "e_min": 0.1, "e_max": 20.0, "points": 200},
    "output_dir": "out",
    "cache": True,
}

# Shapes of the optional subtrees whose defaults are null or list-valued.
_SUBTREES = {
    "geometry.wiggle": {"amplitude", "cycles"},
    "geometry.disorder": {"roughness", "pieces", "seed"},
    "spectra.windows[]": {"k_min", "k_max", "n_modes"},
    "two_body.potential": {"kind", "strength", "width"},
}


class ConfigError(ValueError):
    pass


def _check_keys(user, default, path):
    if not isinstance(user, dict):
        raise ConfigError(f"section '{path or '<root>'}' must be a mapping")
    allowed = set(default)
    for key in user:
        here = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown config key '{here}'")
        if here in _SUBTREES:
            if user[key] is None:
                continue
            if here == "spectra.windows":
                pass  # handled below as a list
            else:
                extra = set(user[key]) - _SUBTREES[here]
                if extra:
                    raise ConfigError(
                        f"unknown config key '{here}.{sorted(extra)[0]}'"
                    )
        elif isinstance(default[key], dict):
            _check_keys(user[key], default[key], here)


def _validate_windows(windows):
    for entry in windows:
        extra = set(entry) - _SUBTREES["spectra.windows[]"]
        if extra:
            raise ConfigError(f"unknown config key 'spectra.windows.{sorted(extra)[0]}'")
        missing = _SUBTREES["spectra.windows[]"] - set(entry)
        if missing:
            raise ConfigError(f"spectra window missing key '{sorted(missing)[0]}'")


def _apply(base, user):
    """Overlay user values onto a (deep-copied) defaults tree in place."""
    for key, val in user.items():
        if val is None and isinstance(base.get(key), dict):
            continue  # empty YAML section keeps the defaults
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _apply(base[key], val)
        else:
            base[key] = copy.deepcopy(val)


def load_config(path=None, overrides=()):
    """Defaults, optionally updated from a YAML file and key=value overrides."""
    user = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        user = loaded
    _check_keys(user, DEFAULT_CONFIG, "")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    _apply(cfg, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key.path=value")
        dotted, _, raw = item.partition("=")
        keys = dotted.strip().split(".")
        target = cfg
        for key in keys[:-1]:
            if not isinstance(target, dict) or key not in target:
                raise ConfigError(f"unknown config key '{dotted}'")
            if target[key] is None and f"{'.'.join(keys[:keys.index(key)+1])}" in _SUBTREES:
                target[key] = {}
            target = target[key]
        leaf = keys[-1]
        known = isinstance(target, dict) and (
            leaf in target
            or ".".join(keys) in {"geometry.wiggle.amplitude", "geometry.wiggle.cycles",
                                  "geometry.disorder.roughness", "geometry.disorder.pieces",
                                  "geometry.disorder.seed"}
        )
        if not known:
            raise ConfigError(f"unknown config key '{dotted}'")
        target[leaf] = yaml.safe_load(raw)
    if cfg["spectra"]["windows"]:
        _validate_windows(cfg["spectra"]["windows"])
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
        profile = profile_from_csv(g["path"], samples=g["samples"])
    else:
        raise ConfigError(f"unknown geometry.kind '{kind}'")
    if g["wiggle"]:
        profile = apply_wiggle(
            profile,
            amplitude=g["wiggle"].get("amplitude", 0.01),
            cycles=int(g["wiggle"].get("cycles", 10)),
        )
    if g["disorder"]:
        d = g["disorder"]
        profile = apply_surface_disorder(
            profile, d["roughness"], int(d["pieces"]), int(d["seed"])
        )
    return profile


def _cache_dir(cfg):
    env = os.environ.get(CACHE_ENV)
    base = Path(env) if env else Path(cfg["output_dir"]) / "cache"
    return base


def get_solution(cfg):
    """Solve the configured cavity, going through the on-disk cache."""
    profile = build_profile(cfg)
    b = cfg["basis"]
    basis = BasisSpec(m_max=int(b["m_max"]), n_max=int(b["n_max"]))
    k_keep = int(b["k_keep"])
    key_src = f"v{CACHE_FORMAT}:{profile.content_hash()}:{basis.m_max}:{basis.n_max}:{k_keep}"
    key = hashlib.sha256(key_src.encode()).hexdigest()[:20]
    slot = _cache_dir(cfg) / key
    if cfg["cache"] and (slot / "meta.json").exists():
        try:
            solution = load_solution(slot, profile)
            if solution.k_keep == k_keep:
                logger.info("cache hit %s", key)
                return solution
        except (ValueError, OSError) as err:
            logger.warning("cache entry %s unusable (%s); recomputing", key, err)
    logger.info("cache miss %s; solving", key)
    solution = solve_cavity(profile, basis, k_keep=k_keep)
    if cfg["cache"]:
        save_solution(solution, slot)
    return solution


def _outdir(cfg):
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_solve_cavity(cfg) -> int:
    solution = get_solution(cfg)
    out = _outdir(cfg) / "energies.csv"
    with open(out, "w", encoding="utf-8") as fh:
        for line in header_lines(cfg):
            fh.write(f"# {line}\n")
        fh.write("index,energy\n")
        for i, e_val in enumerate(solution.energies):
            fh.write(f"{i},{e_val:.12g}\n")
    print(f"wrote {out} ({solution.k_keep} levels)")
    return 0


def _sweep_grid(cfg):
    s = cfg["sweep"]
    return np.linspace(float(s["k_min"]), float(s["k_max"]), int(s["points"]))


def _run_sweep(cfg, solution):
    s = cfg["sweep"]
    n_lead = s["n_lead"]
    return sweep_conductance(
        solution,
        _sweep_grid(cfg),
        n_lead=None if n_lead is None else int(n_lead),
        phase_reference=s["phase_reference"],
    )


def cmd_sweep(cfg) -> int:
    solution = get_solution(cfg)
    result = _run_sweep(cfg, solution)
    out = _outdir(cfg)
    write_sweep_csv(result, out / "sweep.csv", header_lines(cfg))
    write_t_store(result, out / "tstore.bin")
    worst = float(np.max(result.unitarity_defect)) if result.k.size else 0.0
    print(
        f"wrote {out / 'sweep.csv'} ({result.k.size} points, "
        f"{len(result.skipped)} skipped, worst unitarity defect {worst:.3e})"
    )
    return 0


def cmd_spectrum(cfg, self_test=False) -> int:
    if self_test:
        return _spectrum_self_test()
    solution = get_solution(cfg)
    result = _run_sweep(cfg, solution)
    out = _outdir(cfg)
    pad = int(cfg["spectra"]["pad_factor"])
    hann = bool(cfg["spectra"]["hann"])
    for window in cfg["spectra"]["windows"]:
        lo, hi, n_modes = window["k_min"], window["k_max"], int(window["n_modes"])
        series = uniform_series(result, (lo, hi), n_modes)
        lengths, amps = length_spectrum(series, pad_factor=pad, hann=hann)
        power = np.sum(np.abs(amps) ** 2, axis=(1, 2))
        keep = lengths <= 40.0
        peaks = peak_positions(
            lengths[keep], power[keep], band=(2.0, 20.0), min_prominence=0.01
        )
        tag = f"{lo:g}-{hi:g}"
        peak_note = "peaks at L = " + ", ".join(f"{p:.3f}" for p in sorted(peaks[:8]))
        write_power_csv(
            out / f"power_{tag}.csv",
            lengths[keep],
            power[keep],
            header_lines(cfg) + (f"window [{lo:g}, {hi:g}] pi/w, {n_modes} modes", peak_note),
        )
        write_amplitude_csv(
            out / f"t11_{tag}.csv",
            lengths[keep],
            amps[keep, 0, 0],
            header_lines(cfg) + (f"window [{lo:g}, {hi:g}] pi/w, mode (1,1)",),
        )
        print(f"wrote power_{tag}.csv and t11_{tag}.csv; {peak_note}")
    return 0


def _spectrum_self_test() -> int:
    """Synthetic shift-theorem check: e^{ikL0} must peak at L0."""
    length_true = 7.5
    k = np.linspace(5.0, 9.0, 321)
    series = SpectrumSeries(
        k_window=(5.0, 9.0),
        lead_width=1.0,
        k=k,
        samples=np.exp(1j * k * length_true)[:, None, None],
    )
    lengths, amps = length_spectrum(series, pad_factor=8)
    peak = float(lengths[np.argmax(np.abs(amps[:, 0, 0]))])
    tol = series.resolution / 4.0
    ok = abs(peak - length_true) <= tol
    print(
        f"shift-theorem self-test: peak {peak:.4f} vs {length_true} "
        f"(tol {tol:.4f}): {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_validate_1d(cfg) -> int:
    o = cfg["oned"]
    problem = BarrierProblem(height=float(o["v0"]), m_trunc=int(o["m_trunc"]))
    energies = np.linspace(float(o["e_min"]), float(o["e_max"]), int(o["points"]))
    out = _outdir(cfg) / "barrier.csv"
    rows = write_comparison_csv(out, problem, energies, header_lines(cfg))
    data = np.genfromtxt(
        [l for l in out.read_text().splitlines() if not l.startswith("#")],
        delimiter=",",
        names=True,
    )
    worst = float(np.max(np.abs(data["T_exact"] - data["T_rmatrix"])))
    print(f"wrote {out} ({rows} rows, max |dT| = {worst:.3e})")
    return 0 if worst <= 1e-3 else 1


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
    spec = InteractionSpec(
        potential=potential, quad_order=int(tb["quad_order"]), mode=tb["mode"]
    )
    solution = get_solution(cfg)
    states = list(range(int(tb["states"])))
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
    table = overlaps(solution, n_lead=4)
    rmat = r_matrix(table, space)
    smat = s_from_r(rmat, space, profile.length)
    return abs(conductance(smat) - 2.0)


def _check_barrier(inject_fault=False):
    energy, v0 = 2.0, 1.0
    problem = BarrierProblem(height=v0)
    rmat = reaction_matrix(energy, problem)
    if inject_fault:
        # Negative control: sign error on the m = 0 series term.
        rmat = rmat - 2.0 / (energy - v0)
    k = math.sqrt(energy)
    core = cayley_smatrix(rmat, np.array([k, k]))
    t_ours = float(abs(core[1, 0]) ** 2)
    return abs(t_ours - exact_transmission(energy, v0))


def _check_cayley_unitarity():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(6, 6))
    rmat = 0.5 * (raw + raw.T)
    smat = cayley_smatrix(rmat, np.linspace(1.0, 2.5, 6))
    return float(np.max(np.abs(smat @ smat.conj().T - np.eye(6))))


def _check_parseval():
    rng = np.random.default_rng(11)
    k = np.linspace(5.0, 8.0, 128)
    dk = k[1] - k[0]
    t = rng.normal(size=(128, 1, 1)) + 1j * rng.normal(size=(128, 1, 1))
    series = SpectrumSeries(k_window=(5.0, 8.0), lead_width=1.0, k=k, samples=t)
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
    spectrum = sub.add_parser("spectrum")
    spectrum.add_argument(
        "--self-test",
        action="store_true",
        help="run the synthetic shift-theorem check and exit",
    )
    sub.add_parser("validate-1d")
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
            return cmd_spectrum(cfg, self_test=args.self_test)
        if args.command == "validate-1d":
            return cmd_validate_1d(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, inject_fault=args.inject_fault)
        if args.command == "two-body":
            return cmd_two_body(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, IllConditionedEnergy) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
