"""CLI behavior: config validation, caching, outputs, oracle suite."""

import json
import logging
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import openbilliards
from openbilliards import cli
from openbilliards.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    _parser,
    config_hash,
    load_config,
    main,
    run_validation,
)
from openbilliards.oned import BarrierProblem, exact_transmission, rmatrix_transmission


def write_yaml(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def small_rect_config(tmp_path, **extra):
    cfg = {
        "geometry": {
            "kind": "rectangle",
            "height": 1.0,
            "length": 0.25,
            "samples": 256,
        },
        "basis": {"m_max": 9, "n_max": 33, "k_keep": 297},
        "sweep": {"k_min": 1.05, "k_max": 1.95, "points": 40},
        "spectra": {"windows": [{"k_min": 1.1, "k_max": 1.9, "n_modes": 1}]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return write_yaml(tmp_path / "cfg.yaml", cfg)


def test_defaults_round_trip():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    assert len(config_hash(cfg)) == 16
    assert config_hash(cfg) == config_hash(load_config(None))


def test_readme_schema_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == DEFAULT_CONFIG


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    lines = [l.split("#", 1)[0] for l in block.splitlines() if l.startswith("openbilliards ")]
    assert lines
    for line in lines:
        _parser().parse_args(shlex.split(line)[1:])


def test_unknown_keys_rejected(tmp_path):
    path = write_yaml(tmp_path / "bad.yaml", {"geometry": {"radius": 2.0}})
    with pytest.raises(ConfigError, match="geometry.radius"):
        load_config(path)
    path = write_yaml(tmp_path / "bad2.yaml", {"turbo": True})
    with pytest.raises(ConfigError, match="turbo"):
        load_config(path)
    path = write_yaml(
        tmp_path / "bad3.yaml",
        {"spectra": {"windows": [{"k_min": 1, "k_max": 2, "n_modes": 1, "pad": 4}]}},
    )
    with pytest.raises(ConfigError, match="windows.pad"):
        load_config(path)
    path = write_yaml(
        tmp_path / "bad4.yaml", {"geometry": {"wiggle": {"period": 3}}}
    )
    with pytest.raises(ConfigError, match="wiggle.period"):
        load_config(path)


def test_overrides_apply_and_validate():
    cfg = load_config(None, overrides=["sweep.points=17", "output_dir=elsewhere"])
    assert cfg["sweep"]["points"] == 17
    assert cfg["output_dir"] == "elsewhere"
    cfg = load_config(
        None,
        overrides=["geometry.wiggle.amplitude=0.02", "geometry.wiggle.cycles=10"],
    )
    assert cfg["geometry"]["wiggle"] == {"amplitude": 0.02, "cycles": 10}
    # a switched-on optional subtree must be complete, like a spectra window
    with pytest.raises(ConfigError, match="missing key 'cycles'"):
        load_config(None, overrides=["geometry.wiggle.amplitude=0.02"])
    with pytest.raises(ConfigError, match="sweep.velocity"):
        load_config(None, overrides=["sweep.velocity=3"])
    with pytest.raises(ConfigError, match="not of the form"):
        load_config(None, overrides=["sweep.points"])


@pytest.mark.parametrize(
    "override, message",
    [
        ("geometry.disorder.seed=3", "missing key 'roughness'"),
        ("basis.m_max=abc", "'basis.m_max' must be int"),
        ("two_body.potential=null", "'two_body.potential' must be a mapping"),
        ("sweep.phase_reference=global", "unknown config key 'sweep.phase_reference'"),
        ("sweep.n_lead=8", "unknown config key 'sweep.n_lead'"),
        ("two_body.mode=components", "unknown config key 'two_body.mode'"),
        ("spectra.hann=true", "unknown config key 'spectra.hann'"),
        ("oned.points=10", "unknown config key 'oned.points'"),
        ("basis.k_keep=0", "k_keep must be in 1.."),
        ("geometry.wiggle={amplitude: .nan, cycles: 4}",
         "'geometry.wiggle.amplitude' must be finite, got nan"),
        ("geometry.disorder={roughness: .nan, pieces: 8, seed: 1}",
         "'geometry.disorder.roughness' must be finite, got nan"),
        ("sweep.k_max=.nan", "'sweep.k_max' must be finite, got nan"),
        ("sweep.k_max=.inf", "'sweep.k_max' must be finite, got inf"),
    ],
)
def test_bad_override_is_config_error(tmp_path, capsys, override, message):
    argv = ["--output-dir", str(tmp_path / "out"), "--set", override, "solve-cavity"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case, fragments",
    [
        ("missing-config", ("cannot read config file", "absent.yaml")),
        ("malformed-config", ("cannot read config file", "bad.yaml")),
        ("malformed-override", ("override 'sweep.points=[1' is not valid YAML",)),
        ("missing-geometry-csv", ("cannot read geometry.path", "absent.csv")),
        ("short-geometry-csv-row", ("short.csv", "data row 2 '1,1'", "u,P,Q")),
        ("non-numeric-geometry-csv", ("word.csv", "data row 3 'abc,1,0'", "'abc'")),
        ("nan-geometry-csv", ("nan.csv", "data row 2 is not finite")),
    ],
)
def test_unreadable_input_is_config_error(tmp_path, capsys, case, fragments):
    (tmp_path / "bad.yaml").write_text("basis: [1\n", encoding="utf-8")
    (tmp_path / "short.csv").write_text("u,P,Q\n0,1,0\n1,1\n2,1,0\n3,1,0\n", encoding="utf-8")
    (tmp_path / "word.csv").write_text("u,P,Q\n0,1,0\n1,1,0\nabc,1,0\n3,1,0\n", encoding="utf-8")
    (tmp_path / "nan.csv").write_text("u,P,Q\n0,1,0\n1,nan,0\n2,1,0\n3,1,0\n", encoding="utf-8")

    def csv_geometry(name):
        return ["--set", "geometry.kind=csv", "--set", f"geometry.path={tmp_path / name}"]

    argv = {
        "missing-config": ["--config", str(tmp_path / "absent.yaml")],
        "malformed-config": ["--config", str(tmp_path / "bad.yaml")],
        "malformed-override": ["--set", "sweep.points=[1"],
        "missing-geometry-csv": csv_geometry("absent.csv"),
        "short-geometry-csv-row": csv_geometry("short.csv"),
        "non-numeric-geometry-csv": csv_geometry("word.csv"),
        "nan-geometry-csv": csv_geometry("nan.csv"),
    }[case]
    assert main(["--output-dir", str(tmp_path / "out"), *argv, "solve-cavity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(fragment in err for fragment in fragments)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_solve_cavity_cache_and_determinism(tmp_path, caplog, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "solve-cavity"]) == 0
    assert any("cache miss" in r.message for r in caplog.records)
    first = (tmp_path / "out" / "energies.csv").read_bytes()
    assert (tmp_path / "cachedir").is_dir()

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "solve-cavity"]) == 0
    assert any("cache hit" in r.message for r in caplog.records)
    assert (tmp_path / "out" / "energies.csv").read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("# openbilliards ")
    assert lines[2].startswith("# units: k in pi/w")
    assert lines[3] == "index,energy"
    energies = np.array([float(l.split(",")[1]) for l in lines[4:]])
    assert energies.size == 297
    assert np.all(energies > 0.0)
    assert np.all(np.diff(energies) >= 0.0)


def _replaces_spoiled_entry(tmp_path, caplog, monkeypatch, spoil):
    """Solve once, spoil the entry, and check that the next run solves again
    into the same slot, writes the same output and then hits the cache."""
    cache = tmp_path / "cachedir"
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(cache))
    cfg_path = small_rect_config(tmp_path)
    assert main(["--config", cfg_path, "solve-cavity"]) == 0
    first = (tmp_path / "out" / "energies.csv").read_bytes()
    (slot,) = cache.iterdir()
    spoil(slot)
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "solve-cavity"]) == 0
    assert any("unusable" in r.message for r in caplog.records)
    assert (tmp_path / "out" / "energies.csv").read_bytes() == first
    assert [p.name for p in cache.iterdir()] == [slot.name]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "solve-cavity"]) == 0
    assert any("cache hit" in r.message for r in caplog.records)


def test_unusable_cache_entry_is_replaced(tmp_path, caplog, monkeypatch):
    def truncate_vectors(slot):
        vectors = slot / "vectors.npy"
        vectors.write_bytes(vectors.read_bytes()[:-40])

    _replaces_spoiled_entry(tmp_path, caplog, monkeypatch, truncate_vectors)


def test_truncated_interface_table_is_replaced(tmp_path, caplog, monkeypatch):
    def truncate_interface(slot):
        table = slot / "interface.npy"
        table.write_bytes(table.read_bytes()[:-40])

    _replaces_spoiled_entry(tmp_path, caplog, monkeypatch, truncate_interface)


def test_old_format_cache_entry_is_replaced(tmp_path, caplog, monkeypatch):
    def mark_old_format(slot):
        meta = json.loads((slot / "meta.json").read_text())
        meta["format"] -= 1
        (slot / "meta.json").write_text(json.dumps(meta))

    _replaces_spoiled_entry(tmp_path, caplog, monkeypatch, mark_old_format)


@pytest.mark.parametrize("name", ["energies.npy", "interface.npy", "vectors.npy"])
def test_empty_array_file_is_replaced(tmp_path, caplog, monkeypatch, name):
    # what a power loss can leave of a file renamed into place without fsync
    def empty(slot):
        (slot / name).write_bytes(b"")

    _replaces_spoiled_entry(tmp_path, caplog, monkeypatch, empty)


def test_entry_published_by_another_run_is_kept(tmp_path, caplog, monkeypatch):
    """A run that loses the publish to a concurrent run keeps that run's entry,
    leaves no staging directory and writes its outputs from its own solve."""
    cache = tmp_path / "cachedir"
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(cache))
    cfg_path = small_rect_config(tmp_path)
    real_replace = os.replace

    def publish_first(src, dst):  # the other run renames its entry in first
        shutil.copytree(src, dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", publish_first)
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "sweep"]) == 0
    monkeypatch.setattr(os, "replace", real_replace)
    assert any("published by another run" in r.message for r in caplog.records)
    (slot,) = cache.iterdir()
    assert (tmp_path / "out" / "sweep.csv").exists()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="openbilliards.cavity"):
        assert main(["--config", cfg_path, "sweep"]) == 0
    assert any("cache hit" in r.message for r in caplog.records)
    assert [p.name for p in cache.iterdir()] == [slot.name]


def test_unwritable_cache_keeps_the_solve(tmp_path, caplog, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(blocker / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    for command in ("sweep", "spectrum"):
        with caplog.at_level(logging.WARNING, logger="openbilliards.cavity"):
            assert main(["--config", cfg_path, command]) == 0
        assert any("not written" in r.message for r in caplog.records)
        caplog.clear()
    assert "Traceback" not in capsys.readouterr().err
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "power_1.1-1.9.csv", "sweep.csv", "t11_1.1-1.9.csv", "tstore.bin",
    ]


def test_unwritable_output_dir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = small_rect_config(tmp_path)
    assert main(["--config", cfg_path, "--output-dir", str(blocker / "out"), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve-cavity", "sweep", "spectrum", "two-body"])
def test_unusable_output_dir_fails_before_the_solve(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    calls = []
    monkeypatch.setattr(cli, "get_solution", lambda cfg: calls.append(cfg))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = small_rect_config(tmp_path)
    assert main(["--config", cfg_path, "--output-dir", str(blocker / "out"), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert calls == []


def test_sweep_and_spectrum_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    assert main(["--config", cfg_path, "sweep"]) == 0
    out = tmp_path / "out"
    sweep_bytes = (out / "sweep.csv").read_bytes()
    assert (out / "tstore.bin").exists()
    body = [
        l for l in sweep_bytes.decode().splitlines() if not l.startswith("#")
    ]
    data = np.genfromtxt(body, delimiter=",", names=True)
    assert data["k_over_piw"].size == 40
    # Single-channel straight guide: T sits on the first stair.
    assert np.max(np.abs(data["T"] - 1.0)) < 1e-3
    assert np.nanmax(data["unitarity_defect"]) < 1e-10

    assert main(["--config", cfg_path, "sweep"]) == 0
    assert (out / "sweep.csv").read_bytes() == sweep_bytes

    assert main(["--config", cfg_path, "spectrum"]) == 0
    assert (out / "power_1.1-1.9.csv").exists()
    amp_lines = (out / "t11_1.1-1.9.csv").read_text().splitlines()
    assert amp_lines[0].startswith("# config ")
    assert "L,re_t,im_t,abs_t" in amp_lines


def test_spectrum_sweeps_only_its_windows_and_matches_the_full_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    windows = [{"k_min": 1.1, "k_max": 1.5, "n_modes": 1}, {"k_min": 1.3, "k_max": 1.7, "n_modes": 1}]
    cfg_path = small_rect_config(tmp_path, spectra={"windows": windows})
    grid = np.linspace(1.05, 1.95, 40)
    swept = []
    real_sweep = cli.sweep_conductance

    def recording_sweep(solution, k_grid):
        swept.append(np.asarray(k_grid))
        return real_sweep(solution, k_grid)

    out = tmp_path / "out"
    names = ("power_1.1-1.5.csv", "t11_1.1-1.5.csv", "power_1.3-1.7.csv", "t11_1.3-1.7.csv")
    monkeypatch.setattr(cli, "sweep_conductance", lambda solution, _: real_sweep(solution, grid))
    assert main(["--config", cfg_path, "spectrum"]) == 0
    from_full_grid = {name: (out / name).read_bytes() for name in names}
    monkeypatch.setattr(cli, "sweep_conductance", recording_sweep)
    assert main(["--config", cfg_path, "spectrum"]) == 0
    assert {name: (out / name).read_bytes() for name in names} == from_full_grid
    # one sweep over the union of both windows' grid points, not the grid
    inside = (grid >= 1.1 - 1e-9) & (grid <= 1.7 + 1e-9)
    assert len(swept) == 1 and np.array_equal(swept[0], grid[inside])
    assert inside.sum() < grid.size


def test_no_scipy_module_is_loaded_on_the_warm_path(tmp_path, monkeypatch):
    src = str(Path(openbilliards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBILLIARDS_CACHE=str(tmp_path / "cachedir"))
    report = "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    layers = ("cli", "geometry", "cavity", "leads", "scattering", "spectra", "oned", "twobody")
    imports = "import sys, importlib; [importlib.import_module('openbilliards.' + m) for m in %r]"
    done = subprocess.run(
        [sys.executable, "-c", imports % (layers,) + report],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"

    cfg_path = small_rect_config(tmp_path)
    monkeypatch.setenv("OPENBILLIARDS_CACHE", env["OPENBILLIARDS_CACHE"])
    assert main(["--config", cfg_path, "solve-cavity"]) == 0  # fills the cache
    run = "import sys; from openbilliards.cli import main; assert main(%r) == 0" % (
        ["--config", cfg_path, "spectrum"],
    )
    done = subprocess.run(
        [sys.executable, "-c", run + report], env=env, capture_output=True, text=True, check=True
    )
    assert (tmp_path / "out" / "power_1.1-1.9.csv").exists()
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_spectrum_self_test(capsys):
    # The spectrum shift-theorem self-check runs as the `shift-theorem`
    # entry of `validate`; the old `spectrum --self-test` flag is gone.
    for inject_fault in (False, True):
        checks = {c["name"]: c for c in run_validation(inject_fault=inject_fault)}
        shift = checks["shift-theorem"]
        assert shift["tolerance"] == pytest.approx(math.pi / 8.0)
        assert shift["measured"] <= shift["tolerance"]
        assert shift["pass"] is True
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--self-test"])
    assert exc.value.code == 2
    assert "--self-test" in capsys.readouterr().err


def test_validate_1d(capsys):
    # validate's barrier entry runs acceptance criterion 1's grid
    problem = BarrierProblem(height=1.0)
    worst = max(
        abs(rmatrix_transmission(e, problem) - exact_transmission(e, 1.0))
        for e in np.linspace(0.1, 20.0, 200)
    )
    clean, faulty = (
        next(c for c in run_validation(inject_fault=f) if c["name"] == "barrier-rmatrix-vs-exact")
        for f in (False, True)
    )
    assert clean["tolerance"] == 1e-3
    assert clean["measured"] == worst and clean["pass"] is True
    assert np.isfinite(faulty["measured"]) and faulty["pass"] is False
    with pytest.raises(SystemExit) as exc:
        main(["validate-1d"])
    assert exc.value.code == 2
    assert "validate-1d" in capsys.readouterr().err


def test_validate_report_and_negative_control(tmp_path):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", {"output_dir": str(tmp_path / "out")})
    assert main(["--config", cfg_path, "validate"]) == 0
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"barrier-rmatrix-vs-exact", "shift-theorem"} <= names
    for check in report["checks"]:
        assert set(check) == {"name", "tolerance", "measured", "pass"}
        assert check["pass"] is True

    assert main(["--config", cfg_path, "validate", "--inject-fault"]) == 1
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report["all_pass"] is False
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["barrier-rmatrix-vs-exact"]


def test_two_body_cli(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = write_yaml(
        tmp_path / "cfg.yaml",
        {
            "geometry": {
                "kind": "rectangle",
                "height": 1.0,
                "length": 3.0,
                "samples": 256,
            },
            "basis": {"m_max": 10, "n_max": 6, "k_keep": 10},
            "two_body": {
                "states": 3,
                "potential": {"kind": "gaussian", "strength": 0.5, "width": 0.6},
                "quad_order": 24,
            },
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["--config", cfg_path, "two-body"]) == 0
    lines = (tmp_path / "out" / "pair_energies.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,E_pair"
    assert len(data) == 1 + 9
    values = np.array([float(l.split(",")[1]) for l in data[1:]])
    assert np.all(np.diff(values) >= 0.0)


def test_two_body_cli_contact_potential(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = write_yaml(
        tmp_path / "cfg.yaml",
        {
            "geometry": {"kind": "reference", "samples": 512},
            "basis": {"m_max": 10, "n_max": 6, "k_keep": 60},
            "two_body": {
                "states": 4,
                "potential": {"kind": "contact", "strength": 1.0, "width": 0.5},
                "quad_order": 32,
            },
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["--config", cfg_path, "two-body"]) == 0
    lines = (tmp_path / "out" / "pair_energies.csv").read_text().splitlines()
    assert "# contact potential, 4 single-particle states" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,E_pair" and len(data) == 1 + 16


def test_two_body_order_check_failure_exits_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = write_yaml(
        tmp_path / "cfg.yaml",
        {
            "geometry": {"kind": "reference", "samples": 512},
            "basis": {"m_max": 10, "n_max": 6, "k_keep": 60},
            "two_body": {"states": 6, "quad_order": 16},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["--config", cfg_path, "two-body"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: quadrature not converged at q=16")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "pair_energies.csv").exists()


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("two-body", "two_body.states=298", "two_body.states must be between 1 and basis.k_keep"),
        ("sweep", "sweep.k_max=40.0", "sweep needs 40 lead channels"),
        ("spectrum", "spectra.windows=[{k_min: 1.1, k_max: 1.9, n_modes: 2}]", "need 2"),
        ("spectrum", "sweep.k_max=40.0", "sweep needs 40 lead channels"),
        ("spectrum", "spectra.windows=[{k_min: 3.0, k_max: 4.0, n_modes: 1}]",
         "covers only 0 sweep points"),
        ("spectrum", "spectra.windows=[]", "spectra.windows is empty"),
        ("spectrum", "spectra.windows=[{k_min: 1.1, k_max: 1.5, n_modes: 1}, "
         "{k_min: 1.3, k_max: 1.9, n_modes: 2}]", "only 1 channels open at k=1.30385, need 2"),
    ],
)
def test_rejected_run_exits_2_without_traceback(
    tmp_path, monkeypatch, capsys, command, override, message
):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    assert main(["--config", cfg_path, "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    if command == "two-body":  # rejected before the cavity is solved
        assert not (tmp_path / "cachedir").exists()
    if command == "spectrum":  # no window's file is written, the passing ones' included
        assert not list((tmp_path / "out").glob("power_*"))
        assert not list((tmp_path / "out").glob("t11_*"))


@pytest.mark.parametrize(
    "k_min, k_max", [(1.95, 1.05), (1.5, 1.5)], ids=["descending", "zero-width"]
)
def test_spectrum_rejects_a_grid_that_does_not_ascend(
    tmp_path, monkeypatch, capsys, k_min, k_max
):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    grid = ["--set", f"sweep.k_min={k_min}", "--set", f"sweep.k_max={k_max}"]
    assert main(["--config", cfg_path, *grid, "sweep"]) == 0  # a sweep takes any order
    capsys.readouterr()
    assert main(["--config", cfg_path, *grid, "spectrum"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample grid must ascend" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("power_*.csv"))


def test_bad_geometry_kind_is_config_error(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", {"geometry": {"kind": "moebius"}})
    assert main(["--config", cfg_path, "solve-cavity"]) == 2
    assert "unknown geometry.kind" in capsys.readouterr().err
