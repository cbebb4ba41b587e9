"""CLI behavior: config validation, caching, outputs, oracle suite."""

import json
import logging

import numpy as np
import pytest
import yaml

from openbilliards.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    config_hash,
    load_config,
    main,
)


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
    cfg = load_config(None, overrides=["geometry.wiggle.amplitude=0.02"])
    assert cfg["geometry"]["wiggle"]["amplitude"] == 0.02
    with pytest.raises(ConfigError, match="sweep.velocity"):
        load_config(None, overrides=["sweep.velocity=3"])
    with pytest.raises(ConfigError, match="not of the form"):
        load_config(None, overrides=["sweep.points"])


def test_solve_cavity_cache_and_determinism(tmp_path, caplog, monkeypatch):
    monkeypatch.setenv("OPENBILLIARDS_CACHE", str(tmp_path / "cachedir"))
    cfg_path = small_rect_config(tmp_path)
    with caplog.at_level(logging.INFO, logger="openbilliards.cli"):
        assert main(["--config", cfg_path, "solve-cavity"]) == 0
    assert any("cache miss" in r.message for r in caplog.records)
    first = (tmp_path / "out" / "energies.csv").read_bytes()
    assert (tmp_path / "cachedir").is_dir()

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="openbilliards.cli"):
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


def test_spectrum_self_test():
    assert main(["spectrum", "--self-test"]) == 0


def test_validate_1d(tmp_path):
    cfg_path = write_yaml(
        tmp_path / "cfg.yaml",
        {"oned": {"points": 200}, "output_dir": str(tmp_path / "out")},
    )
    assert main(["--config", cfg_path, "validate-1d"]) == 0
    text = (tmp_path / "out" / "barrier.csv").read_text()
    assert "E,T_exact,T_rmatrix" in text
    # The grid crosses E = V0 (an interior level), which must be skipped.
    assert "# skipped E=" in text


def test_validate_report_and_negative_control(tmp_path):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", {"output_dir": str(tmp_path / "out")})
    assert main(["--config", cfg_path, "validate"]) == 0
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "barrier-rmatrix-vs-exact" in names
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


def test_bad_geometry_kind_is_config_error(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", {"geometry": {"kind": "moebius"}})
    assert main(["--config", cfg_path, "solve-cavity"]) == 2
    assert "unknown geometry.kind" in capsys.readouterr().err
