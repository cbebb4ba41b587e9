"""Boundary profile construction, perturbations, and serialization."""

import math

import numpy as np
import pytest

from openbilliards.geometry import (
    GeometryError,
    apply_surface_disorder,
    apply_wiggle,
    make_rectangle,
    make_reference_cavity,
    min_width,
    profile_from_csv,
    profile_to_csv,
)

# Closed-form anchor values for the reference cavity, evaluated from the wall
# formulas independently of the module (stationary point of the width).
REF_LEAD_WIDTH = 1.0013169992342317
REF_MIN_WIDTH = 0.30970755610337425
REF_MIN_OFFSET = 0.7429867851203487
REF_MID_WIDTH = 0.3456


def test_reference_cavity_anchor_values():
    p = make_reference_cavity()
    assert p.length == pytest.approx(4.32, abs=0.0)
    assert p.lead_width == pytest.approx(REF_LEAD_WIDTH, rel=1e-12)
    assert float(p.width_at(p.length / 2)) == pytest.approx(REF_MID_WIDTH, rel=1e-12)
    x_min, w_min = min_width(p)
    assert w_min == pytest.approx(REF_MIN_WIDTH, rel=1e-9)
    assert abs(x_min - p.length / 2) == pytest.approx(REF_MIN_OFFSET, abs=1e-6)
    # first open mode of the neck sits at 3.23 in units of pi/lead_width
    assert p.lead_width / w_min == pytest.approx(3.23, abs=0.005)


def test_reference_cavity_interfaces_match_leads():
    p = make_reference_cavity()
    p.validate()
    assert float(p.width_at(0.0)) == pytest.approx(p.lead_width, rel=1e-12)
    assert float(p.width_at(p.length)) == pytest.approx(p.lead_width, rel=1e-12)
    assert np.all(p.width > 0.0)


def test_rectangle_profile():
    p = make_rectangle(height=1.0, length=3.0, samples=512)
    assert p.lead_width == 1.0
    assert np.all(p.width == 1.0)
    assert np.all(p.upper_slope == 0.0)
    x_min, w_min = min_width(p)
    assert w_min == pytest.approx(1.0, rel=1e-12)


def test_crossing_walls_rejected():
    with pytest.raises(GeometryError):
        make_rectangle(height=-0.1, length=1.0)


def test_wiggle_amplitude_and_support():
    base = make_reference_cavity()
    pert = apply_wiggle(base, amplitude=0.01)
    delta = pert.upper - base.upper
    x0, x1 = 0.45 * base.length, 0.55 * base.length
    outside = (base.grid < x0) | (base.grid > x1)
    assert np.all(delta[outside] == 0.0)
    # ripple amplitude survives the edge blending to within 1e-3
    assert np.max(np.abs(delta)) == pytest.approx(0.01, abs=1e-3)
    # lower wall untouched
    assert np.array_equal(pert.lower, base.lower)


def test_wiggle_zero_amplitude_is_identity():
    base = make_reference_cavity(samples=512)
    pert = apply_wiggle(base, amplitude=0.0)
    assert np.allclose(pert.upper, base.upper, rtol=0, atol=0)


def test_wiggle_slope_is_consistent_and_continuous():
    base = make_reference_cavity(samples=512)
    pert = apply_wiggle(base, amplitude=0.01)
    # central differences of the wall against the analytic slope, across the
    # blend edges included
    xs = np.linspace(0.43 * base.length, 0.57 * base.length, 4001)
    h = 1e-7
    fd = (pert.upper_fn(xs + h) - pert.upper_fn(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - pert.upper_slope_fn(xs))) < 1e-5


def test_disorder_is_deterministic_and_seed_sensitive():
    base = make_reference_cavity(samples=512)
    a = apply_surface_disorder(base, roughness=0.2, pieces=100, seed=7)
    b = apply_surface_disorder(base, roughness=0.2, pieces=100, seed=7)
    c = apply_surface_disorder(base, roughness=0.2, pieces=100, seed=8)
    assert np.array_equal(a.lower, b.lower)
    assert not np.array_equal(a.lower, c.lower)
    a.validate()
    assert float(a.width_at(0.0)) == pytest.approx(base.lead_width, rel=1e-12)
    assert float(a.width_at(base.length)) == pytest.approx(base.lead_width, rel=1e-12)


def test_disorder_zero_roughness_roundtrip():
    base = make_reference_cavity(samples=512)
    flat = apply_surface_disorder(base, roughness=0.0, pieces=100, seed=1)
    # the end-slope-matched spline reproduces the parabolic wall exactly
    assert np.max(np.abs(flat.lower - base.lower)) < 1e-10
    xs = np.linspace(0, base.length, 777)
    assert np.max(np.abs(flat.lower_fn(xs) - base.lower_fn(xs))) < 1e-10


def test_disorder_wall_crossing_detected():
    base = make_reference_cavity(samples=512)
    with pytest.raises(GeometryError):
        # roughness far beyond the neck width must make walls cross
        apply_surface_disorder(base, roughness=2.0, pieces=100, seed=3)


def test_non_finite_walls_rejected():
    base = make_reference_cavity(samples=512)
    with pytest.raises(GeometryError, match="upper is not finite"):
        apply_wiggle(base, amplitude=float("nan"), cycles=4)
    with pytest.raises(GeometryError, match="roughness must be non-negative, got nan"):
        apply_surface_disorder(base, roughness=float("nan"), pieces=8, seed=1)


def test_profile_csv_roundtrip(tmp_path):
    p = make_reference_cavity(samples=512)
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    raw = path.read_bytes()
    assert raw.splitlines()[0] == b"u,P,Q"
    assert b"\r" not in raw
    q = profile_from_csv(path, samples=512)
    assert q.length == pytest.approx(p.length, rel=1e-15)
    assert np.max(np.abs(q.width - p.width)) < 1e-9
    assert q.lead_width == pytest.approx(p.lead_width, rel=1e-9)
    # a table written with CRLF line endings reads the same
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    r = profile_from_csv(crlf, samples=512)
    assert np.array_equal(r.upper, q.upper) and np.array_equal(r.lower, q.lower)


def test_wiggle_perturbs_conductance_relevant_region():
    # sanity on shape: the ripple lives strictly inside the middle fifth
    base = make_reference_cavity()
    pert = apply_wiggle(base, amplitude=0.01)
    delta = np.abs(pert.upper - base.upper)
    mid = (base.grid > 0.45 * base.length) & (base.grid < 0.55 * base.length)
    assert delta[mid].max() > 5e-3
    assert math.isclose(float(pert.width_at(0.0)), base.lead_width, rel_tol=1e-12)
