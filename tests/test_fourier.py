"""Fast cosine/sine quadrature against brute-force integration."""

import numpy as np
import pytest
from scipy.integrate import simpson

from openbilliards.cavity import fft_cosine_integrals, fft_sine_integrals

# Frozen oracle values (composite Simpson, 1e5 panels; cross-checked against
# the closed-form antiderivative to 2e-17):
#   int_0^2 exp(-u) cos(3 pi u / 2) du
COS3_EXP = 0.04892292704574226
#   int_0^2 exp(-u) sin(2 pi u / 2) du
SIN2_EXP = 0.24991013672309126


def midgrid(length, m):
    return (np.arange(m) + 0.5) * (length / m)


def test_constant_function():
    length = 1.7
    vals = np.ones(512)
    out = fft_cosine_integrals(vals, length, count=9)
    assert out[0] == pytest.approx(length, rel=1e-14)
    assert np.max(np.abs(out[1:])) < 1e-12


def test_pure_cosine_mode():
    length = 2.5
    u = midgrid(length, 512)
    out = fft_cosine_integrals(np.cos(np.pi * u / length), length, count=6)
    assert out[1] == pytest.approx(length / 2.0, rel=1e-13)
    others = np.delete(out, 1)
    assert np.max(np.abs(others)) < 1e-12


def test_pure_sine_mode():
    length = 2.5
    u = midgrid(length, 512)
    out = fft_sine_integrals(np.sin(np.pi * u / length), length, count=6)
    assert out[0] == pytest.approx(length / 2.0, rel=1e-13)
    assert np.max(np.abs(out[1:])) < 1e-12


def test_exponential_against_frozen_oracle():
    length = 2.0
    u = midgrid(length, 4096)
    out = fft_cosine_integrals(np.exp(-u), length, count=8)
    assert abs(out[3] - COS3_EXP) < 1e-9
    outs = fft_sine_integrals(np.exp(-u), length, count=8)
    assert abs(outs[1] - SIN2_EXP) < 1e-9


def test_exponential_against_live_simpson():
    length = 2.0
    m = 2048
    u = midgrid(length, m)
    out = fft_cosine_integrals(np.exp(-u), length, count=12)
    uf = np.linspace(0.0, length, 100001)
    for p in range(12):
        ref = simpson(np.exp(-uf) * np.cos(p * np.pi * uf / length), x=uf)
        assert abs(out[p] - ref) < 1e-9, f"cosine moment {p}"
    outs = fft_sine_integrals(np.exp(-u), length, count=12)
    for p in range(1, 13):
        ref = simpson(np.exp(-uf) * np.sin(p * np.pi * uf / length), x=uf)
        assert abs(outs[p - 1] - ref) < 1e-9, f"sine moment {p}"


def test_error_falls_fast_with_grid():
    length = 2.0
    errs = []
    for m in (256, 1024):
        u = midgrid(length, m)
        out = fft_cosine_integrals(np.exp(-u), length, count=4)
        errs.append(abs(out[3] - COS3_EXP))
    # endpoint-corrected midpoint rule: ~M^-4, so x16 grid -> ~x65000 error drop;
    # require at least two orders
    assert errs[1] < errs[0] / 1e2
    assert errs[1] < 1e-11


def test_count_validation():
    with pytest.raises(ValueError):
        fft_cosine_integrals(np.ones(512), 1.0, count=513)
    with pytest.raises(ValueError, match="at least 8 midpoint samples"):
        fft_cosine_integrals(np.ones(4), 1.0, count=2)
