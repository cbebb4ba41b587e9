"""Length-spectrum transform checks on synthetic transmission data."""

import math

import numpy as np
import pytest

from openbilliards.scattering import SweepResult
from openbilliards.spectra import (
    SpectrumSeries,
    length_spectrum,
    peak_positions,
    power_spectrum,
    uniform_series,
    write_amplitude_csv,
    write_power_csv,
)
from openbilliards.spectra import _prominent_peaks


def make_series(k, samples):
    k = np.asarray(k, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None, None]
    return SpectrumSeries(k=k, samples=samples)


def test_constant_signal_concentrates_at_zero_length():
    k = np.linspace(6.0, 9.0, 241)
    dk = k[1] - k[0]
    series = make_series(k, np.ones(k.size))
    lengths, amps = length_spectrum(series, pad_factor=8)
    mod = np.abs(amps[:, 0, 0])
    # The L=0 bin carries the full Riemann sum; e^{-i k 0} = 1 so it is real.
    assert lengths[0] == 0.0
    assert mod[0] == pytest.approx(dk * k.size, rel=1e-12)
    res = series.resolution
    far = (lengths >= 2.0 * res) & (lengths <= 10.0 * res)
    assert np.max(mod[far]) < 0.25 * mod[0]


def test_shift_theorem_places_peak_at_path_length():
    k = np.linspace(6.0, 9.0, 241)
    dk = k[1] - k[0]
    pad = 8
    bin_width = 2.0 * math.pi / (pad * k.size * dk)
    # Put the path length exactly on a padded bin so the peak value is the
    # full Riemann sum with the carrier phase undone.
    length_true = round(4.32 / bin_width) * bin_width
    series = make_series(k, np.exp(1j * k * length_true))
    lengths, amps = length_spectrum(series, pad_factor=pad)
    mod = np.abs(amps[:, 0, 0])
    peak_idx = int(np.argmax(mod))
    assert abs(lengths[peak_idx] - length_true) <= bin_width / 2.0
    val = amps[peak_idx, 0, 0]
    assert val.real == pytest.approx(dk * k.size, rel=1e-12)
    assert abs(val.imag) < 1e-9 * val.real


def test_parseval_identity_is_exact():
    rng = np.random.default_rng(42)
    k = np.linspace(5.0, 8.5, 160)
    dk = k[1] - k[0]
    t = rng.normal(size=(k.size, 2, 2)) + 1j * rng.normal(size=(k.size, 2, 2))
    series = make_series(k, t)
    lengths, amps = length_spectrum(series, pad_factor=8)
    dl = lengths[1] - lengths[0]
    lhs = np.sum(np.abs(amps) ** 2) * dl
    rhs = 2.0 * math.pi * np.sum(np.abs(t) ** 2) * dk
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_two_path_peaks_stable_under_grid_doubling():
    l1, l2 = 4.8, 7.3
    res = None
    found = []
    for n_pts in (401, 801):
        k = np.linspace(4.0, 14.0, n_pts)
        t = 0.8 * np.exp(1j * k * l1) + 0.5 * np.exp(1j * k * l2)
        series = make_series(k, t)
        lengths, power = power_spectrum(series, pad_factor=8)
        res = series.resolution
        peaks = peak_positions(
            lengths, power, band=(2.0, 12.0), min_prominence=0.05
        )
        found.append(np.sort(peaks[:2]))
    for positions in found:
        assert abs(positions[0] - l1) <= 0.15 * res
        assert abs(positions[1] - l2) <= 0.15 * res
    # Doubling the sample count must not move the peaks appreciably.
    assert np.max(np.abs(found[0] - found[1])) <= 0.05 * res


def test_power_spectrum_of_zero_signal_is_zero():
    k = np.linspace(6.0, 9.0, 64)
    series = make_series(k, np.zeros((64, 3, 3)))
    _, power = power_spectrum(series)
    assert np.all(power == 0.0)


def test_length_spectrum_rejects_bad_input():
    k = np.linspace(6.0, 9.0, 32)
    series = make_series(k, np.ones(32))
    with pytest.raises(ValueError):
        length_spectrum(series, pad_factor=0)
    ragged = make_series(np.array([6.0, 6.1, 6.3, 6.4]), np.ones(4))
    with pytest.raises(ValueError, match="uniform"):
        length_spectrum(ragged)


def synthetic_sweep(width=1.0):
    """Sweep over k in pi/w units with a known analytic 2x2 t block."""
    grid = np.linspace(2.05, 2.85, 17)
    scale = math.pi / width

    def block(k_piw):
        k = k_piw * scale
        return np.array(
            [
                [np.exp(1j * k), 0.1 + 0.0j],
                [0.1 + 0.0j, np.exp(2j * k)],
            ]
        )

    blocks = tuple(block(val) for val in grid)
    transmission = np.array([np.sum(np.abs(b) ** 2) for b in blocks])
    return SweepResult(
        lead_width=width,
        k=grid,
        transmission=transmission,
        n_open=np.full(grid.size, 2, dtype=np.int64),
        unitarity_defect=np.zeros(grid.size),
        t=np.concatenate([b.ravel() for b in blocks]),
    )


def test_uniform_series_extracts_blocks_and_scales_k():
    width = 0.5
    result = synthetic_sweep(width=width)
    series = uniform_series(result, (2.05, 2.85), n_modes=2)
    assert series.k.shape == (17,)
    np.testing.assert_allclose(series.k, result.k * math.pi / width)
    for i in range(17):
        np.testing.assert_array_equal(series.samples[i], result.t_blocks[i])


def test_uniform_series_validates_window_and_channels():
    result = synthetic_sweep()
    with pytest.raises(ValueError, match="channels open"):
        uniform_series(result, (2.05, 2.85), n_modes=3)
    with pytest.raises(ValueError, match="covers only"):
        uniform_series(result, (2.05, 2.25), n_modes=2)
    with pytest.raises(ValueError, match="empty window"):
        uniform_series(result, (2.85, 2.05), n_modes=2)
    ragged = synthetic_sweep()
    bent = ragged.k.copy()
    bent[5] += 0.01
    bent_result = SweepResult(
        lead_width=ragged.lead_width,
        k=bent,
        transmission=ragged.transmission,
        n_open=ragged.n_open,
        unitarity_defect=ragged.unitarity_defect,
        t=ragged.t,
    )
    with pytest.raises(ValueError, match="not uniform"):
        uniform_series(bent_result, (2.05, 2.85), n_modes=2)


def test_csv_writers_are_deterministic(tmp_path):
    k = np.linspace(6.0, 9.0, 64)
    series = make_series(k, np.exp(1j * k * 3.3))
    lengths, amps = length_spectrum(series, pad_factor=2)
    _, power = power_spectrum(series, pad_factor=2)

    amp_path = tmp_path / "t11.csv"
    write_amplitude_csv(amp_path, lengths, amps[:, 0, 0], ("units: L absolute",))
    pow_path = tmp_path / "power.csv"
    write_power_csv(pow_path, lengths, power, ("units: L absolute",))

    first = amp_path.read_bytes()
    write_amplitude_csv(amp_path, lengths, amps[:, 0, 0], ("units: L absolute",))
    assert amp_path.read_bytes() == first

    text = amp_path.read_text().splitlines()
    assert text[0] == "# units: L absolute"
    assert text[1] == "L,re_t,im_t,abs_t"
    body = np.genfromtxt(
        [l for l in text if not l.startswith("#")], delimiter=",", names=True
    )
    np.testing.assert_allclose(body["abs_t"], np.abs(amps[:, 0, 0]), rtol=1e-10)

    ptext = pow_path.read_text().splitlines()
    assert ptext[1] == "L,P"
    pbody = np.genfromtxt(
        [l for l in ptext if not l.startswith("#")], delimiter=",", names=True
    )
    np.testing.assert_allclose(pbody["P"], power, rtol=1e-10)


def test_peak_search_matches_scipy_find_peaks(reference_sweep):
    from scipy.signal import find_peaks

    signals = []
    for lo, hi, n_modes in ((3.0, 6.0, 3), (6.0, 9.0, 6), (9.0, 12.0, 9), (12.0, 15.0, 12)):
        series = uniform_series(reference_sweep, (lo, hi), n_modes)
        lengths, power = power_spectrum(series, pad_factor=8)
        signals += [power, power[(lengths >= 2.0) & (lengths <= 20.0)]]
    rng = np.random.default_rng(7)
    for i in range(1200):
        x = rng.normal(size=int(rng.integers(1, 300)))
        signals.append(np.round(x, 1) if i % 3 == 0 else x)  # ties and plateaus
    for x in signals:
        for fraction in (0.0, 0.01, 0.1, 0.5):
            threshold = fraction * np.max(x)
            expected, props = find_peaks(x, prominence=threshold)
            found, prominences = _prominent_peaks(x, threshold)
            assert np.array_equal(found, expected)
            assert np.array_equal(prominences, props["prominences"])
