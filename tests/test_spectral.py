import math

import numpy as np
import pytest

from afclink.spectral import (
    eom_sideband_offsets,
    merge_offsets,
    tpc_mode_offsets,
)


def test_tpc_single_mode():
    assert list(tpc_mode_offsets(1, 117.2e6)) == [0.0]


def test_tpc_25_modes_span():
    offs = tpc_mode_offsets(25, 117.2e6)
    assert len(offs) == 25
    assert offs[0] == pytest.approx(-1406.4e6)
    assert offs[-1] == pytest.approx(1406.4e6)
    assert np.allclose(np.diff(offs), 117.2e6)


def test_tpc_five_modes():
    offs = tpc_mode_offsets(5, 117.2e6)
    assert np.allclose(offs, [-234.4e6, -117.2e6, 0.0, 117.2e6, 234.4e6])


def test_tpc_even_mode_count_rejected():
    with pytest.raises(ValueError):
        tpc_mode_offsets(4, 117.2e6)


def _brute_force_sidebands(f1, f2, m, tol=1.0):
    vals = sorted(i * f1 + j * f2 for i in range(-m, m + 1) for j in range(-m, m + 1))
    out = []
    for v in vals:
        if not out or v - out[-1] >= tol:
            out.append(v)
    return np.array(out)


def test_eom_carrier_only():
    assert list(eom_sideband_offsets(1e6, 2e6, 0)) == [0.0]


def test_eom_25_mode_plan_matches_source_comb():
    s = eom_sideband_offsets(117.2e6, 586.0e6, 2)
    assert len(s) == 25
    # collisions merge onto the k * fsr ladder for k = -12..12, exactly once each
    assert np.array_equal(s, tpc_mode_offsets(25, 117.2e6))


def test_eom_collisions_merge():
    s = eom_sideband_offsets(100e6, 200e6, 1)
    assert len(s) == 7
    assert np.allclose(s, [-300e6, -200e6, -100e6, 0.0, 100e6, 200e6, 300e6])


def test_eom_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f1 = rng.uniform(10e6, 500e6)
        f2 = rng.uniform(10e6, 2e9)
        m = int(rng.integers(0, 4))
        got = eom_sideband_offsets(f1, f2, m)
        want = _brute_force_sidebands(f1, f2, m)
        assert len(got) == len(want)
        assert np.allclose(got, want, atol=1.5)


def test_eom_symmetry_under_negation():
    s = eom_sideband_offsets(117.2e6, 586.0e6, 2)
    assert np.allclose(s, -s[::-1], atol=1e-6)


def test_eom_count_bound_and_no_collision_case():
    # golden-ratio spacing: no integer collisions, so the count saturates
    f1 = 100e6
    f2 = f1 * (1 + math.sqrt(5)) / 2
    for m in (1, 2, 3):
        s = eom_sideband_offsets(f1, f2, m)
        assert len(s) == (2 * m + 1) ** 2
    # harmonic spacing collides and must fall short of the bound
    assert len(eom_sideband_offsets(f1, 2 * f1, 1)) < 9


def test_merge_offsets_tolerance():
    got = merge_offsets([0.0, 0.4, 10.0, 10.9, 25.0])
    assert np.allclose(got, [0.0, 10.0, 25.0])
