import math

import numpy as np
import pytest

from latgauss.codec import (
    channel_params,
    codec_config,
    coords_differ,
    draw_dithers,
    mod_interval,
    transmit_batch,
)
from latgauss.errors import DimensionMismatch, InvalidParams, NonPositive, NotNested
from latgauss.lattices import scale_lattice, standard_lattice
from latgauss.montecarlo import run_trials
from latgauss.rng import RngStream
from latgauss.sampling import sample_normal

Z = standard_lattice("Z")
UNIT = channel_params(1.0, 1.0)


def test_channel_params_mmse_values():
    assert UNIT.alpha == pytest.approx(0.5)
    assert UNIT.sigma_eff2 == pytest.approx(0.5)
    assert UNIT.snr == pytest.approx(1.0)
    p = channel_params(1.0, 4.0)
    assert p.snr == pytest.approx(0.25)
    assert p.alpha == pytest.approx(0.2)
    assert p.sigma_eff2 == pytest.approx(0.8)
    assert p.sigma_eff == pytest.approx(math.sqrt(0.8))
    assert p.sigma_s == 1.0 and p.sigma_w == 2.0


def test_channel_params_rejects_nonpositive():
    with pytest.raises(NonPositive):
        channel_params(0.0, 1.0)
    with pytest.raises(NonPositive):
        channel_params(1.0, -2.0)


def test_codec_config_validation():
    with pytest.raises(NonPositive):
        codec_config(Z, 0.0, UNIT)
    with pytest.raises(InvalidParams):
        codec_config(Z, 1.0, UNIT, dither="maybe")
    with pytest.raises(InvalidParams):
        codec_config(Z, 1.0, UNIT, peak="clip")
    with pytest.raises(InvalidParams):
        codec_config(Z, 1.0, UNIT, dither="discrete")
    # fine lattice must contain the scaled coding lattice
    with pytest.raises(NotNested):
        codec_config(Z, 1.0, UNIT, dither="discrete", dither_fine=scale_lattice(Z, 2.0))
    with pytest.raises(NonPositive):
        codec_config(Z, 1.0, UNIT, peak="zeroize")
    with pytest.raises(NonPositive):
        codec_config(Z, 1.0, UNIT, peak="modb")
    # B*Z^n must sit inside the scaled lattice: 1.5Z is not inside Z
    with pytest.raises(NotNested):
        codec_config(Z, 1.0, UNIT, peak="modb", mod_b=1.5)


def test_modb_coords_matrix():
    cfg = codec_config(Z, 1.0, UNIT, peak="modb", mod_b=3.0)
    np.testing.assert_array_equal(cfg.modb_coords, [[3]])
    cfg_off = codec_config(Z, 1.0, UNIT)
    assert cfg_off.modb_coords is None


def test_decode_takes_dither_then_observation():
    cfg = codec_config(Z, 1.0, UNIT)
    # x = 2 is sent, w = 0.2 makes y = 2.2, and alpha*y = 1.1 rounds to 1
    got = transmit_batch(cfg, [[0.0]], [[2.0]], [[2]], [[0.2]])
    np.testing.assert_allclose(got.y, [[2.2]])
    np.testing.assert_array_equal(got.coords_hat, [[1]])
    np.testing.assert_array_equal(got.err, [True])
    # every argument must be (m, n)
    with pytest.raises(DimensionMismatch):
        transmit_batch(cfg, np.zeros((1, 2)), [[2.0]], [[2]], [[0.2]])
    with pytest.raises(DimensionMismatch):
        transmit_batch(cfg, [[0.0]], [[2.0]], [[2]], np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        transmit_batch(cfg, [[0.0]], [[2.0], [1.0]], [[2]], [[0.2]])
    with pytest.raises(DimensionMismatch):
        transmit_batch(cfg, np.zeros(1), np.zeros(1), np.zeros(1, int), np.zeros(1))


def test_decode_shifts_by_the_dither():
    cfg = codec_config(Z, 1.0, UNIT)
    # y = 2.6 with t = 0.3: alpha*y - t = 1.0, so the decoded point is t + 1
    got = transmit_batch(cfg, [[0.3]], [[2.3]], [[2]], [[0.3]])
    np.testing.assert_array_equal(got.coords_hat, [[1]])
    # the same y with t = 0.9: alpha*y - t = 0.4 decodes to t + 0
    got = transmit_batch(cfg, [[0.9]], [[2.9]], [[2]], [[-0.3]])
    np.testing.assert_allclose(got.y, [[2.6]])
    np.testing.assert_array_equal(got.coords_hat, [[0]])


def test_mod_interval_half_open():
    assert mod_interval(1.6, 3.0) == pytest.approx(-1.4)
    assert mod_interval(-1.5, 3.0) == -1.5
    assert mod_interval(1.5, 3.0) == -1.5
    np.testing.assert_allclose(mod_interval(np.array([0.2, -0.2]), 3.0), [0.2, -0.2])


def test_near_noiseless_channel_decodes_exactly():
    # with sigma_w^2 = 1e-12 the MMSE scaling is essentially the identity
    # and every trial must recover the sent coordinates
    cfg = codec_config(Z, 1.0, channel_params(1.0, 1e-12))
    t = draw_dithers(cfg, RngStream(100), 50)
    res = run_trials(cfg, t, RngStream(101))
    assert res["errors"] == 0
    assert not res["err"].any()


def test_zeroize_trips_and_counts_as_error():
    cfg = codec_config(Z, 1.0, UNIT, peak="zeroize", peak_budget=1e-8)
    t = np.array([[0.25], [-0.1]])
    # x = t + 2 carries power > 1e-8, so both rows trip and count as errors
    got = transmit_batch(cfg, t, t + 2.0, [[2], [2]], np.zeros((2, 1)))
    np.testing.assert_array_equal(got.failure, [True, True])
    assert np.all(got.x_sent == 0.0)
    np.testing.assert_array_equal(got.err, [True, True])
    # continuous dithers keep every signal off zero, so every row trips
    t = draw_dithers(cfg, RngStream(7), 20)
    res = run_trials(cfg, t, RngStream(8))
    assert res["failures"] == res["errors"] == 20
    assert res["avg_power"] == 0.0
    # a huge budget never trips
    roomy = codec_config(Z, 1.0, UNIT, peak="zeroize", peak_budget=1e6)
    assert run_trials(roomy, t, RngStream(8))["failures"] == 0


def test_coords_differ_modulo_b():
    cfg = codec_config(Z, 1.0, UNIT, peak="modb", mod_b=3.0)
    assert not coords_differ(cfg, np.array([3]))
    assert coords_differ(cfg, np.array([1]))
    np.testing.assert_array_equal(
        coords_differ(cfg, np.array([[3], [1], [0], [-6]])),
        [False, True, False, False],
    )
    plain = codec_config(Z, 1.0, UNIT)
    assert plain.modb_coords is None
    assert coords_differ(plain, np.array([1]))
    assert not coords_differ(plain, np.array([0]))


def test_draw_dithers_none_is_zeros():
    cfg = codec_config(standard_lattice("D4"), 1.0, UNIT, dither="none")
    np.testing.assert_array_equal(draw_dithers(cfg, RngStream(5), 7), np.zeros((7, 4)))


def test_draw_dithers_cont_is_sample_normal():
    cfg = codec_config(standard_lattice("D4"), 1.0, channel_params(2.0, 1.0))
    t = draw_dithers(cfg, RngStream(31), 50)
    np.testing.assert_array_equal(t, sample_normal(cfg.params.sigma_s, 4, RngStream(31), trials=50))
    np.testing.assert_array_equal(t, draw_dithers(cfg, RngStream(31), 50))


def test_draw_dithers_discrete_rows_in_coarse_cell():
    cfg = codec_config(Z, 2.0, UNIT, dither="discrete", dither_fine=Z)
    t = draw_dithers(cfg, RngStream(5), 200)
    assert t.shape == (200, 1)
    # rows are fine-lattice points reduced into the cell [-1, 1] of 2Z
    assert np.all(np.abs(t) <= 1.0)
    np.testing.assert_array_equal(t, np.rint(t))
    assert set(np.unique(t)) == {-1.0, 0.0, 1.0}
