import math

import numpy as np
import pytest

from latgauss.codec import (
    channel_params,
    codec_config,
    coords_differ,
    decode,
    draw_dither,
    encode,
    is_error,
    mod_interval,
    suggest_mod_b,
    transmission_trial,
    transmit,
)
from latgauss.errors import DimensionMismatch, InvalidParams, NonPositive, NotNested
from latgauss.lattices import scale_lattice, standard_lattice
from latgauss.rng import RngStream
from latgauss.sampling import discrete_gaussian, sample_discrete_gaussian

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
    got = decode(cfg, np.zeros(1), np.array([2.2]))
    # alpha*y = 1.1 rounds to the lattice point 1
    assert got.x[0] == 1.0
    assert got.coords[0] == 1
    with pytest.raises(DimensionMismatch):
        decode(cfg, np.zeros(2), np.array([2.2]))
    with pytest.raises(DimensionMismatch):
        decode(cfg, np.zeros(1), np.zeros(3))


def test_decode_shifts_by_the_dither():
    cfg = codec_config(Z, 1.0, UNIT)
    t = np.array([0.3])
    got = decode(cfg, t, np.array([2.0 * 1.3]))
    # alpha*y - t = 1.0, so the decoded point is t + 1
    assert got.x[0] == pytest.approx(1.3)
    assert got.coords[0] == 1


def test_mod_interval_half_open():
    assert mod_interval(1.6, 3.0) == pytest.approx(-1.4)
    assert mod_interval(-1.5, 3.0) == -1.5
    assert mod_interval(1.5, 3.0) == -1.5
    np.testing.assert_allclose(mod_interval(np.array([0.2, -0.2]), 3.0), [0.2, -0.2])


def test_suggest_mod_b_value_and_guard():
    assert suggest_mod_b(1.0, 8, 0.01) == pytest.approx(
        math.sqrt(2 * math.log(1600.0)), rel=1e-14
    )
    assert suggest_mod_b(1.0, 8, 0.01) == pytest.approx(3.841291165279683, rel=1e-12)
    with pytest.raises(InvalidParams):
        suggest_mod_b(1.0, 8, 0.0)


def test_near_noiseless_channel_decodes_exactly():
    # with sigma_w^2 = 1e-12 the MMSE scaling is essentially the identity
    # and every trial must recover the sent coordinates
    cfg = codec_config(Z, 1.0, channel_params(1.0, 1e-12))
    for i in range(50):
        rng = RngStream(100 + i)
        enc = encode(cfg, rng)
        y = transmit(cfg, enc.x, rng.child(2))
        dec = decode(cfg, enc.t, y)
        assert np.array_equal(dec.coords, enc.coords)
        assert not is_error(cfg, enc, dec)


def test_zeroize_trips_and_counts_as_error():
    cfg = codec_config(Z, 1.0, UNIT, peak="zeroize", peak_budget=1e-8)
    enc = encode(cfg, RngStream(7))
    assert enc.failure
    assert np.all(enc.x == 0.0)
    dec = decode(cfg, enc.t, transmit(cfg, enc.x, RngStream(7).child(2)))
    assert is_error(cfg, enc, dec)
    # a huge budget never trips
    roomy = codec_config(Z, 1.0, UNIT, peak="zeroize", peak_budget=1e6)
    assert not encode(roomy, RngStream(7)).failure


def test_encoded_coords_rebuild_the_signal():
    cfg = codec_config(Z, 1.0, UNIT)
    enc = encode(cfg, RngStream(9))
    np.testing.assert_allclose(
        enc.x, enc.t + cfg.scaled.embed(enc.coords), atol=1e-12
    )


def test_encode_draws_like_sample_discrete_gaussian():
    # the signal is the inverse-CDF draw of the dithered coset's spec on
    # stream child 1
    cfg = codec_config(standard_lattice("D4"), 1.5, UNIT)
    for seed in range(5):
        rng = RngStream(seed)
        enc = encode(cfg, rng)
        t = draw_dither(cfg, rng.child(0))
        spec = discrete_gaussian(cfg.scaled, t, UNIT.sigma_s)
        np.testing.assert_array_equal(enc.t, t)
        np.testing.assert_array_equal(enc.x, sample_discrete_gaussian(spec, rng.child(1)))


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


def test_transmission_trial_contract():
    cfg = codec_config(Z, 2.0, UNIT, dither="discrete", dither_fine=Z)
    tr = transmission_trial(cfg, RngStream(5))
    assert set(tr) == {"t", "x", "w", "y", "x_hat", "error", "power"}
    assert isinstance(tr["error"], bool)
    assert tr["power"] == pytest.approx(float(tr["x"] @ tr["x"]) / 1)
    np.testing.assert_allclose(tr["y"], tr["x"] + tr["w"], atol=1e-15)
    # discrete dither lands in the coarse cell
    assert abs(tr["t"][0]) <= 1.0


def test_trial_is_reproducible():
    cfg = codec_config(Z, 1.0, UNIT)
    a = transmission_trial(cfg, RngStream(31))
    b = transmission_trial(cfg, RngStream(31))
    np.testing.assert_array_equal(a["y"], b["y"])
    assert a["error"] == b["error"]
