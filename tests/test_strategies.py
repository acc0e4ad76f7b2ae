import math
from collections import namedtuple

import numpy as np
import pytest

from dayahead.market import BUY, SELL, schedule_slots
from dayahead.nets import init_policy
from dayahead.strategies import (OpportunisticParams, TimingParams,
                                 blackbox_bids, load_strategy_params,
                                 log_density, mean_action, opportunistic_bids,
                                 sample_action, save_strategy_params,
                                 timing_bids)


Slot = namedtuple("Slot", "hour side volume price")


def slots(schedule):
    """The bids of a schedule, in ``bids.csv`` order, with named fields."""
    return [Slot(*slot) for slot in schedule_slots(schedule)]


def by_hour(schedule, side):
    return {b.hour: b for b in slots(schedule) if b.side == side}


# ---------------------------------------------------------------------------
# Timing strategy
# ---------------------------------------------------------------------------

def test_timing_volumes_and_prices():
    bids = timing_bids(TimingParams(1.0, 0.2), est_level=0.5)
    buys = by_hour(bids, BUY)
    sells = by_hour(bids, SELL)
    assert sorted(buys) == [0, 1, 2, 3]
    assert sorted(sells) == [17, 18, 19, 20]
    # (1.0 - 0.2*0.5)/4 = 0.225 -> 0.2;  (1.0 + 0.2*0.5)/4 = 0.275 -> 0.3
    assert all(b.volume == pytest.approx(0.2) for b in buys.values())
    assert all(b.volume == pytest.approx(0.3) for b in sells.values())
    assert all(math.isinf(b.price) for b in buys.values())
    assert all(b.price == 0.0 for b in sells.values())


def test_timing_empty_battery_symmetric_volumes():
    bids = slots(timing_bids(TimingParams(1.0, 0.7), est_level=0.0))
    assert len(bids) == 8
    for b in bids:
        assert b.volume == pytest.approx(0.3)  # rnd(1.0/4), tie away from zero


def test_timing_negative_buy_volume_clamps_to_no_bid():
    bids = timing_bids(TimingParams(0.1, 0.8), est_level=1.0)
    assert not by_hour(bids, BUY)
    # the sell side still trades: (0.1 + 0.8)/4 = 0.225 -> 0.2
    sells = by_hour(bids, SELL)
    assert sorted(sells) == [17, 18, 19, 20]
    assert all(b.volume == pytest.approx(0.2) for b in sells.values())


# ---------------------------------------------------------------------------
# Opportunistic strategy
# ---------------------------------------------------------------------------

def test_opportunistic_all_zero_coefficients():
    params = OpportunisticParams.from_vector(np.zeros(100))
    pbar = np.full(24, 250.0)
    bids = slots(opportunistic_bids(params, est_level=0.0, vbar=0.13, pbar=pbar))
    assert len(bids) == 48
    assert all(b.volume == pytest.approx(0.1) for b in bids)  # rnd(0.13)
    assert all(b.price == pytest.approx(250.0) for b in bids)


def test_opportunistic_shifted_volume_offsets_suppress_bids():
    """Volume offsets at -2 push rnd(0.13 e^-2) = rnd(0.0176) to zero."""
    vec = np.zeros(100)
    vec[OpportunisticParams.volume_offset_indices()] = -2.0
    params = OpportunisticParams.from_vector(vec)
    bids = slots(opportunistic_bids(params, 0.0, 0.13, np.full(24, 250.0)))
    assert bids == []


def test_opportunistic_price_scales_with_pbar():
    rng = np.random.default_rng(4)
    params = OpportunisticParams.from_vector(rng.normal(0, 1, 100))
    pbar = np.linspace(100.0, 400.0, 24)
    est = 0.37
    base = slots(opportunistic_bids(params, est, 0.13, pbar))
    doubled = slots(opportunistic_bids(params, est, 0.13, 2.0 * pbar))
    assert len(base) == len(doubled)
    for a, b in zip(base, doubled):
        assert b.price == pytest.approx(2.0 * a.price)
        assert b.volume == a.volume
        assert (b.side, b.hour) == (a.side, a.hour)


def test_opportunistic_level_couplings_use_global_alphas():
    vec = np.zeros(100)
    vec[0] = 1.0   # alpha_1: buy volume coupling
    vec[2] = -0.5  # alpha_3: buy price coupling
    params = OpportunisticParams.from_vector(vec)
    pbar = np.full(24, 200.0)
    bids = by_hour(opportunistic_bids(params, est_level=1.0, vbar=0.13, pbar=pbar), BUY)
    # volume rnd(0.13 e^1) = rnd(0.353) = 0.4, price 200 e^-0.5
    assert bids[0].volume == pytest.approx(0.4)
    assert bids[0].price == pytest.approx(200.0 * math.exp(-0.5))


def test_opportunistic_requires_100_values():
    with pytest.raises(ValueError, match="100"):
        OpportunisticParams.from_vector(np.zeros(99))


# ---------------------------------------------------------------------------
# Black-box bid transform
# ---------------------------------------------------------------------------

def test_blackbox_identity_action():
    pbar = np.linspace(150.0, 380.0, 24)
    bids = slots(blackbox_bids(np.zeros((4, 24)), 0.13, pbar))
    assert len(bids) == 48
    for b in bids:
        assert b.volume == pytest.approx(0.1)
        assert b.price == pytest.approx(pbar[b.hour])


def test_blackbox_extreme_volume_scaling():
    action = np.zeros((4, 24))
    action[0, :] = 3.0  # buy volumes at e^3, about 20x
    bids = by_hour(blackbox_bids(action, 0.13, np.full(24, 250.0)), BUY)
    assert bids[0].volume == pytest.approx(2.6)  # rnd(0.13 e^3) = rnd(2.611)


def test_blackbox_near_guaranteed_sell():
    action = np.zeros((4, 24))
    action[3, :] = -3.0
    bids = by_hour(blackbox_bids(action, 0.13, np.full(24, 300.0)), SELL)
    assert bids[5].price == pytest.approx(300.0 * math.exp(-3.0))
    assert bids[5].price == pytest.approx(14.936, abs=1e-3)


def test_blackbox_scale_equivariance_in_pbar():
    rng = np.random.default_rng(0)
    action = rng.uniform(-3, 3, (4, 24))
    pbar = rng.uniform(100, 400, 24)
    base = slots(blackbox_bids(action, 0.13, pbar))
    scaled = slots(blackbox_bids(action, 0.13, 3.0 * pbar))
    for a, b in zip(base, scaled):
        assert b.price == pytest.approx(3.0 * a.price)
        assert b.volume == a.volume


def test_blackbox_volumes_are_market_compliant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        action = rng.uniform(-3, 3, (4, 24))
        for b in slots(blackbox_bids(action, 0.13, rng.uniform(50, 500, 24))):
            assert b.volume >= 0.1 - 1e-12
            assert abs(b.volume * 10 - round(b.volume * 10)) < 1e-9
            assert b.price > 0


def reference_round_volume(volume):
    """The scalar rounding rule the row rounding inlines."""
    if volume < 0.05:
        return 0.0
    try:
        return math.floor(volume * 10.0 + 0.5) / 10.0
    except OverflowError:
        return math.inf


def test_blackbox_schedule_matches_per_bid_decoding():
    """The schedule rows equal a per-hour decode: each volume by the scalar
    rule, each price as pbar times e^action, including volumes that round
    to 0 or overflow to inf."""
    rng = np.random.default_rng(5)
    pbar = rng.uniform(50, 500, 24)
    for _ in range(200):
        action = rng.uniform(-4, 4, (4, 24))
        action[rng.random((4, 24)) < 0.05] = 800.0  # e^800 overflows
        with np.errstate(over="ignore"):
            rows = blackbox_bids(action, 0.13, pbar)
            scaled = np.exp(action)
        want = [[reference_round_volume(0.13 * float(v)) for v in scaled[0]],
                [float(p) * float(v) for p, v in zip(pbar, scaled[1])],
                [reference_round_volume(0.13 * float(v)) for v in scaled[2]],
                [float(p) * float(v) for p, v in zip(pbar, scaled[3])]]
        assert rows == want


def test_blackbox_rejects_bad_shape():
    with pytest.raises(ValueError, match="4, 24"):
        blackbox_bids(np.zeros((4, 23)), 0.13, np.full(24, 100.0))


# ---------------------------------------------------------------------------
# Gaussian action sampling
# ---------------------------------------------------------------------------

def test_zero_noise_returns_mean_action():
    policy = init_policy(10, hidden_size=8, action_size=96, seed=3)
    obs = np.random.default_rng(0).normal(0, 1, 10)
    action = sample_action(policy, obs, np.zeros(96))
    np.testing.assert_allclose(action, mean_action(policy, obs))


def test_initial_log_std_gives_exploration_scale():
    policy = init_policy(10, hidden_size=8, seed=3, log_std_init=-1.0)
    np.testing.assert_allclose(np.exp(policy.log_std), math.exp(-1.0))


def test_log_probability_at_mean():
    policy = init_policy(10, hidden_size=8, seed=3)
    log_prob = log_density(policy.log_std, np.zeros(96))
    expected = float(np.sum(-policy.log_std - 0.5 * math.log(2 * math.pi)))
    assert log_prob == pytest.approx(expected, abs=1e-12)


def test_log_probability_of_noise_draw():
    """Density of mean + sigma*xi under N(mean, sigma^2), computed directly."""
    policy = init_policy(6, hidden_size=8, seed=1)
    rng = np.random.default_rng(7)
    policy.log_std[:] = rng.uniform(-1.5, 0.5, 96)
    xi = rng.normal(0, 1, 96)
    log_prob = log_density(policy.log_std, xi)
    sigma = np.exp(policy.log_std)
    expected = np.sum(-np.log(sigma * math.sqrt(2 * math.pi)) - 0.5 * xi ** 2)
    assert log_prob == pytest.approx(float(expected), abs=1e-10)


def test_sampled_action_is_clipped():
    policy = init_policy(6, hidden_size=8, seed=1)
    action = sample_action(policy, np.zeros(6), np.full(96, 40.0))
    assert np.all(action <= 3.0)
    action = sample_action(policy, np.zeros(6), np.full(96, -40.0))
    assert np.all(action >= -3.0)


def test_sample_action_checks_dimensions():
    policy = init_policy(6, hidden_size=8, seed=1)
    with pytest.raises(ValueError, match="observation"):
        sample_action(policy, np.zeros(5), np.zeros(96))
    with pytest.raises(ValueError, match="noise"):
        sample_action(policy, np.zeros(6), np.zeros(95))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_strategy_params_round_trip(tmp_path):
    timing = TimingParams(1.25, 0.4)
    path = tmp_path / "timing.json"
    save_strategy_params(path, "timing", timing)
    kind, loaded = load_strategy_params(path)
    assert kind == "timing" and loaded == timing

    opp = OpportunisticParams.from_vector(np.random.default_rng(2).normal(0, 1, 100))
    path = tmp_path / "opp.json"
    save_strategy_params(path, "opportunistic", opp)
    kind, loaded = load_strategy_params(path)
    assert kind == "opportunistic"
    np.testing.assert_array_equal(loaded.as_vector(), opp.as_vector())

    path = tmp_path / "bb.json"
    save_strategy_params(path, "blackbox", "policy.npz")
    kind, loaded = load_strategy_params(path)
    assert kind == "blackbox" and loaded == "policy.npz"
