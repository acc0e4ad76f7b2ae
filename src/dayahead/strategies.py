"""Bidding strategies: parameter vectors in, per-hour bid schedules out.

Three families are implemented:

* a timing strategy that always buys in the four cheapest night hours and
  sells in the four expensive evening hours, trading a total volume that
  shrinks or grows with the projected battery level;
* an opportunistic strategy with per-hour log-scale volume and price offsets
  around the rolling median price and the maximum producible volume;
* the neural black-box strategy, where a 4x24 action matrix (buy/sell log
  volumes and log prices per hour) is decoded into bids; the opportunistic
  strategy builds the same matrix from its coefficients and shares the
  decoder.

Each maps the values of a decision context to a day's bids, laid out like
the action matrix, as a :class:`~dayahead.market.Schedule`: the decoders
round every volume to the market step, so ``step`` does not check it again.
All of them are pure functions of their inputs; exploration noise for the
neural policy is passed in explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .data import DataError, read_json, write_json
from .market import DecisionContext, Schedule, round_volumes
from .nets import PolicyParams, forward

ACTION_ROWS = 4           # buy volume, buy price, sell volume, sell price
ACTION_HOURS = 24
ACTION_CLIP = 3.0

TIMING_BUY_HOURS = (0, 1, 2, 3)
TIMING_SELL_HOURS = (17, 18, 19, 20)
# Sentinel limit prices: +inf always buys, 0 always sells.
TIMING_BUY_PRICES = (math.inf,) * ACTION_HOURS
TIMING_SELL_PRICES = (0.0,) * ACTION_HOURS

LOG2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TimingParams:
    """Volume scale and battery-level sensitivity of the timing strategy [MWh].

    Both coefficients are positive in the intended regime; the bid builder
    clamps any negative volumes that other values would produce, so raw
    optimizer samples are safe to evaluate.
    """

    size: ClassVar[int] = 2

    alpha1: float
    alpha2: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.alpha1, self.alpha2])

    @classmethod
    def from_vector(cls, vec) -> "TimingParams":
        a1, a2 = np.asarray(vec, dtype=float)
        return cls(float(a1), float(a2))

    @classmethod
    def initial_mean(cls, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 1.0, cls.size)  # standard-normal CMA-ES starting mean

    def bids(self, ctx: DecisionContext) -> Schedule:
        return timing_bids(self, ctx.est_midnight)


@dataclass(frozen=True)
class OpportunisticParams:
    """100 coefficients: 4 battery-level couplings plus 4 per-hour offsets.

    With 1-based numbering, alpha_1..alpha_4 couple the projected battery
    level into buy volume, sell volume, buy price and sell price; for each
    hour h, alpha_{4h+5}, alpha_{4h+6} are log-volume offsets and
    alpha_{4h+7}, alpha_{4h+8} log-price offsets.
    """

    size: ClassVar[int] = 100

    alpha: tuple

    def __post_init__(self) -> None:
        if len(self.alpha) != self.size:
            raise ValueError(f"expected {self.size} coefficients, got {len(self.alpha)}")

    def as_vector(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "OpportunisticParams":
        return cls(tuple(float(v) for v in vec))

    @classmethod
    def initial_mean(cls, rng: np.random.Generator) -> np.ndarray:
        """Standard-normal CMA-ES starting mean, with the volume offsets at
        N(-2, 1) so that early samples do not flood the market with huge bids."""
        mean = rng.normal(0.0, 1.0, cls.size)
        mean[cls.volume_offset_indices()] -= 2.0
        return mean

    def bids(self, ctx: DecisionContext) -> Schedule:
        return opportunistic_bids(self, ctx.est_midnight, ctx.vbar, ctx.pbar)

    @cached_property
    def _action_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(4, 24) offsets and (4, 1) level couplings in action-matrix row
        order: buy volume, buy price, sell volume, sell price."""
        alpha = self.as_vector()
        offsets = alpha[ACTION_ROWS:].reshape(ACTION_HOURS, ACTION_ROWS).T
        # alpha_{4h+5..4h+8} are buy volume, sell volume, buy price, sell
        # price, and alpha_1..alpha_4 couple the level into the same four.
        rows = [0, 2, 1, 3]
        return offsets[rows], alpha[rows, None]

    @staticmethod
    def volume_offset_indices() -> np.ndarray:
        """0-based positions of the per-hour log-volume offsets (alpha_{4h+5,6})."""
        return (4 * np.arange(ACTION_HOURS)[:, None] + [4, 5]).ravel()


def timing_bids(params: TimingParams, est_level: float) -> Schedule:
    """Night buys at +inf, evening sells at 0; volumes shifted by battery level.

    The fuller the storage is projected to be at midnight, the less is bought
    and the more is sold.  Sentinel prices guarantee acceptance.
    """
    buy_volume, sell_volume = round_volumes(
        [max(0.0, (params.alpha1 - params.alpha2 * est_level)) / 4.0,
         max(0.0, (params.alpha1 + params.alpha2 * est_level)) / 4.0])
    buys = [0.0] * ACTION_HOURS
    sells = [0.0] * ACTION_HOURS
    for hour in TIMING_BUY_HOURS:
        buys[hour] = buy_volume
    for hour in TIMING_SELL_HOURS:
        sells[hour] = sell_volume
    return Schedule((tuple(buys), TIMING_BUY_PRICES, tuple(sells), TIMING_SELL_PRICES))


def opportunistic_bids(params: OpportunisticParams, est_level: float,
                       vbar: float, pbar: np.ndarray) -> Schedule:
    """Per-hour buy/sell pairs priced around the rolling median.

    The per-hour offsets plus the battery-level couplings form a (4, 24)
    matrix of log-volumes and log-prices, decoded like a black-box action.
    """
    offsets, couplings = params._action_terms
    return blackbox_bids(offsets + couplings * est_level, vbar, pbar)


def blackbox_bids(action: np.ndarray, vbar: float, pbar: np.ndarray) -> Schedule:
    """Decode a (4, 24) action matrix into a schedule of up to 48 bids.

    Rows are buy log-volume, buy log-price, sell log-volume, sell log-price;
    a row value of 3 scales the base volume ``vbar`` or price ``pbar`` by
    e^3, about 20x.  Every strategy with per-hour volumes and prices decodes
    through here.
    """
    action = np.asarray(action, dtype=float)
    if action.shape != (ACTION_ROWS, ACTION_HOURS):
        raise ValueError(f"action must have shape (4, 24), got {action.shape}")
    scaled = np.exp(action)
    scaled[1::2] *= pbar
    buy_volumes, buy_prices, sell_volumes, sell_prices = scaled.tolist()
    return Schedule((tuple(round_volumes(buy_volumes, vbar)), tuple(buy_prices),
                     tuple(round_volumes(sell_volumes, vbar)), tuple(sell_prices)))


def sample_action(policy: PolicyParams, obs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Draw an action from the Gaussian policy given pre-drawn unit noise.

    Returns the clipped (4, 24) action matrix; the clip to [-3, 3] is treated
    as part of the environment side of the interface, and
    :func:`log_density` gives the density of the pre-clip sample.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (policy.input_size,):
        raise ValueError(f"observation length {obs.shape} != policy input {policy.input_size}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (policy.action_size,):
        raise ValueError(f"noise length {xi.shape} != action size {policy.action_size}")
    return _clip_action(forward(policy.actor, obs) + xi * np.exp(policy.log_std))


def log_density(log_std: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """log N(mean + sigma * xi; mean, sigma^2) of the diagonal Gaussian
    policy, summed over the last axis of ``xi`` (..., 96) noise draws."""
    return np.sum(-log_std - 0.5 * LOG2PI - 0.5 * xi ** 2, axis=-1)


def mean_action(policy: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """Deterministic (noise-free) action used for validation and deployment."""
    return _clip_action(forward(policy.actor, np.asarray(obs, dtype=float)))


def _clip_action(raw: np.ndarray) -> np.ndarray:
    """Clip to [-3, 3] and reshape to (4, 24); np.minimum/np.maximum do what
    np.clip does at half its cost on one action vector."""
    clipped = np.minimum(np.maximum(raw, -ACTION_CLIP), ACTION_CLIP)
    return clipped.reshape(ACTION_ROWS, ACTION_HOURS)


# ---------------------------------------------------------------------------
# Strategy kinds and parameter (de)serialization
# ---------------------------------------------------------------------------

TIMING = "timing"
OPPORTUNISTIC = "opportunistic"

# The one table of parametric kinds.  Each params class knows its vector
# size, its CMA-ES starting mean and how it bids from a decision context.
PARAMETRIC_KINDS = {TIMING: TimingParams, OPPORTUNISTIC: OpportunisticParams}
# What a params.json holds.
PARAMS_SCHEMA = {"strategy_kind": tuple(PARAMETRIC_KINDS), "alpha": [float]}


def params_class(kind: str):
    """The params class of a parametric strategy kind."""
    try:
        return PARAMETRIC_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown parametric strategy kind {kind!r}") from None


def save_strategy_params(path, kind: str, params) -> None:
    """JSON document of the coefficients ``alpha`` under a ``strategy_kind``
    discriminator."""
    params_class(kind)  # rejects unknown kinds
    write_json(path, {"strategy_kind": kind, "alpha": list(map(float, params.as_vector()))})


def load_strategy_params(path):
    """Returns (kind, params) from a :func:`save_strategy_params` document;
    a file that does not hold :data:`PARAMS_SCHEMA`, or whose ``alpha`` is
    not as long as its kind's vector, raises a DataError naming the file and
    the key."""
    document = read_json(path, PARAMS_SCHEMA)
    kind, alpha = document["strategy_kind"], document["alpha"]
    if len(alpha) != PARAMETRIC_KINDS[kind].size:
        raise DataError(f"{path} holds no alpha (a list of {PARAMETRIC_KINDS[kind].size} "
                        f"finite numbers for {kind})")
    return kind, PARAMETRIC_KINDS[kind].from_vector(alpha)
