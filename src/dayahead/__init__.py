"""Day-ahead electricity market trading laboratory.

A replay-based simulator for a battery-backed prosumer bidding on a day-ahead
energy market, plus the machinery to optimize bidding strategies against it:
CMA-ES for parametric strategies and an advantage actor-critic trainer for a
neural bidding policy.
"""

from .data import (ConsumptionProfile, DataError, Dataset, ForecastSigmas,
                   SyntheticConfig, generate_synthetic_dataset, load_dataset,
                   make_forecasts, split_dataset, write_dataset)
from .market import (BUY, SELL, DayResult, DecisionContext, EnvConfig, Episode, Schedule,
                     TradingEnv, hourly_production, reference_balance, rolling_price_stats,
                     round_volumes)
from .cmaes import CmaesConfig, CmaesSearch, cmaes_optimize, default_population
from .nets import (MLP, PolicyParams, backward, forward, init_policy,
                   load_policy, orthogonal_init, rmsprop_step, save_policy)
from .strategies import (OpportunisticParams, TimingParams, blackbox_bids,
                         log_density, mean_action, opportunistic_bids,
                         sample_action, timing_bids)
from .training import (A2cConfig, TrainingRun, a2c_train, evaluate_strategy,
                       gae_advantages, optimize_parametric)

__version__ = "0.1.0"
