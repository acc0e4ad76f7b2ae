"""Covariance matrix adaptation evolution strategy (maximizing variant).

A from-scratch numpy implementation with the standard parameter settings:
positive recombination weights over the better half of the population,
cumulative step-size adaptation, and rank-one plus rank-mu covariance
updates.  The search loop is deliberately plain -- sample, rank, update --
so a run is a pure function of the seed, the initial point, and the
objective's ranking of candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def default_population(dimension: int) -> int:
    """The usual automatic population size, 4 + floor(3 ln n)."""
    return 4 + int(3 * math.log(dimension))


@dataclass
class CmaesConfig:
    population: int | None = None   # None -> automatic
    sigma0: float = 1.0
    generations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.sigma0 < math.inf:  # rejects NaN
            raise ValueError(f"initial sigma must be positive and finite, got {self.sigma0}")
        if self.population is not None and self.population < 4:
            raise ValueError("population must be at least 4")
        if self.generations < 1:
            raise ValueError(f"generations must be at least 1, got {self.generations}")


@dataclass
class GenerationRecord:
    generation: int
    best_objective: float
    median_objective: float
    sigma: float


@dataclass
class CmaesHistory:
    records: list[GenerationRecord] = field(default_factory=list)

    @property
    def best_objective(self) -> float:
        return max(r.best_objective for r in self.records)


def cmaes_optimize(objective, x0: np.ndarray, config: CmaesConfig | None = None
                   ) -> tuple[np.ndarray, CmaesHistory]:
    """Maximize ``objective`` over R^n starting from mean ``x0``.

    Runs the configured number of generations and returns the final
    distribution mean (the point a trained strategy actually uses) together
    with a per-generation history.  Candidates with non-finite objective
    values are ranked worst; a generation without a finite one has no
    ranking to follow, and raises a FloatingPointError.
    """
    config = config or CmaesConfig()
    mean = np.array(x0, dtype=float)
    n = mean.shape[0]
    lam = config.population or default_population(n)
    mu = lam // 2
    weights = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mueff = 1.0 / np.sum(weights ** 2)

    cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    cs = (mueff + 2) / (n + mueff + 5)
    c1 = 2 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    damps = 1 + 2 * max(0.0, math.sqrt((mueff - 1) / (n + 1)) - 1) + cs
    chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n ** 2))

    rng = np.random.default_rng(config.seed)
    sigma = config.sigma0
    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)
    history = CmaesHistory()

    for gen in range(config.generations):
        # Sample lam candidates from N(mean, sigma^2 C).
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        sqrt_scale = eigvecs * np.sqrt(eigvals)          # B diag(sqrt(d))
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        z = rng.standard_normal((lam, n))
        candidates = mean + sigma * z @ sqrt_scale.T

        values = np.empty(lam)
        for k in range(lam):
            v = objective(candidates[k])
            values[k] = v if math.isfinite(v) else -math.inf
        finite = values[np.isfinite(values)]
        if not finite.size:
            raise FloatingPointError(f"generation {gen + 1}: no candidate has a finite "
                                     "objective; the search diverged")
        order = np.argsort(-values, kind="stable")

        selected = candidates[order[:mu]]
        new_mean = weights @ selected
        y_w = (new_mean - mean) / sigma

        ps = (1 - cs) * ps + math.sqrt(cs * (2 - cs) * mueff) * (inv_sqrt @ y_w)
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1 - (1 - cs) ** (2 * (gen + 1))) / chi_n < 1.4 + 2 / (n + 1)
        pc = (1 - cc) * pc + hsig * math.sqrt(cc * (2 - cc) * mueff) * y_w

        deviations = (selected - mean) / sigma
        cov = (
            (1 - c1 - cmu) * cov
            + c1 * (np.outer(pc, pc) + (1 - hsig) * cc * (2 - cc) * cov)
            + cmu * deviations.T @ (weights[:, None] * deviations)
        )
        cov = (cov + cov.T) / 2.0
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1))
        mean = new_mean

        history.records.append(GenerationRecord(
            generation=gen,
            best_objective=float(values.max()),
            median_objective=float(np.median(finite)),
            sigma=sigma,
        ))
    return mean, history
