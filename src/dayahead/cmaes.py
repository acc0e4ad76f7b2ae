"""Covariance matrix adaptation evolution strategy (maximizing variant).

A from-scratch numpy implementation with the standard parameter settings:
positive recombination weights over the better half of the population,
cumulative step-size adaptation, and rank-one plus rank-mu covariance
updates.  A run is a :class:`CmaesSearch` driven by ask and tell: ``ask``
samples a generation's candidates, the caller scores them, and ``tell``
ranks the scores and updates the distribution, so a run is a pure function
of the seed, the initial point, and the objective's ranking of candidates.
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
    population: int | None = field(default=None,  # None -> automatic
                                   metadata={"key": "population_size"})
    sigma0: float = field(default=1.0, metadata={"key": "initial_sigma"})
    generations: int = 100
    seed: int = field(default=0, metadata={"key": None})  # the run seed

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


class CmaesSearch:
    """One CMA-ES run from mean ``x0`` as ask and tell: :meth:`ask` samples a
    generation's candidates, :meth:`tell` ranks their objective values and
    updates the distribution.  The strategy constants are set once, here."""

    def __init__(self, x0: np.ndarray, config: CmaesConfig | None = None):
        self.config = config = config or CmaesConfig()
        self.mean = np.array(x0, dtype=float)
        self.n = n = self.mean.shape[0]
        self.lam = lam = config.population or default_population(n)
        self.mu = mu = lam // 2
        weights = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
        self.weights = weights / weights.sum()
        self.mueff = mueff = 1.0 / np.sum(self.weights ** 2)

        self.cc = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
        self.cs = cs = (mueff + 2) / (n + mueff + 5)
        self.c1 = c1 = 2 / ((n + 1.3) ** 2 + mueff)
        self.cmu = min(1 - c1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
        self.damps = 1 + 2 * max(0.0, math.sqrt((mueff - 1) / (n + 1)) - 1) + cs
        self.chi_n = math.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n ** 2))

        self.rng = np.random.default_rng(config.seed)
        self.sigma = config.sigma0
        self.cov = np.eye(n)
        self.ps = np.zeros(n)
        self.pc = np.zeros(n)
        self.generation = 0  # generations told so far
        self._asked = None  # the last ask's candidates and C^(-1/2), until told

    def ask(self) -> np.ndarray:
        """The ``(lam, n)`` candidates of the next generation, drawn from
        N(mean, sigma^2 C); :meth:`tell` ranks these rows."""
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        eigvals = np.maximum(eigvals, 1e-20)
        sqrt_scale = eigvecs * np.sqrt(eigvals)          # B diag(sqrt(d))
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        z = self.rng.standard_normal((self.lam, self.n))
        candidates = self.mean + self.sigma * z @ sqrt_scale.T
        self._asked = candidates, inv_sqrt
        return candidates

    def tell(self, values) -> GenerationRecord:
        """Rank ``values``, the objective of each row of the last :meth:`ask`
        in row order, update the distribution and return the generation's
        record.  Non-finite values rank worst; a generation without a finite
        one has no ranking to follow and raises a FloatingPointError.  Every
        refusal leaves the state as it was."""
        if self._asked is None:
            raise RuntimeError("tell ranks the candidates of an ask; there is none to rank")
        candidates, inv_sqrt = self._asked
        values = np.array(values, dtype=float)
        if values.shape != (self.lam,):
            raise ValueError(f"tell takes lambda = {self.lam} values, got shape {values.shape}")
        values[~np.isfinite(values)] = -math.inf
        finite = values[np.isfinite(values)]
        if not finite.size:
            raise FloatingPointError(f"generation {self.generation + 1}: no candidate has a "
                                     "finite objective; the search diverged")
        cs, cc, mueff, sigma = self.cs, self.cc, self.mueff, self.sigma
        selected = candidates[np.argsort(-values, kind="stable")[:self.mu]]
        new_mean = self.weights @ selected
        y_w = (new_mean - self.mean) / sigma

        self.ps = (1 - cs) * self.ps + math.sqrt(cs * (2 - cs) * mueff) * (inv_sqrt @ y_w)
        ps_norm = float(np.linalg.norm(self.ps))
        hsig = (ps_norm / math.sqrt(1 - (1 - cs) ** (2 * (self.generation + 1))) / self.chi_n
                < 1.4 + 2 / (self.n + 1))
        self.pc = (1 - cc) * self.pc + hsig * math.sqrt(cc * (2 - cc) * mueff) * y_w

        deviations = (selected - self.mean) / sigma
        cov = (
            (1 - self.c1 - self.cmu) * self.cov
            + self.c1 * (np.outer(self.pc, self.pc) + (1 - hsig) * cc * (2 - cc) * self.cov)
            + self.cmu * deviations.T @ (self.weights[:, None] * deviations)
        )
        self.cov = (cov + cov.T) / 2.0
        self.sigma = sigma * math.exp((cs / self.damps) * (ps_norm / self.chi_n - 1))
        self.mean = new_mean
        self.generation += 1
        self._asked = None
        return GenerationRecord(self.generation - 1, float(values.max()),
                                float(np.median(finite)), self.sigma)


def cmaes_optimize(objective, x0: np.ndarray, config: CmaesConfig | None = None
                   ) -> tuple[np.ndarray, list[GenerationRecord]]:
    """Maximize ``objective`` over R^n starting from mean ``x0``.

    Runs the configured number of generations of a :class:`CmaesSearch`,
    calling ``objective`` once per candidate in row order, and returns the
    final distribution mean (the point a trained strategy actually uses)
    together with each generation's record.  A generation without a finite
    objective value raises :meth:`CmaesSearch.tell`'s FloatingPointError.
    """
    search = CmaesSearch(x0, config)
    records = [search.tell([objective(x) for x in search.ask()])
               for _ in range(search.config.generations)]
    return search.mean, records
