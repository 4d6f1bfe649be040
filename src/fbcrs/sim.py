"""Seeded Monte Carlo plumbing shared by every executor in the package.

Streams are PCG64 generators seeded by ``SeedSequence((seed, *path))``, so the
stream for a given path is a pure function of the root seed: trial chunk i
always sees the same randomness no matter how many threads run.  Trial
streams live under the path prefix NS_TRIALS, so any other namespace never
collides with them.  Executors draw one uniform per row and arrival
(`two_orders`).
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .instances import BACKWARD, FORWARD
from .tolerances import MC_CONFIDENCE

# Trials are processed in fixed-size chunks; chunk index = stream index, so
# results are bit-identical for any thread count.
CHUNK = 1 << 16

# Path namespace of trial chunks (first path component after the seed).
NS_TRIALS = 0


def _integer(value, name: str) -> int:
    """value as an int (operator.index: numpy integers pass, 1.5 and 1e4
    do not), else ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def stream(seed: int, *path: int) -> np.random.Generator:
    """Generator that is a pure function of (seed, path); seed must be an
    integer, so no fraction silently draws its floor's stream."""
    entropy = (_integer(seed, "seed"),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def two_orders(rng: np.random.Generator, m: int, n: int):
    """Both arrival orders of n elements in one array of m rows.

    The order draw gives f forward rows; rows [0, f) run the forward order and
    rows [f, m) the backward one.  Yields (tag, rows, element, uniforms) per
    arrival half: at position pos, forward rows meet element pos and backward
    rows element n - 1 - pos, and both halves read their rows of one fresh
    draw of m uniforms, taken before either half.

    Every draw goes into one buffer, so a half's uniforms are valid only
    until the next position's draw: a fresh array per position, held by the
    consumers' loop variables into the next half, doubled the page faults.
    """
    f = int(rng.binomial(m, 0.5))
    forward, backward = slice(0, f), slice(f, m)
    u = np.empty(m)
    for pos in range(n):
        rng.random(m, out=u)
        yield FORWARD, forward, pos, u[forward]
        yield BACKWARD, backward, n - 1 - pos, u[backward]


def slice_index(u: np.ndarray, edges) -> np.ndarray:
    """Number of edges (ascending floats) at or below each u: the slice of
    [0, 1) that u falls in.

    A few compare-and-adds, counted in bytes, beat np.searchsorted by an
    order of magnitude on the handful of edges an atom table has.  The result
    is int8 for fewer than 127 edges and intp otherwise; numpy's take and
    bincount read either.
    """
    k = np.zeros(u.shape, dtype=np.int8 if len(edges) < 127 else np.intp)
    for edge in edges:
        k += (u >= edge).view(np.int8)
    return k


def wilson_interval(successes: float, count: int, confidence: float = MC_CONFIDENCE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= successes <= count:
        raise ValueError("successes must lie in [0, count]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    p = successes / count
    denom = 1 + z * z / count
    center = (p + z * z / (2 * count)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / count + z * z / (4 * count * count))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class RateEstimate:
    """Empirical conditional rate with a Wilson interval at MC_CONFIDENCE."""

    successes: float
    conditioning_count: int

    @property
    def point(self) -> float:
        if self.conditioning_count == 0:
            return 0.0
        return self.successes / self.conditioning_count

    @property
    def ci_low(self) -> float:
        if self.conditioning_count == 0:
            return 0.0
        return wilson_interval(self.successes, self.conditioning_count)[0]

    @property
    def ci_high(self) -> float:
        if self.conditioning_count == 0:
            return 1.0
        return wilson_interval(self.successes, self.conditioning_count)[1]

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2


@dataclass(frozen=True)
class MeanEstimate:
    """Empirical mean of a real-valued outcome with a normal-theory interval
    at MC_CONFIDENCE.

    Used where the per-trial outcome is a fraction that is not 0/1 (service
    values); the interval uses the sample variance, so unlike Wilson it does
    not assume Bernoulli outcomes.
    """

    total: float
    total_sq: float
    count: int

    @property
    def point(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def half_width(self) -> float:
        if self.count < 2:
            return float("inf")
        z = NormalDist().inv_cdf((1 + MC_CONFIDENCE) / 2)
        var = max(0.0, self.total_sq / self.count - self.point**2)
        return z * math.sqrt(var / self.count)

    @property
    def ci_low(self) -> float:
        return self.point - self.half_width

    @property
    def ci_high(self) -> float:
        return self.point + self.half_width


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_trials(experiment, trials: int, seed: int) -> dict:
    """Run ``experiment(rng, m)`` over ``trials`` trials in deterministic chunks.

    The experiment returns ``{key: (successes, count)}`` (or
    ``(total, total_sq, count)`` for real-valued outcomes); tuples are summed
    componentwise in chunk order, so the aggregate is bit-identical for fixed
    (seed, trials) on any number of threads.  Pairs come back as
    RateEstimate, triples as MeanEstimate.  Chunks run on min(chunks, CPUs
    this process may use) threads; a single chunk runs in the calling thread.
    trials and seed must be integers.
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunks = [(i, min(CHUNK, trials - i * CHUNK)) for i in range((trials + CHUNK - 1) // CHUNK)]

    def one(chunk):
        index, m = chunk
        return experiment(stream(seed, NS_TRIALS, index), m)

    threads = min(len(chunks), _cpu_count())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, chunks))
    else:
        results = [one(chunk) for chunk in chunks]

    sums: dict = {}
    for result in results:  # fixed chunk order keeps float sums deterministic
        for key, value in result.items():
            if key in sums:
                sums[key] = tuple(a + b for a, b in zip(sums[key], value))
            else:
                sums[key] = tuple(value)

    estimates = {}
    for key, value in sums.items():
        if len(value) == 2:
            estimates[key] = RateEstimate(value[0], int(value[1]))
        elif len(value) == 3:
            estimates[key] = MeanEstimate(value[0], value[1], int(value[2]))
        else:
            raise ValueError(f"experiment value for {key!r} must be a 2- or 3-tuple")
    return estimates
