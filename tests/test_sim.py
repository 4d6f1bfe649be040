"""Simulation scaffolding: Wilson intervals, estimators, chunked trials."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from fbcrs.instances import (
    DemandLaw,
    KnapsackInstance,
    RationingInstance,
    SingleUnitInstance,
    SizeLaw,
)
from fbcrs import sim
from fbcrs.knapsack import closed_form_knapsack_plan, run_knapsack_mc
from fbcrs.lp_si import solve_lp_si
from fbcrs.rationing import exante_check, run_rationing
from fbcrs.single_unit import mc_selection_rates
from fbcrs.sim import (
    CHUNK,
    MeanEstimate,
    RateEstimate,
    run_trials,
    stream,
    wilson_interval,
)

from oracles import wilson_reference

# Frozen from a high-precision evaluation of the Wilson formula at
# successes = 500000, count = 10^6, confidence 0.999.
WILSON_HALF_FROZEN = 0.001645254458719298
WILSON_LOW_FROZEN = 0.4983547455412807
WILSON_HIGH_FROZEN = 0.5016452544587193


@pytest.mark.parametrize("confidence", [0.9, 0.99, 0.999])
@pytest.mark.parametrize("count", [1, 7, 100, 12345, 10**6])
@pytest.mark.parametrize("frac", [0.0, 0.013, 0.5, 0.987, 1.0])
def test_wilson_matches_scipy_reference(frac, count, confidence):
    successes = round(frac * count)
    low, high = wilson_interval(successes, count, confidence)
    ref_low, ref_high = wilson_reference(successes, count, confidence)
    assert low == pytest.approx(max(0.0, ref_low), abs=1e-12)
    assert high == pytest.approx(min(1.0, ref_high), abs=1e-12)


def test_wilson_frozen_values():
    low, high = wilson_interval(500_000, 10**6, 0.999)
    assert low == pytest.approx(WILSON_LOW_FROZEN, abs=1e-13)
    assert high == pytest.approx(WILSON_HIGH_FROZEN, abs=1e-13)
    est = RateEstimate(500_000, 10**6)  # at MC_CONFIDENCE, 0.999
    assert est.half_width == pytest.approx(WILSON_HALF_FROZEN, abs=1e-13)


@pytest.mark.parametrize(
    "successes, count, confidence",
    [(1, 0, 0.999), (-1, 10, 0.999), (11, 10, 0.999), (5, 10, 0.0), (5, 10, 1.0)],
)
def test_wilson_rejects_bad_inputs(successes, count, confidence):
    with pytest.raises(ValueError):
        wilson_interval(successes, count, confidence)


def test_rate_estimate_zero_count_conventions():
    est = RateEstimate(0, 0)
    assert est.point == 0.0
    assert est.ci_low == 0.0
    assert est.ci_high == 1.0


def test_rate_estimate_interval_contains_point():
    est = RateEstimate(37, 120)
    assert est.ci_low <= est.point <= est.ci_high
    assert est.half_width == pytest.approx((est.ci_high - est.ci_low) / 2)


def test_mean_estimate_small_counts():
    assert MeanEstimate(0.0, 0.0, 0).point == 0.0
    assert math.isinf(MeanEstimate(0.0, 0.0, 0).half_width)
    assert math.isinf(MeanEstimate(4.2, 18.0, 1).half_width)


def test_mean_estimate_known_sample():
    # sample {1, 3}: mean 2, population variance 1
    est = MeanEstimate(total=4.0, total_sq=10.0, count=2)  # at MC_CONFIDENCE, 0.999
    z = float(stats.norm.ppf(0.9995))
    assert est.point == pytest.approx(2.0)
    assert est.half_width == pytest.approx(z * math.sqrt(1.0 / 2.0), rel=1e-12)
    assert est.ci_low == pytest.approx(est.point - est.half_width)
    assert est.ci_high == pytest.approx(est.point + est.half_width)


def test_stream_pure_function_of_path():
    a = stream(7, 1, 2).random(5)
    b = stream(7, 1, 2).random(5)
    c = stream(7, 1, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _coin_experiment(rng, m):
    u = rng.random(m)
    out = {
        "heads": ((u < 0.3).sum(), m),
        "value": (u.sum(), (u * u).sum(), m),
    }
    # key present only in chunks whose first draw is small, to exercise the
    # missing-key folding path
    if u[0] < 0.5:
        out["sometimes"] = ((u < 0.5).sum(), m)
    return out


def test_run_trials_deterministic_across_workers(monkeypatch):
    # five chunks, the last ragged: one thread against four
    trials = 4 * CHUNK + 1234
    monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
    one = run_trials(_coin_experiment, trials, seed=5)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 4)
    four = run_trials(_coin_experiment, trials, seed=5)
    assert one.keys() == four.keys()
    for key in one:
        a, b = one[key], four[key]
        if isinstance(a, RateEstimate):
            assert (a.successes, a.conditioning_count) == (b.successes, b.conditioning_count)
        else:
            assert (a.total, a.total_sq, a.count) == (b.total, b.total_sq, b.count)


@pytest.mark.parametrize("chunks, cpus, threads", [(1, 4, None), (2, 1, None), (2, 4, 2), (3, 2, 2)])
def test_run_trials_threads_are_chunks_capped_by_cpus(monkeypatch, chunks, cpus, threads):
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sim, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", Recorded)
    est = run_trials(_coin_experiment, (chunks - 1) * CHUNK + 7, seed=1)
    assert est["heads"].conditioning_count == (chunks - 1) * CHUNK + 7
    # one chunk, or one CPU, runs in the calling thread and builds no pool
    assert pools == ([] if threads is None else [threads])


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    assert sim._cpu_count() >= 1
    monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    assert sim._cpu_count() == 3
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
    assert sim._cpu_count() == 1


def test_run_trials_estimates():
    trials = CHUNK + 999
    est = run_trials(_coin_experiment, trials, seed=0)
    heads = est["heads"]
    assert isinstance(heads, RateEstimate)
    assert heads.conditioning_count == trials
    assert abs(heads.point - 0.3) <= 5 * heads.half_width
    value = est["value"]
    assert isinstance(value, MeanEstimate)
    assert value.count == trials
    assert abs(value.point - 0.5) <= 5 * value.half_width
    # seed 0 reports the ragged key from exactly one of the two chunks, so
    # it accumulated over that chunk's trials only
    assert est["sometimes"].conditioning_count in (CHUNK, 999)


def test_run_trials_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_trials(_coin_experiment, 0, seed=0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"trials": 1e4, "seed": 0}, "trials"),
        ({"trials": 10, "seed": 1.5}, "seed"),
        ({"trials": 10, "seed": 1.0}, "seed"),
    ],
    ids=["float-trials", "fractional-seed", "float-seed"],
)
def test_run_trials_rejects_non_integers(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        run_trials(_coin_experiment, **kwargs)


def test_stream_rejects_a_fractional_seed():
    # int(1.5) would draw the seed-1 stream
    with pytest.raises(ValueError, match="^seed must be an integer"):
        stream(1.5, 0)


def test_run_trials_rejects_bad_tuple_width():
    def bad(rng, m):
        return {"k": (1.0,)}

    with pytest.raises(ValueError):
        run_trials(bad, 10, seed=0)


def _fields(estimates: dict) -> dict:
    return {
        key: (e.successes, e.conditioning_count)
        if isinstance(e, RateEstimate)
        else (e.total, e.total_sq, e.count)
        for key, e in estimates.items()
    }


def _single_unit_mc(seed=3):
    inst = SingleUnitInstance((0.3, 0.5, 0.2, 0.4))
    return mc_selection_rates(inst, solve_lp_si(inst), CHUNK + 1234, seed=seed)


def _knapsack_mc(seed=3):
    inst = KnapsackInstance((SizeLaw(((0.5, 1.0),)), SizeLaw(((0.2, 0.5), (0.7, 0.3)), 0.2)))
    plan = closed_form_knapsack_plan(inst)
    return run_knapsack_mc(inst, plan, CHUNK + 1234, seed=seed)


def _rationing_mc(service):
    def run(seed=3):
        laws = (DemandLaw(((0.5, 0.5), (2.0, 0.5))), DemandLaw(((0.3, 0.4), (1.0, 0.6))))
        inst = RationingInstance(laws, service)
        target = exante_check(inst, (0.4, 0.4))
        return run_rationing(inst, target, mode="mc", trials=CHUNK + 1234, seed=seed).estimates

    return run


EXECUTORS = pytest.mark.parametrize(
    "executor",
    [
        _single_unit_mc,
        _knapsack_mc,
        _rationing_mc(("TypeIII", "TypeII")),
        _rationing_mc(("TypeI", "TypeII")),
    ],
    ids=["mc_selection_rates", "run_knapsack_mc", "rationing-single-unit", "rationing-knapsack"],
)


@EXECUTORS
def test_executors_deterministic_across_workers(executor, monkeypatch):
    # two chunks, the second ragged, on one CPU and then on four (two
    # threads): the sums must not depend on which thread ran which chunk
    monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
    one = executor()
    monkeypatch.setattr(sim, "_cpu_count", lambda: 4)
    two = executor()
    assert one and _fields(one) == _fields(two)


@EXECUTORS
def test_executors_take_integer_seeds_only(executor):
    # a numpy integer draws the Python int's streams; a fraction raises
    # rather than drawing its floor's
    assert _fields(executor(np.int64(3))) == _fields(executor(3))
    with pytest.raises(ValueError, match="^seed must be an integer"):
        executor(3.5)
