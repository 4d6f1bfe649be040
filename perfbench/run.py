"""fbcrs benchmark: certification throughput, latency and Monte Carlo rate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lp-certify --seed 1 --seconds 25 --trace 0

One client certifies instances in a closed loop: the next instance starts
only after the previous one is certified, so no queue forms.  ``--trace 0``
measures the end-to-end metrics with tracing off.  ``--trace 1`` certifies
each instance twice, once traced and once not (alternating which goes first),
derives the per-layer metrics from the spans and reports the difference
between the two passes as tracing overhead.  The last line of standard output
is one JSON object; the lines before it give every metric with its unit, the
latency sample counts and the machine description.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bootstrap import OUT, timed_setup, use_checkout_source, workdir

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("lp-certify", "knapsack-exact", "ration-mc")
SETUP_PROBES = 4  # cold set-ups in fresh interpreters, besides this process's own

# Per-layer busy time: metric -> (span names summed, end-to-end metric it should move).
BUSY = {
    "instances.build_s": (
        ("instances.build", "instances.dump_instance", "instances.load_instance"),
        "setup_s on every workload",
    ),
    "lp_si.solve_s": (
        ("lp_si.solve_lp_si",),
        "instances_per_s and latency_p90_s on lp-certify; latency_p50_s on ration-mc",
    ),
    "lp_si.dual_s": (
        ("lp_si.dual_certificate_uniform", "lp_si.dual_feasibility"),
        "small share on lp-certify",
    ),
    "single_unit.plan_s": (
        ("single_unit.closed_form_plan", "single_unit.exact_selection_rates"),
        "small share on lp-certify; no end-to-end change predicted",
    ),
    "single_unit.mc_s": (("single_unit.mc_selection_rates",), "mc_trials_per_s on ration-mc"),
    "knapsack.plan_s": (("knapsack.closed_form_knapsack_plan",), "small share on knapsack-exact"),
    "knapsack.feasibility_s": (
        ("knapsack.check_knapsack_feasible",),
        "instances_per_s and latency on knapsack-exact",
    ),
    "knapsack.exact_s": (
        ("knapsack.run_knapsack_exact", "knapsack.max_rate_error"),
        "instances_per_s and latency on knapsack-exact; little on ration-mc",
    ),
    "knapsack.monitor_s": (("knapsack.monitor_trace",), "instances_per_s and latency on knapsack-exact"),
    "knapsack.mc_s": (("knapsack.run_knapsack_mc",), "mc_trials_per_s on ration-mc"),
    "rationing.target_s": (
        ("rationing.max_uniform_beta", "rationing.exante_check", "rationing.knapsack_reduction",
         "rationing.single_unit"),
        "latency_p50_s on ration-mc",
    ),
    "rationing.exact_s": (
        ("rationing.run_rationing_exact",),
        "latency_p90_s and instances_per_s on ration-mc",
    ),
    "rationing.mc_s": (("rationing.run_rationing_mc",), "mc_trials_per_s on ration-mc"),
}
MC_SPANS = {
    "single_unit.mc_trials": "single_unit.mc_selection_rates",
    "knapsack.mc_trials": "knapsack.run_knapsack_mc",
    "rationing.mc_trials": "rationing.run_rationing_mc",
}
# Per-layer metrics that are not busy time: metric -> (unit, note).
OTHER = {
    "lp_si.solve_calls": ("count", "instances_per_s on lp-certify; latency_p50_s on ration-mc"),
    "lp_si.tableau_bytes": ("B", "computed, largest tableau of the run; peak_rss_mb on lp-certify"),
    "single_unit.mc_trials": ("count", "mc_trials_per_s on ration-mc"),
    "knapsack.atom_visits": ("count", "computed; instances_per_s and latency on knapsack-exact"),
    "knapsack.mc_trials": ("count", "mc_trials_per_s on ration-mc"),
    "rationing.mc_trials": ("count", "mc_trials_per_s on ration-mc"),
    "sim.chunks": ("count", "computed; mc_trials_per_s on ration-mc, zero elsewhere"),
    "mc_trials_per_s": ("1/s", "MC trials per second of MC busy time; ration-mc only, zero elsewhere"),
    "pipeline.self_s": ("s", "self time of the instance spans: benchmark glue and gate checks"),
    "ops_failed_frac": ("frac", "failed operations over attempted ones"),
    "trace.overhead_frac": ("frac", "traced over untraced pipeline time, minus one"),
}


def tableau_bytes(n: int, palindromic: bool) -> int:
    """Size of lp_si's dense simplex tableau for an n-element instance."""
    if palindromic:
        half = (n + 1) // 2
        return 8 * (n + half + 1) * (2 * n + half + 2)
    return 8 * (3 * n + 1) * (5 * n + 2)


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def setup_seconds(workload: str, seed: int, own: float) -> list[float]:
    """This process's set-up plus SETUP_PROBES cold set-ups in fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(spec, pool, gate, seconds: float) -> tuple[list[float], float]:
    """Closed loop with tracing off; returns per-instance latencies and wall time."""
    latencies = []
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        t = perf_counter()
        gate.certify(spec.certify, pool[k % len(pool)])
        latencies.append(perf_counter() - t)
        k += 1
        if perf_counter() >= deadline:
            return latencies, perf_counter() - start


def measure_traced(spec, pool, gate, seconds: float) -> tuple[int, float, float]:
    """Certify each instance untraced and traced; returns (instances, untraced s, traced s)."""
    tracer = gate.tracer
    totals = {False: 0.0, True: 0.0}
    deadline = perf_counter() + seconds
    k = 0
    while True:
        item = pool[k % len(pool)]
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.enabled = traced
            t = perf_counter()
            with tracer.root(f"instance.{spec.name}", k):
                gate.certify(spec.certify, item)
            totals[traced] += perf_counter() - t
        k += 1
        if perf_counter() >= deadline:
            tracer.enabled = True
            return k, totals[False], totals[True]


def layer_metrics(spans: list[dict], gate, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans; also each busy time's share of its wall."""
    from fbcrs.sim import CHUNK
    from spans import self_times

    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    roots = [s for s in spans if s["parent"] is None]
    setup_wall = sum(s["end"] - s["start"] for s in roots if s["trace"] == "setup")
    run_wall = sum(s["end"] - s["start"] for s in roots if s["trace"] != "setup")

    values, shares = {}, {}
    for metric, (names, _) in BUSY.items():
        busy = sum((own[s["id"]] for name in names for s in by_name.get(name, ())), 0.0)
        values[metric] = busy
        wall = setup_wall if metric.startswith("instances.") else run_wall
        shares[metric] = busy / wall if wall > 0 else 0.0
    solves = by_name.get("lp_si.solve_lp_si", [])
    values["lp_si.solve_calls"] = len(solves)
    values["lp_si.tableau_bytes"] = max(
        (tableau_bytes(s["attrs"]["n"], s["attrs"]["palindromic"]) for s in solves), default=0
    )
    values["knapsack.atom_visits"] = sum(
        s["attrs"].get("atom_visits", 0) for s in by_name.get("knapsack.run_knapsack_exact", ())
    )
    trials = chunks = 0
    mc_busy = 0.0
    for metric, name in MC_SPANS.items():
        calls = by_name.get(name, [])
        values[metric] = sum(s["attrs"].get("trials", 0) for s in calls)
        trials += values[metric]
        chunks += sum(math.ceil(s["attrs"].get("trials", 0) / CHUNK) for s in calls)
        mc_busy += sum(own[s["id"]] for s in calls)
    values["sim.chunks"] = chunks
    values["mc_trials_per_s"] = trials / mc_busy if mc_busy > 0 else 0.0
    values["pipeline.self_s"] = sum(own[s["id"]] for s in roots if s["trace"] != "setup")
    shares["pipeline.self_s"] = values["pipeline.self_s"] / run_wall if run_wall > 0 else 0.0
    values["ops_failed_frac"] = gate.failed / gate.attempted
    values["trace.overhead_frac"] = overhead
    return values, shares


def environment() -> dict:
    """Machine description recorded with every result; nothing here is set."""
    import numpy

    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            caches[name] = done.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            caches[name] = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches_bytes": caches,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run(spec, pool, gate, seconds: float, traced: bool, setups: list[float]) -> list[tuple]:
    """Measure one workload; returns (metric, value, unit, note) rows.

    Untraced: the end-to-end metrics.  Traced: the per-layer metrics, with the
    spans written under .perfbench/ for later inspection.
    """
    if not traced:
        latencies, wall = measure(spec, pool, gate, seconds)
        count = len(latencies)
        p90 = percentile_90(latencies) if count > 1 else latencies[0]
        beyond = sum(1 for v in latencies if v > p90)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"ops_failed_frac {gate.failed / gate.attempted:.6g} frac  "
              f"({gate.failed} of {gate.attempted} operations failed)")
        return [
            ("setup_s", statistics.median(setups), "s",
             f"median of {len(setups)} cold set-ups: " + ", ".join(f"{v:.4f}" for v in setups)),
            ("instances_per_s", count / wall, "1/s", f"{count} instances in {wall:.3f} s"),
            ("latency_p50_s", statistics.median(latencies), "s", f"{count} samples"),
            ("latency_p90_s", p90, "s", f"{count} samples, {beyond} beyond p90"),
            ("peak_rss_mb", rss, "MB", "ru_maxrss of this process"),
        ]
    count, plain, with_spans = measure_traced(spec, pool, gate, seconds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{spec.name}.json"
    gate.tracer.dump(path)
    print(f"traced {count} instances; {len(gate.tracer.spans)} spans written to {path}")
    values, shares = layer_metrics(gate.tracer.spans, gate, with_spans / plain - 1.0)
    rows = []
    for metric, (_, target) in BUSY.items():
        rows.append((metric, values[metric], "s", f"{100 * shares[metric]:.2f}% of wall; moves {target}"))
    for metric, (unit, note) in OTHER.items():
        extra = f"{100 * shares[metric]:.2f}% of wall; " if metric in shares else ""
        rows.append((metric, values[metric], unit, extra + note))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    use_checkout_source()
    traced = bool(args.trace)

    with workdir() as directory:
        spec, pool, gate, own_setup = timed_setup(args.workload, args.seed, directory, traced)
    setups = setup_seconds(args.workload, args.seed, own_setup) if not traced else [own_setup]
    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"pool {len(pool)} instances")
    rows = run(spec, pool, gate, args.seconds, traced, setups)
    for name, value, unit, note in rows:
        print(f"{name:24s} {value:<14.6g} {unit:6s} {note}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for failure in gate.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
