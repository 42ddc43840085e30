#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
the driver (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR,
default `.bench_build`. Every timed repetition is then a fresh driver
process, so each one starts with an empty EvalCache, divisor memo and
registries, the way every user run starts.

--trace 0 runs untraced repetitions for about S seconds and prints every
end-to-end metric. --trace 1 alternates untraced and traced repetitions
and prints every per-layer metric; the traced ones carry the
benchmark's phase observer, the src/obs tracer and the per-layer probes.
Human-readable lines come first. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

perfbench/README.md gives the reason for each workload and the table of
which per-layer metric should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fig7-serial", "fig7-parallel", "dosa-10k", "service-loopback")
# Set-up-only processes per run, on top of the timed repetitions.
SETUP_SAMPLES = 19
# Every workload's thread count; busy_frac divides by 4 cores everywhere.
CORES = 4
CHILD_TIMEOUT_S = 150
PAPER_VS_RANDOM = 2.80
PAPER_VS_BBBO = 12.59


def log(text=""):
    print(text, flush=True)


def fail(text):
    print("perfbench: " + text, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/; run from a checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(CORES),
                  "--target", "perfbench_driver"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def spawn(driver, workload, seed, *flags):
    """One driver process; set-up time runs from spawn to dispatch."""
    t0 = time.monotonic()
    try:
        p = subprocess.run([driver, "--workload", workload, "--seed",
                            str(seed), *flags], cwd=ROOT,
                           capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"{workload}: driver exited with {p.returncode}")
    rep = json.loads(p.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_dispatch"] - t0
    rep["proc_s"] = time.monotonic() - t0
    return rep


def pct(values, q):
    """q-th percentile (0..100), linear interpolation."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def geomean(values):
    """Geomean of the finite values (the driver writes a non-finite
    EDP as a string, and that search already failed its check)."""
    v = [x for x in values if isinstance(x, float) and x > 0]
    return math.exp(sum(map(math.log, v)) / len(v)) if v else math.nan


def searches(rep):
    return [op for op in rep["ops"] if op["kind"] == "search"]


def run_reps(driver, args, kinds):
    """Cycle through `kinds` (flag tuples) until --seconds is spent;
    every kind runs at least once. Returns {kind: [reps]}."""
    out = {k: [] for k in kinds}
    start = time.monotonic()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        out[kind].append(spawn(driver, args.workload, args.seed, *kind))
        i += 1
        longest = max(r["proc_s"] for reps in out.values() for r in reps)
        if (i >= len(kinds)
                and time.monotonic() - start + longest > args.seconds):
            return out


def check_ops(reps):
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if not op["ok"])
    digests = {r["digest"] for r in reps}
    return attempted, failed, digests


def edp_report(rep):
    """EDP geomeans overall and per algorithm, and the paper's ratios."""
    by_algo = {}
    for op in searches(rep):
        by_algo.setdefault(op["algo"], []).append(op["best_edp"])
    everything = [e for edps in by_algo.values() for e in edps]
    log(f"  edp_geomean = {geomean(everything):.6g} uJ.cycles over "
        f"{len(everything)} searches (not in BENCHMARK.json; see "
        f"perfbench/README.md)")
    for algo, edps in sorted(by_algo.items()):
        log(f"  edp_geomean.{algo} = {geomean(edps):.6g} uJ.cycles "
            f"over {len(edps)} searches")
    if {"dosa", "random", "bayesopt"} <= by_algo.keys():
        dosa = geomean(by_algo["dosa"])
        log(f"  DOSA vs random: {geomean(by_algo['random']) / dosa:.2f}x "
            f"(paper {PAPER_VS_RANDOM:.2f}x at ~10k samples)")
        log(f"  DOSA vs BB-BO:  {geomean(by_algo['bayesopt']) / dosa:.2f}x "
            f"(paper {PAPER_VS_BBBO:.2f}x at ~10k samples)")
        log("  (these runs use bench_fig7 --quick budgets: 3005 samples "
            "for DOSA and random, 80 for BB-BO)")
    log("  EDP is simulated by the repository's analytical and reference "
        "models; the cost model is not validated against hardware (the "
        "repository holds no measured reference).")


def end_to_end(args, reps, setups, units):
    all_searches = [op for r in reps for op in searches(r)]
    lat = [op["latency_s"] for op in all_searches]
    m = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps)
        / 1024.0,
        "search_p50_s": pct(lat, 50),
        "search_p95_s": pct(lat, 95),
        "searches_per_s": statistics.median(
            len(searches(r)) / r["wall_s"] for r in reps),
    }
    log(f"workload {args.workload}, seed {args.seed}: {len(reps)} timed "
        f"repetitions, each a fresh process; {len(setups)} set-up samples")
    for name, value in m.items():
        log(f"  {name} = {value:.6g} {units.get(name, 's')}")
    log(f"  (search latency percentiles over {len(lat)} searches, "
        f"{len(lat) - math.ceil(0.95 * len(lat))} beyond p95)")
    return m


def phase_sums(reps):
    """Per (algorithm, phase) seconds summed over cells, per rep."""
    out = []
    for r in reps:
        sums, span = {}, 0.0
        for op in searches(r):
            span += op["latency_s"]
            for phase, s in op.get("phases", {}).items():
                key = op["algo"] + "." + phase
                sums[key] = sums.get(key, 0.0) + s
        out.append((sums, span))
    return out


def per_layer(args, plain, traced, units):
    """Every per-layer metric; the traced reps supply phases, probes
    and counters, the untraced ones the tracing-overhead baseline."""
    med = statistics.median
    first = traced[0]
    counters = first["counters"]
    ops = [searches(r) for r in traced]

    def counter(name):
        return int(counters.get(name, 0))

    # Phase sums (median over traced reps) and attribution.
    sums = phase_sums(traced)
    keys = sorted({k for s, _ in sums for k in s})
    phase = {k: med(s.get(k, 0.0) for s, _ in sums) for k in keys}
    span = med(sp for _, sp in sums)

    def ph(algo, name):
        return phase.get(algo + "." + name, 0.0)

    m = {}
    m["search.bayesopt.guided_s"] = ph("bayesopt", "guided")
    m["search.bayesopt.warmup_s"] = ph("bayesopt", "warmup")
    m["search.random.sampling_s"] = ph("random", "sampling")
    m["search.random.merge_s"] = ph("random", "merge")
    m["core.dosa.starts_s"] = ph("dosa", "starts")
    m["core.dosa.descent_s"] = ph("dosa", "descent")
    m["core.dosa.merge_s"] = ph("dosa", "merge")

    service = args.workload == "service-loopback"
    if service:
        cell = [[op["server_run_s"] for op in o] for o in ops]
    else:
        cell = [[op["latency_s"] for op in o] for o in ops]
    m["exec.cell_p50_s"] = med(pct(c, 50) for c in cell)
    m["exec.cell_max_s"] = med(max(c) for c in cell)
    m["exec.busy_frac"] = med(sum(c) / (CORES * r["wall_s"])
                              for c, r in zip(cell, traced))
    m["exec.pool.tasks"] = counter("exec.pool.tasks")
    m["exec.pool.regions"] = counter("exec.pool.regions")
    hits, misses = counter("eval_cache.hits"), counter("eval_cache.misses")
    m["exec.eval_cache.hits"] = hits
    m["exec.eval_cache.misses"] = misses
    m["exec.eval_cache.hit_frac"] = hits / max(1, hits + misses)
    m["util.divisors.memo_hits"] = counter("divisors.memo_hits")
    m["util.divisors.memo_misses"] = counter("divisors.memo_misses")
    m["core.objective.builds"] = counter("objective.builds")
    m["core.objective.replays"] = counter("objective.replays")
    m["core.objective.batch_candidates"] = counter(
        "objective.batch_candidates")
    m["gp.lcb_calls"] = sum(op.get("lcb_calls", 0) for op in ops[0])
    m["api.searches"] = counter("api.searches")
    m["api.samples"] = counter("api.samples")
    m["api.setup_s"] = med(r["t_dispatch"] - r["t_main"]
                           for r in plain + traced)

    probes = {}
    for name in first["probes"]:
        probes[name] = med(r["probes"][name] for r in traced)
    m.update(probes)

    if service:
        client_p50 = med(pct([op["latency_s"] for op in o], 50) for o in ops)
        queue = med(r["server_queue_wait_p50_s"] for r in traced)
        run = med(r["server_run_p50_s"] for r in traced)
        m["service.transport_s"] = client_p50 - queue - run
        m["service.first_frame_s"] = med(
            pct([op["first_frame_s"] for op in o], 50) for o in ops)
        m["service.frames_per_s"] = med(r["frames"] / r["wall_s"]
                                        for r in traced)
        m["service.queue_wait_s"] = queue
        m["service.run_s"] = run
        m["service.stats_rtt_s"] = med(
            pct([op["latency_s"] for op in r["ops"]
                 if op["kind"] == "stats"], 50) for r in traced)
    else:
        for name in ("transport_s", "first_frame_s", "frames_per_s",
                     "queue_wait_s", "run_s", "stats_rtt_s"):
            m["service." + name] = 0.0

    wall_plain = med(r["wall_s"] for r in plain)
    m["obs.trace_overhead_frac"] = med(r["wall_s"] for r in traced) \
        / wall_plain - 1.0
    m["obs.trace_dropped"] = max(r["trace_dropped"] for r in traced)

    log(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
        f"+ {len(traced)} traced repetitions (per-layer values are medians "
        f"over the traced ones)")
    width = max(len(k) for k in m)
    for name in sorted(m):
        unit = units.get(name) or ("1/s" if name.endswith("_per_s") else "s")
        log(f"  {name:<{width}} {m[name]:<12.6g} {unit}")

    # Reconciliation.
    if not service:
        attributed = sum(phase.values())
        log(f"  phases account for {attributed:.4g} s of {span:.4g} s "
            f"spent in runSearch; unattributed "
            f"{100.0 * (1.0 - attributed / span):.3g}%")
        for key in keys:
            log(f"    {key:<20} {phase[key]:10.4f} s "
                f"{100.0 * phase[key] / span:6.2f}%")
        if args.workload == "fig7-serial":
            top = max(keys, key=lambda k: phase[k])
            verdict = "matches" if top == "bayesopt.guided" else "MISMATCH"
            log(f"  largest phase is {top} ({verdict} the expectation "
                f"that BB-BO guided dominates fig7-serial)")
        if args.workload == "fig7-parallel":
            log(f"  random sampling sums to "
                f"{m['search.random.sampling_s']:.3g} s here; compare "
                f"fig7-serial's figure (it should grow under contention)")
        if args.workload == "dosa-10k":
            dosa_total = sum(v for k, v in phase.items()
                             if k.startswith("dosa."))
            log(f"  descent is {100.0 * m['core.dosa.descent_s'] / dosa_total:.1f}%"
                f" of DOSA's phase time")
    else:
        indep = med(pct([op["latency_s"] - op["server_run_s"] for op in o], 50)
                    for o in ops)
        client_p50 = m["service.transport_s"] + m["service.queue_wait_s"] \
            + m["service.run_s"]
        log(f"  client p50 {client_p50:.4g} s = transport "
            f"{m['service.transport_s']:.4g} + queue wait "
            f"{m['service.queue_wait_s']:.4g} + run {m['service.run_s']:.4g}")
        log(f"  cross-check: per-request p50 of (client latency - server run "
            f"from the history) = {indep:.4g} s vs transport + queue wait = "
            f"{m['service.transport_s'] + m['service.queue_wait_s']:.4g} s")
        share = m["service.transport_s"] / client_p50 if client_p50 else 0.0
        verdict = "matches" if share > 0.5 else "MISMATCH"
        log(f"  transport is {100.0 * share:.1f}% of the client p50 "
            f"({verdict} the expectation that it is the bulk)")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    driver = build()
    if args.trace:
        runs = run_reps(driver, args, [(), ("--traced",)])
        plain, traced = runs[()], runs[("--traced",)]
        reps = plain + traced
        metrics = per_layer(args, plain, traced, units)
    else:
        reps = run_reps(driver, args, [()])[()]
        setups = [r["setup_s"] for r in reps] + [
            spawn(driver, args.workload, args.seed, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(args, reps, setups, units)
        edp_report(reps[0])

    attempted, failed, digests = check_ops(reps)
    log(f"  ops: attempted {attempted}, failed {failed}, ops_failed_frac "
        f"{failed / attempted:.6g}")
    log(f"  trace digest: {' '.join(sorted(digests))}"
        + ("" if len(digests) == 1 else "  (DIFFERS between repetitions)"))
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail("BENCHMARK.json lists metrics this run does not measure: "
             + ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
