#!/usr/bin/env python3
"""The repository benchmark: SBFT at paper scale, measured end to end and
layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest [--workload NAME]

It builds the OCaml runner (perfbench/sbftperf.ml) with dune, then runs
the workload under a fixed set of scenario seeds derived from N (four with
--trace 0, two with --trace 1), then cycles through them again while
another round fits in S seconds; every run is a fresh process.  With --trace 0
each run is untraced, uses the stock service and yields the end-to-end
metrics; with --trace 1 each scenario runs untraced and traced, and the
per-layer metrics of the traced runs are reported together with the
tracing overhead (median traced minus median untraced host seconds).
Virtual-time figures are deterministic per scenario seed, so repeated
runs must reproduce them bit for bit; they are reported as the median
over the scenarios.  Host figures are medians over every run; host
timings are rescaled to a reference machine speed measured in each run's
own process, because a shared machine's speed drifts by a quarter.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.  The exit code is 1 when any repetition finds a problem
(agreement violation, wrong result, diverging replay) and 2 when the
benchmark cannot run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "sbftperf.exe")
OUT_DIR = ".perfbench"
RUN_LIMIT_S = 170.0  # every invocation must end within 180 s
SCENARIOS = 4  # scenario seeds per --trace 0 run
# Host timings are rescaled to the machine speed at which the runner's
# reference kernel takes this long (see reference_kernel in sbftperf.ml).
KERNEL_NOMINAL_S = 0.125
TRACED_SCENARIOS = 2  # scenario seeds per --trace 1 run

END_TO_END_VIRTUAL = [
    "throughput_ops",
    "latency_p50_ms",
    "latency_p99_ms",
    "unavailability_ms",
    "failed_frac",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(code, msg):
    log("perfbench: " + msg)
    sys.exit(code)


def load_declaration():
    try:
        with open("BENCHMARK.json") as f:
            decl = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)
    return decl


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail(2, "run from the root of a full checkout (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/sbftperf.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, "build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail(2, "build failed (exit %d)" % r.returncode)


def workload_names():
    r = subprocess.run([EXE, "list"], capture_output=True, text=True, timeout=60)
    if r.returncode != 0:
        fail(2, "cannot list workloads")
    return r.stdout.split()


def run_once(workload, seed, traced, deadline):
    """One repetition in a fresh process; returns its parsed result."""
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
        cmd += ["--traced", "--spans", spans]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(2, "%s seed %d did not finish in time" % (workload, seed))
    if r.returncode != 0:
        log(r.stderr)
        fail(2, "%s seed %d crashed (exit %d)" % (workload, seed, r.returncode))
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(2, "%s seed %d printed no result" % (workload, seed))


def subseed(seed, r):
    """The r-th scenario seed of a run: disjoint for distinct run seeds."""
    return (seed % (1 << 56)) * 16 + r


def measure(workload, seed, seconds, trace):
    """Runs scenarios 0..n-1 of the seed (each untraced, and with --trace 1
    traced as well), then cycles through them again while another round
    still fits in [seconds].  Returns {scenario seed: {"untraced": [...],
    "traced": [...]}}."""
    n = TRACED_SCENARIOS if trace else SCENARIOS
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    runs = {subseed(seed, r): {"untraced": [], "traced": []} for r in range(n)}
    k = 0
    while True:
        sub = subseed(seed, k % n)
        for kind in (["untraced", "traced"] if trace else ["untraced"]):
            runs[sub][kind].append(run_once(workload, sub, kind == "traced", deadline))
        k += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / k
        if k >= n and (elapsed + per_round > seconds or start + elapsed + 2 * per_round > deadline):
            return runs


def problems_of(runs):
    """Correctness: each run's own checks, and bit-identical virtual
    figures and layer counts for equal scenario seeds, traced or not."""
    problems = []
    for sub, group in runs.items():
        ref = group["untraced"][0]
        for r in group["untraced"] + group["traced"]:
            problems += ["%sseed %d: %s" % ("traced " if r["traced"] else "", sub, p) for p in r["problems"]]
            if r["virtual"] != ref["virtual"]:
                problems.append("seed %d: virtual figures differ between runs (traced=%s)" % (sub, r["traced"]))
            if {k: r["layer_counts"].get(k) for k in ref["layer_counts"]} != ref["layer_counts"]:
                problems.append("seed %d: layer counts differ between runs (traced=%s)" % (sub, r["traced"]))
        counts = [r["layer_counts"] for r in group["traced"]]
        if any(c != counts[0] for c in counts):
            problems.append("seed %d: layer counts differ between traced runs" % sub)
    return problems


def median(xs):
    return statistics.median(xs)


def all_runs(runs, kind):
    return [r for group in runs.values() for r in group[kind]]


def speed(run):
    """Factor that rescales a run's host timings to the reference machine
    speed, from the reference kernel timed in the same process."""
    return KERNEL_NOMINAL_S / run["host"]["kernel_s"]


def host_s(runs):
    return median([r["host"]["host_s"] * speed(r) for r in runs])


def setup_s(runs):
    return median([x * speed(r) for r in runs for x in r["host"]["setup_s"]])


def end_to_end(runs):
    """Virtual figures: median over the scenarios.  Host figures: median
    over every run, host timings rescaled to the reference speed."""
    firsts = [group["untraced"][0]["virtual"] for group in runs.values()]
    values = {k: median([v[k] for v in firsts]) for k in END_TO_END_VIRTUAL}
    untraced = all_runs(runs, "untraced")
    values["host_s"] = host_s(untraced)
    values["setup_s"] = setup_s(untraced)
    values["peak_heap_mb"] = median([r["host"]["peak_heap_mb"] for r in untraced])
    return values


def per_layer(runs):
    traced = all_runs(runs, "traced")
    names = set()
    for r in traced:
        names |= set(r["layer_counts"]) | set(r["layers"])
    values = {}
    for k in sorted(names):
        xs = [r["layer_counts"].get(k, r["layers"].get(k)) for r in traced]
        values[k] = median([x for x in xs if x is not None])
    untraced = all_runs(runs, "untraced")
    host_untraced = host_s(untraced)
    host_traced = host_s(traced)
    values["trace.overhead_host_s"] = host_traced - host_untraced
    values["trace.overhead_frac"] = (host_traced - host_untraced) / host_untraced
    values["host.raw_host_s"] = median([r["host"]["host_s"] for r in untraced])
    values["host.raw_setup_s"] = median([x for r in untraced for x in r["host"]["setup_s"]])
    values["host.speed"] = median([speed(r) for r in untraced])
    return values


def result_line(decl_metrics, values, runs, problems):
    missing = [m["name"] for m in decl_metrics if m["name"] not in values]
    if missing:
        fail(2, "metrics declared in BENCHMARK.json but not produced: %s" % ", ".join(missing))
    firsts = [group["untraced"][0] for group in runs.values()]
    return {
        "correct": not problems,
        "attempted": sum(int(r["attempted"]) for r in firsts),
        "failed": sum(int(r["failed"]) for r in firsts),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in decl_metrics},
    }


def show(workload, decl_metrics, values, runs):
    reps = len(all_runs(runs, "untraced")) + len(all_runs(runs, "traced"))
    log("%s: %d scenario(s), %d run(s)" % (workload, len(runs), reps))
    for sub, group in runs.items():
        v = group["untraced"][0]["virtual"]
        log("  seed %d: %d requests attempted, %d completed; latency tail from %d samples at p%.2f"
            % (sub, v["attempted"], v["completed"], v["latency_samples"], v["latency_tail_pct"]))
    for m in decl_metrics:
        value = values[m["name"]]
        log("  %-40s %16s %s" % (m["name"], "n/a" if value is None else "%.6g" % value, m["unit"]))


def run_workload(decl, workload, seed, seconds, trace):
    runs = measure(workload, seed, seconds, trace)
    problems = problems_of(runs)
    if trace:
        metrics, values = decl["per_layer"], per_layer(runs)
    else:
        metrics, values = decl["end_to_end"], end_to_end(runs)
    show(workload, metrics, values, runs)
    for p in problems:
        log("  PROBLEM: " + p)
    return result_line(metrics, values, runs, problems)


def selftest(decl, workloads):
    """Same seed: bit-identical virtual figures and layer counts, traced
    or not.  Different seed: a different request stream."""
    ok = True
    for w in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        a1 = run_once(w, 1, False, deadline)
        a2 = run_once(w, 1, False, deadline)
        t1 = run_once(w, 1, True, deadline)
        t2 = run_once(w, 1, True, deadline)
        b = run_once(w, 2, False, deadline)
        checks = [
            ("same seed, same virtual figures", a1["virtual"] == a2["virtual"]),
            ("same seed, same layer counts", a1["layer_counts"] == a2["layer_counts"]),
            ("traced run, same virtual figures", t1["virtual"] == a1["virtual"]),
            ("traced runs, same layer counts", t1["layer_counts"] == t2["layer_counts"]),
            ("traced run, same untraced layer counts",
             all(t1["layer_counts"].get(k) == v for k, v in a1["layer_counts"].items())),
            ("other seed, other request stream",
             b["virtual"]["stream_digest"] != a1["virtual"]["stream_digest"]),
            ("every run checks out", all(r["correct"] for r in (a1, a2, t1, t2, b))),
        ]
        for name, passed in checks:
            log("%s %-18s %s" % ("PASS" if passed else "FAIL", w, name))
            ok = ok and passed
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    decl = load_declaration()
    seconds = args.seconds if args.seconds is not None else decl.get("run_seconds", 10)
    build()
    known = workload_names()
    if args.selftest:
        sys.exit(selftest(decl, [args.workload] if args.workload else known))
    if args.workload == "all":
        results = {w: run_workload(decl, w, args.seed, seconds, args.trace) for w in known}
        print(json.dumps(results))
        sys.exit(0 if all(r["correct"] for r in results.values()) else 1)
    if args.workload not in known:
        fail(2, "unknown workload %r; known: %s" % (args.workload, ", ".join(known)))
    result = run_workload(decl, args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
