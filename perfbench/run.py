#!/usr/bin/env python3
"""Repo benchmark: build the conflux library and the benchmark binary, run
one workload, check its outputs, and print one result line.

    python3 perfbench/run.py --workload dense-2048 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py            # every workload, one after the other
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The build goes to .bench_build/ and every
record to .bench_out/, both inside the checkout. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json for --trace 0, its per-layer metrics
for --trace 1. The lines before it give every metric with its unit and
sample count, the provenance of the run, and (traced runs) the tracing
overhead and the metrics a workload could not measure, with the reason.
Without --workload every workload runs, dense-2048-1t included, and the last
line maps each workload to its result.

--smoke runs all three workloads at small sizes, traced and untraced, in
seconds, and checks every metric name, unit and field of their output.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "conflux_perfbench")

# Each workload: the code path of the binary and the thread widths it pins.
# None leaves a width at the program's default (all cores). dense-2048 runs
# two threads: on a shared host of few cores, a team as wide as the machine
# waits at every barrier for whichever core a neighbour holds.
WORKLOADS = {
    "dense-2048": ("dense-2048", min(2, os.cpu_count() or 1)),
    "dense-2048-1t": ("dense-2048", 1),
    "serve-mix": ("serve-mix", None),
}

# A run, all its processes together, must end within this many seconds
# after the build.
RUN_TIMEOUT_S = 170
# Untraced runs split their time over this many processes and pool the
# samples: per-process effects (where the big matrices land in physical
# memory, and contention on the shared host) then average out of the
# medians instead of moving them. It also repeats the full set-up, library
# start-up included, once per process.
PROCESSES = 3
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


# The child process running now. A SIGTERM or SIGINT stops it and waits for
# it before this script exits, so no process outlives the benchmark.
_child = None


def _stop(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def call(cmd, timeout=None, **kw):
    """Run cmd to its end (or kill it at the timeout and raise
    TimeoutExpired); return its exit code and its stdout."""
    global _child
    with subprocess.Popen(cmd, **kw) as p:
        _child = p
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise
        finally:
            _child = None
    return p.returncode, out


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then build the binary (incremental on later runs)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no conflux sources next to perfbench/ (need CMakeLists.txt and src/)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "conflux_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        code, _ = call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))
    if not os.path.isfile(BINARY):
        fail("build produced no " + BINARY)


def child_env(width):
    """The environment of a run: program defaults, nothing inherited that
    changes what is measured, and every width pinned when asked."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CONFLUX_", "XBLAS_", "OMP_", "GOMP_", "KMP_"))}
    # A tuning file outside the checkout would change the blocks used and
    # make the run read outside it: point at one that does not exist, so the
    # program uses its built-in defaults (tuning_source "default").
    env["XBLAS_TUNING_FILE"] = os.path.join(BUILD, "no-tuning-file.json")
    if width is not None:
        env["OMP_NUM_THREADS"] = str(width)
        env["CONFLUX_POOL_THREADS"] = str(width)
        env["XBLAS_THREADS"] = str(width)
    return env


def run_child(workload, seed, seconds, trace, smoke, tag, deadline):
    path, width = WORKLOADS[workload]
    cmd = [BINARY, "--workload=" + path, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--smoke=%d" % int(smoke)]
    if trace:
        cmd.append("--spans=" + os.path.join(OUT, tag + ".spans.json"))
    try:
        code, out = call(cmd, env=child_env(width), stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if code != 0 or not lines:
        fail("%s exited %d without a record" % (workload, code))
    return json.loads(lines[-1][len("RESULT "):])


def median(v):
    v = sorted(v)
    h = len(v) // 2
    return v[h] if len(v) % 2 else 0.5 * (v[h - 1] + v[h])


def pool(recs):
    """One record from the records of several processes of one run. Each
    median-valued metric comes as samples; its value is the median of the
    pooled samples."""
    rec = dict(recs[0])
    rec["attempted"] = sum(r["attempted"] for r in recs)
    rec["failed"] = sum(r["failed"] for r in recs)
    rec["failures"] = [f for r in recs for f in r["failures"]][:8]
    if any(r["digests"] != rec["digests"] for r in recs):
        # Same seed, same inputs: every process must produce the same factors.
        rec["attempted"] += 1
        rec["failed"] += 1
        rec["failures"].append("factor digests differ between processes")
    raw = {k: {"unit": v["unit"], "values": [x for r in recs for x in r["raw"][k]["values"]]}
           for k, v in rec["raw"].items()}
    metrics = {}
    for name, m in rec["metrics"].items():
        m = dict(m)
        if name == "peak_rss_mb":
            m["value"] = max(r["metrics"][name]["value"] for r in recs)
        elif name == "ok_frac":
            m["value"] = (rec["attempted"] - rec["failed"]) / rec["attempted"]
            m["samples"] = rec["attempted"]
        metrics[name] = m
    for name, r in raw.items():
        metrics[name] = {"value": median(r["values"]), "unit": r["unit"],
                         "samples": len(r["values"])}
    rec["metrics"], rec["raw"] = metrics, raw
    rec["provenance"] = dict(rec["provenance"])
    rec["provenance"]["steal_s"] = sum(r["provenance"]["steal_s"] for r in recs)
    rec["provenance"]["processes"] = len(recs)
    return rec


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload (untraced: over PROCESSES processes) and save the
    record under .bench_out."""
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-s%d-t%d%s" % (workload, seed, trace, "-smoke" if smoke else "")
    procs = 1 if trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    rec = pool([run_child(workload, seed, seconds / procs, trace, smoke, tag, deadline)
                for _ in range(procs)])
    rec["workload"] = workload
    rec["pinned_width"] = WORKLOADS[workload][1]
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    return rec


def finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_record(rec, wanted):
    """Problems with a record against the metric list it must carry."""
    problems = []
    for key in ("attempted", "failed", "metrics", "provenance", "digests", "notes"):
        if key not in rec:
            problems.append("record lacks field %r" % key)
    metrics = rec.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("metric %s missing" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, not %r" % (m["name"], got.get("unit"), m["unit"]))
        elif not finite(got.get("value")) or not isinstance(got.get("samples"), int):
            problems.append("metric %s has no finite value or sample count" % m["name"])
    prov = rec.get("provenance", {})
    for key in ("nproc", "omp_threads", "pool_threads", "blas_threads", "isa",
                "tuning_source", "git_describe", "load1_at_start", "steal_s", "processes",
                "calibration_ref_s"):
        if key not in prov:
            problems.append("provenance lacks %r" % key)
    if rec.get("pinned_width") is not None:
        for key in ("omp_threads", "pool_threads", "blas_threads"):
            if prov.get(key) != rec["pinned_width"]:
                problems.append("%s is %r, not the pinned %r" % (key, prov.get(key), rec["pinned_width"]))
    return problems


def report(rec, wanted):
    """Human-readable lines: every metric with unit and samples, provenance."""
    prov = rec["provenance"]
    print("workload %s seed %d trace %d: attempted %d failed %d" % (
        rec["workload"], rec["seed"], int(rec["trace"]), rec["attempted"], rec["failed"]))
    print("provenance: nproc %d, widths omp %d pool %d blas %d, isa %s, tuning %s, git %s, "
          "load1 at start %.2f, steal %.2f s, %d process(es)" % (
              prov["nproc"], prov["omp_threads"], prov["pool_threads"], prov["blas_threads"],
              prov["isa"], prov["tuning_source"], prov["git_describe"],
              prov["load1_at_start"], prov["steal_s"], prov["processes"]))
    cal = rec["metrics"].get("calibration_s")
    if cal is not None:
        print("calibration: median %.4f s over %d samples; setup_s and the *_ref_s timings are "
              "wall time scaled by %g s over the calibration next to each sample" % (
                  cal["value"], cal["samples"], prov["calibration_ref_s"]))
    names = [m["name"] for m in wanted]
    for name in names + sorted(set(rec["metrics"]) - set(names)):
        m = rec["metrics"][name]
        print("  %-24s %14.6g %-6s samples %d" % (name, m["value"], m["unit"], m["samples"]))
    for name, why in sorted(rec["notes"].items()):
        print("  note %s: %s" % (name, why))
    for name, value in sorted(rec.get("checks", {}).items()):
        print("  check %s = %.6g" % (name, value))
    for name, value in sorted(rec["digests"].items()):
        print("  digest %s %s" % (name, value))
    for f in rec.get("failures", []):
        print("  FAILED: " + f)
    if rec["trace"]:
        over = rec["metrics"].get("trace.overhead_pct")
        if over is not None:
            print("tracing overhead: %+.2f%% (traced minus untraced, over untraced)" % over["value"])


def result_line(rec, wanted, problems):
    metrics = {m["name"]: {"value": rec["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in wanted if m["name"] in rec["metrics"]}
    correct = not problems and rec["failed"] == 0 and rec["attempted"] >= 1
    return {"correct": correct, "attempted": int(rec["attempted"]),
            "failed": int(rec["failed"]), "metrics": metrics}


def smoke(spec):
    """All workloads, small sizes, traced and untraced: check the output."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            rec = run(workload, 7, 2, trace, smoke=True)
            problems = check_record(rec, wanted)
            line = result_line(rec, wanted, problems)
            if sorted(line) != sorted(RESULT_KEYS) or len(line["metrics"]) != len(wanted):
                problems.append("result line does not carry every metric")
            if rec["failed"]:
                problems.append("%d failed checks: %s" % (rec["failed"], rec["failures"]))
            print("smoke %-14s trace %d: %s" % (
                workload, trace, "ok" if not problems else "; ".join(problems)))
            bad += len(problems)
    print(json.dumps({"smoke_ok": bad == 0}))
    return 0 if bad == 0 else 1


def main():
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    build()
    if args.smoke:
        return smoke(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        rec = run(workload, args.seed, seconds, args.trace)
        problems = check_record(rec, wanted)
        report(rec, wanted)
        for p in problems:
            print("  PROBLEM: " + p)
        results[workload] = result_line(rec, wanted, problems)
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
