#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload campaign|predict|sharded \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run builds the library and
the driver (optimized) under .bench_build/perfbench. Every metric is
printed by name with its unit; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). README.md in this directory describes the workloads.

--update-reference rewrites this workload's entry of references.json from
the run (only at the default seed); do it only when a change is meant to
alter campaign outcomes.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # write nothing outside .bench_build
sys.path.insert(0, HERE)
import summarize  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
REFERENCES = os.path.join(HERE, "references.json")
DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # the driver's share of a run's time limit


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; returns the build seconds."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    start = time.monotonic()
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench_driver"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return time.monotonic() - start


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_driver(args, env, work):
    """Run the driver in its own process group; returns its document."""
    out = os.path.join(work, "result.json")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--work", work]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("driver exceeded %d s" % RUN_LIMIT_S)
    finally:
        # Shard workers of a crashed driver would outlive it otherwise.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        fail("driver exited with code %d" % code)
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign", "predict", "sharded"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units = (e2e_units if not args.trace
             else {m["name"]: m["unit"] for m in spec["per_layer"]})

    # Library knobs would change what is measured; clear and stamp them.
    cleared = sorted(k for k in os.environ if k.startswith("RESILIENCE_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("RESILIENCE_")}

    build_s = build()
    load_before = os.getloadavg()
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        doc = run_driver(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    host = doc["host"]
    nproc = os.cpu_count() or 1
    # The load after a run includes the run's own threads and processes;
    # the load before it is what else the host was doing.
    print("host: nproc %d, load %.2f before, %.2f after%s, build %s, compiler %s,"
          " commit %s" % (nproc, load_before[0], load_after[0],
                          " (LOADED: load before the run exceeds nproc)"
                          if load_before[0] > nproc else "",
                          host["build_type"], host["compiler"], commit()))
    print("host: executor width %d, fiber workers %d (4 ranks) / %d (1024 ranks),"
          " cleared knobs: %s, build step %.1f s"
          % (host["executor_width"], host["fiber_workers_r4"],
             host["fiber_workers_r1024"], ", ".join(cleared) or "none", build_s))

    references = {}
    if os.path.isfile(REFERENCES):
        with open(REFERENCES) as f:
            references = json.load(f)
    reference = (references.get(args.workload)
                 if args.seed == references.get("seed") else None)
    if args.update_reference:
        if args.seed != DEFAULT_SEED:
            fail("references are recorded at the default seed %d" % DEFAULT_SEED)
        references["seed"] = DEFAULT_SEED
        references[args.workload] = summarize.first_outcomes(doc)
        with open(REFERENCES, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")
        reference = references[args.workload]

    failed, notes = summarize.check_outputs(doc, reference)
    attempted = len(doc["units"]) + len(doc["checks"])
    if args.trace:
        attempted += doc["probes"]["attempted"]
        failed += len(doc["probes"]["errors"])
        notes += ["probe " + e for e in doc["probes"]["errors"]]
    for note in notes:
        print("FAILED " + note)

    e2e = summarize.end_to_end(doc)
    values = summarize.per_layer(doc) if args.trace else e2e
    if sorted(values) != sorted(units):
        fail("metrics do not match BENCHMARK.json: %s"
             % sorted(set(values) ^ set(units)))

    timed = [u for u in doc["units"] if u["index"] >= 0]
    print("%s: seed %d, %d timed units (%d traced), oracle: %s"
          % (args.workload, args.seed, len(timed), sum(u["traced"] for u in timed),
             "committed reference" if reference else "first unit of the run"))
    rows = [(name, value, e2e_units[name]) for name, value in sorted(e2e.items())]
    rows += [("failed_frac", failed / attempted, "ratio"),
             ("peak_rss_mb", summarize.peak_rss_mb(doc), "MB")]
    if args.trace:
        rows += [(name, value, units[name]) for name, value in sorted(values.items())]
    for row in rows:
        print("  %-34s %14.6g %s" % row)
    if args.trace:
        sums, elapsed = summarize.layer_report(doc)
        print("  layer self time over %.3f s traced elapsed: %s (sum %.3f s)"
              % (elapsed, ", ".join("%s %.3f s" % kv for kv in sorted(sums.items())),
                 sum(sums.values())))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))


if __name__ == "__main__":
    main()
