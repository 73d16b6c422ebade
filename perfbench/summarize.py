"""Reduce one driver document to the benchmark's metrics.

The C++ driver (driver.cpp) measures; this module derives every metric
named in BENCHMARK.json from what it measured, checks the outputs against
the committed references, and summarizes traces:

* spans_from_events() pairs the begin/end events of a trace into spans
  and gives each its parent: the enclosing span on the same thread, or
  for the outermost span of a thread (an executor worker running a trial
  or a study phase), the innermost span of another name on another
  thread that contains it.
* self_times() is each span's duration minus the part of it that its
  child spans cover.
* layer_sums() adds self times by category, which is the layer: "bench"
  (the driver itself), "harness", "core", "shard", ...
"""

import statistics

UNIT_LIMIT_S = 60.0  # a unit slower than this counts as timed out
STUDY_PHASES = ("serial_sweep", "small_campaign", "large_profile",
                "large_campaign")


def median(values):
    return statistics.median(values) if values else 0.0


# ---- traces ------------------------------------------------------------------

def spans_from_events(events):
    """Spans of a trace given as [cat, name, ph, tid, ts_ns, arg] events.

    Returns dicts with id, cat, name, tid, start, end (seconds), arg and
    parent (an id, or None for a root). Unbalanced events are dropped.
    """
    spans = []
    open_by_tid = {}
    for cat, name, ph, tid, ts_ns, arg in events:
        stack = open_by_tid.setdefault(tid, [])
        if ph == "B":
            span = {"id": len(spans), "cat": cat, "name": name, "tid": tid,
                    "start": ts_ns * 1e-9, "end": None, "arg": arg,
                    "parent": stack[-1]["id"] if stack else None}
            spans.append(span)
            stack.append(span)
        elif ph == "E" and stack:
            stack.pop()["end"] = ts_ns * 1e-9
    spans = [s for s in spans if s["end"] is not None]
    kept = {s["id"] for s in spans}
    for s in spans:
        if s["parent"] not in kept:
            s["parent"] = None
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    for s in spans:
        if s["parent"] is not None:
            continue
        # The outermost span of a thread was caused by work on another
        # thread: take the innermost span there that contains it. A span
        # never parents one of its own name (trials run side by side).
        # This is a heuristic: where unrelated work overlaps, a span that
        # merely contains another in time may be taken as its parent.
        best = None
        for name, group in by_name.items():
            if name == s["name"]:
                continue
            for p in group:
                if (p["tid"] != s["tid"]
                        and p["start"] <= s["start"] and s["end"] <= p["end"]
                        and (best is None or p["start"] >= best["start"])):
                    best = p
        s["parent"] = best["id"] if best else None
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def layer_sums(spans):
    """Self time added up per layer (span category)."""
    own = self_times(spans)
    sums = {}
    for s in spans:
        sums[s["cat"]] = sums.get(s["cat"], 0.0) + own[s["id"]]
    return sums


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---- output oracle -------------------------------------------------------------

def outcome_key(campaign):
    """Campaigns of one deployment and round repeat exactly."""
    return "%s#%d" % (campaign["deployment"], campaign.get("round", 0))


def outcome_record(workload, unit, campaign):
    """What must repeat exactly for one campaign of one unit."""
    record = {"tallies": campaign["tallies"]}
    if workload == "predict":
        record.update(unit["prediction"])
    else:
        record["hist"] = campaign["hist"]
    return record


def same_outcome(a, b):
    for key in set(a) | set(b):
        x, y = a.get(key), b.get(key)
        if key in ("predicted", "measured"):
            if (x is None or y is None or len(x) != len(y)
                    or any(abs(p - q) > 1e-12 for p, q in zip(x, y))):
                return False
        elif x != y:
            return False
    return True


def check_outputs(doc, reference):
    """Failed-unit count and messages. With `reference` (the committed one
    for the run's seed) each unit must match it; otherwise each must match
    the run's first unit."""
    workload = doc["workload"]
    expected = dict(reference or {})
    failures, notes = 0, []
    for unit in doc["units"]:
        bad = []
        if not unit["ok"]:
            bad.append("threw: " + unit.get("error", "?"))
        elif unit["elapsed_s"] > UNIT_LIMIT_S:
            bad.append("timed out after %.1f s" % unit["elapsed_s"])
        else:
            for c in unit["campaigns"]:
                got = outcome_record(workload, unit, c)
                want = expected.setdefault(outcome_key(c), got)
                if not same_outcome(got, want):
                    bad.append("%s outcome %s != %s" % (outcome_key(c), got, want))
                if c["counters"]["shard.worker_restarts"]:
                    bad.append("%s: shard worker restarted" % c["deployment"])
        if bad:
            failures += 1
            notes.append("unit %d: %s" % (unit["index"], "; ".join(bad)))
    for check in doc["checks"]:
        if check["kind"] != "in_process":
            failures += 1
            notes.append("check failed: " + check.get("error", "?"))
            continue
        c = check["campaign"]
        got = {"tallies": c["tallies"], "hist": c["hist"]}
        want = expected.get(outcome_key(c))
        if want is None or not same_outcome(got, want):
            failures += 1
            notes.append("in-process %s %s != sharded %s" % (outcome_key(c), got, want))
    return failures, notes


def first_outcomes(doc):
    """Per-deployment outcome records of the run's first units, in the
    shape references.json stores."""
    out = {}
    for unit in doc["units"]:
        for c in unit.get("campaigns", []):
            out.setdefault(outcome_key(c), outcome_record(doc["workload"], unit, c))
    return out


# ---- metrics -------------------------------------------------------------------

def trial_ops_mean(buckets):
    """Mean of a log2-bucketed histogram (bucket b holds [2^(b-1), 2^b)),
    taking each bucket at its midpoint."""
    n = sum(buckets)
    if not n:
        return 0.0
    return sum(c * (0 if b == 0 else 1.5 * 2 ** (b - 1))
               for b, c in enumerate(buckets)) / n


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(doc):
    """End-to-end metrics from the untraced timed units."""
    timed = [u for u in doc["units"]
             if u["index"] >= 0 and not u["traced"] and u["ok"]]
    return {
        "trials_per_s": median([sum(c["trials"] for c in u["campaigns"])
                                / u["elapsed_s"] for u in timed]),
        "elapsed_s": median([u["elapsed_s"] for u in timed]),
        "setup_s": median(doc["setup_s"]),
    }


def peak_rss_mb(doc):
    """Median over the timed units of the driver's resident high-water mark
    during the unit; for sharded, at least the workers' peak."""
    timed = [u for u in doc["units"] if u["index"] >= 0 and u["ok"]]
    return max(median([u["rss_mb"] for u in timed]), doc["children_rss_mb"])


def per_layer(doc):
    """Per-layer metrics of a traced run (see README.md for each one's
    meaning and the end-to-end metric it should move)."""
    workload = doc["workload"]
    probes = doc["probes"]["values"]
    units = [u for u in doc["units"] if u["index"] >= 0 and u["ok"]]
    untraced = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    campaigns = [c for u in units for c in u["campaigns"]]
    trials = sum(c["trials"] for c in campaigns)

    def total(name):
        return sum(c["counters"][name] for c in campaigns)

    def per_trial(name):
        return ratio(total(name), trials)

    def busy(u):
        return sum(c["busy_s"] for c in u["campaigns"])

    width = doc["host"]["executor_width"]
    shards = untraced[0].get("shards", 0) if untraced else 0
    m = {}

    # simmpi: probes, then counts per trial. Messages and bytes are those
    # of a clean full run of each campaign's deployment, weighted by its
    # trials (predict: the 1024-rank run, its critical path).
    for name in ("launch_us.r4", "launch_us.r1024", "allreduce_us.r4",
                 "allreduce_us.r1024", "halo_us.r1024"):
        m["simmpi." + name] = probes["simmpi." + name]
    m["simmpi.fused_per_trial"] = per_trial("simmpi.fused_collectives")
    for kind in ("msgs", "bytes"):
        m["simmpi.%s_per_trial" % kind] = ratio(
            sum(c["trials"] * probes["simmpi.%s_per_run.%s" % (kind, c["deployment"])]
                for c in campaigns), trials)
    m["simmpi.mailbox_waits_per_trial"] = per_trial("simmpi.mailbox_waits")
    allocs = total("simmpi.buffer_allocs")
    m["simmpi.buffer_alloc_ratio"] = ratio(allocs, allocs + total("simmpi.buffer_reuses"))

    # fsefi
    m["fsefi.ops_per_s.cg_s"] = probes["fsefi.ops_per_s.cg_s"]
    m["fsefi.ops_per_s.ft_s"] = probes["fsefi.ops_per_s.ft_s"]
    buckets = [0] * 64
    for c in campaigns:
        for b, n in enumerate(c["counters"]["harness.trial_ops.buckets"]):
            buckets[b] += n
    m["fsefi.ops_per_trial"] = trial_ops_mean(buckets)
    m["fsefi.refills_per_trial"] = per_trial("fsefi.countdown_refills")

    # apps
    for d in ("cg_s4", "ft_s4", "cg_c1024"):
        m["apps.clean_run_ms." + d] = probes["apps.clean_run_ms." + d]

    # harness
    for d in ("cg_s4", "ft_s4", "cg_c1", "cg_c4", "cg_c1024"):
        m["harness.golden_profile_ms." + d] = probes["harness.golden_profile_ms." + d]
    trial_ms = []
    for events in [u["events"] for u in traced] + [doc.get("check_events", [])]:
        trial_ms += [1e3 * (s["end"] - s["start"]) for s in spans_from_events(events)
                     if s["cat"] == "harness" and s["name"] == "trial"]
    m["harness.trial_p50_ms"] = percentile(trial_ms, 50) if trial_ms else 0.0
    m["harness.trial_p99_ms"] = percentile(trial_ms, 99) if trial_ms else 0.0
    m["harness.trial_samples"] = len(trial_ms)
    m["harness.trial_seconds"] = median([busy(u) for u in untraced])
    m["harness.executor_busy_frac"] = 0.0 if workload == "sharded" else median(
        [busy(u) / (u["elapsed_s"] * width) for u in untraced])
    m["harness.restore_ratio"] = per_trial("harness.checkpoint_restores")
    m["harness.early_exit_ratio"] = per_trial("harness.early_exits")
    hits = total("harness.golden_hits") + total("golden_store.hits")
    lookups = hits + total("harness.golden_misses") + total("golden_store.misses")
    m["harness.golden_hit_ratio"] = ratio(hits, lookups)
    m["harness.golden_waits"] = ratio(total("harness.golden_waits"), len(units))
    m["harness.adaptive_exec_ratio"] = ratio(trials, sum(c["requested"] for c in campaigns))
    m["harness.store_save_ms"] = probes["harness.store_save_ms"]
    m["harness.store_load_ms"] = probes["harness.store_load_ms"]
    m["harness.hang_aborts"] = per_trial("harness.hang_aborts")
    m["harness.deadlock_aborts"] = per_trial("harness.deadlock_aborts")

    # shard
    m["shard.busy_frac"] = median([busy(u) / (u["elapsed_s"] * shards)
                                   for u in untraced]) if shards else 0.0
    m["shard.frame_rt_us"] = probes["shard.frame_rt_us"]
    m["shard.units"] = ratio(total("shard.units_dispatched"), len(units))
    m["shard.worker_restarts"] = total("shard.worker_restarts")

    # core: each phase's extent (first begin to last end) per traced unit.
    for phase in STUDY_PHASES:
        extents = []
        for u in traced:
            spans = [s for s in spans_from_events(u["events"])
                     if s["cat"] == "core" and s["name"] == phase]
            if spans:
                extents.append(max(s["end"] for s in spans)
                               - min(s["start"] for s in spans))
        m["core.phase_s." + phase] = median(extents)
    m["core.predict_us"] = probes["core.predict_us"]
    m["core.predict_err_pp"] = median(
        [100 * abs(u["prediction"]["predicted"][0] - u["prediction"]["measured"][0])
         for u in units if "prediction" in u])

    m["process.peak_rss_mb"] = peak_rss_mb(doc)

    # telemetry
    m["telemetry.trace_overhead"] = ratio(median([u["elapsed_s"] for u in traced]),
                                          median([u["elapsed_s"] for u in untraced]))
    sums, elapsed = layer_report(doc)
    m["telemetry.layer_sum_ratio"] = ratio(sum(sums.values()), elapsed)
    return m


def layer_report(doc):
    """Self time per layer over the traced units, and their elapsed sum."""
    sums = {}
    elapsed = 0.0
    for u in doc["units"]:
        if u["index"] >= 0 and u["traced"] and u["ok"]:
            elapsed += u["elapsed_s"]
            for layer, t in layer_sums(spans_from_events(u["events"])).items():
                sums[layer] = sums.get(layer, 0.0) + t
    return sums, elapsed
