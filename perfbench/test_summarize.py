"""Tests of the trace summarizer and the metric reduction (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import summarize

HERE = os.path.dirname(os.path.abspath(__file__))


def ev(cat, name, ph, tid, t, arg=0):
    return [cat, name, ph, tid, int(t * 1e9), arg]


def span(cat, name, tid, start, end):
    return [ev(cat, name, "B", tid, start), ev(cat, name, "E", tid, end)]


# A unit on thread 1 whose campaign fans trials out to threads 2-4. The
# trial on thread 4 lies inside the trial on thread 2 in time, but trials
# never parent trials: both belong to the campaign.
NESTED = sorted(
    span("bench", "unit", 1, 0, 10) + span("harness", "campaign", 1, 1, 9)
    + span("harness", "trial", 2, 2, 5) + span("harness", "trial", 3, 4, 8)
    + span("harness", "trial", 4, 3, 4) + span("harness", "trial", 1, 8.5, 9)
    + [ev("harness", "early_exit", "i", 2, 3)],
    key=lambda e: e[4])


class SpanTest(unittest.TestCase):
    def test_parents_follow_threads_then_containment(self):
        spans = summarize.spans_from_events(NESTED)
        by = {(s["name"], s["tid"]): s for s in spans}
        unit, campaign = by[("unit", 1)], by[("campaign", 1)]
        self.assertIsNone(unit["parent"])
        self.assertEqual(campaign["parent"], unit["id"])
        for tid in (1, 2, 3, 4):
            self.assertEqual(by[("trial", tid)]["parent"], campaign["id"])

    def test_self_time_subtracts_union_of_children(self):
        spans = summarize.spans_from_events(NESTED)
        own = summarize.self_times(spans)
        by = {(s["name"], s["tid"]): own[s["id"]] for s in spans}
        self.assertAlmostEqual(by[("unit", 1)], 10 - 8)
        # Children cover [2, 8] and [8.5, 9] of the campaign's [1, 9].
        self.assertAlmostEqual(by[("campaign", 1)], 8 - 6.5)
        self.assertAlmostEqual(by[("trial", 2)], 3)
        self.assertAlmostEqual(by[("trial", 4)], 1)

    def test_layer_sums_add_self_times_by_category(self):
        sums = summarize.layer_sums(summarize.spans_from_events(NESTED))
        self.assertAlmostEqual(sums["bench"], 2)
        self.assertAlmostEqual(sums["harness"], 1.5 + 3 + 4 + 1 + 0.5)
        # Serial, strictly nested spans add up to the root's duration.
        serial = span("bench", "unit", 1, 0, 4) + span("core", "study", 1, 1, 3)
        serial.sort(key=lambda e: e[4])
        self.assertAlmostEqual(
            sum(summarize.layer_sums(summarize.spans_from_events(serial)).values()), 4)

    def test_unbalanced_events_are_dropped(self):
        spans = summarize.spans_from_events(
            [ev("a", "x", "B", 1, 0), ev("a", "y", "B", 1, 1), ev("a", "y", "E", 1, 2)])
        self.assertEqual([s["name"] for s in spans], ["y"])
        self.assertIsNone(spans[0]["parent"])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(summarize.percentile(values, 50), 50)
        self.assertEqual(summarize.percentile(values, 99), 99)
        self.assertEqual(summarize.percentile([7], 99), 7)


def campaign(deployment, tallies, hist, trials=None, busy=0.5):
    counters = {name: 1 for name in COUNTERS}
    counters["shard.worker_restarts"] = 0
    counters["harness.trial_ops.buckets"] = [0] * 10 + [trials or sum(tallies)] + [0] * 53
    return {"deployment": deployment, "trials": trials or sum(tallies),
            "requested": trials or sum(tallies), "busy_s": busy,
            "tallies": tallies, "hist": hist, "counters": counters}


COUNTERS = ["simmpi.fused_collectives", "simmpi.mailbox_waits",
            "simmpi.buffer_allocs", "simmpi.buffer_reuses",
            "fsefi.countdown_refills", "harness.checkpoint_restores",
            "harness.early_exits", "harness.golden_hits", "harness.golden_misses",
            "harness.golden_waits", "golden_store.hits", "golden_store.misses",
            "harness.hang_aborts", "harness.deadlock_aborts",
            "shard.units_dispatched", "shard.worker_restarts"]

PROBES = ["simmpi.launch_us.r4", "simmpi.launch_us.r1024",
          "simmpi.allreduce_us.r4", "simmpi.allreduce_us.r1024",
          "simmpi.halo_us.r1024", "fsefi.ops_per_s.cg_s", "fsefi.ops_per_s.ft_s",
          "apps.clean_run_ms.cg_s4", "apps.clean_run_ms.ft_s4",
          "apps.clean_run_ms.cg_c1024", "harness.store_save_ms",
          "harness.store_load_ms", "shard.frame_rt_us", "core.predict_us"] + [
    "harness.golden_profile_ms." + d
    for d in ("cg_s4", "ft_s4", "cg_c1", "cg_c4", "cg_c1024")] + [
    "simmpi.%s_per_run.%s" % (k, d) for k in ("msgs", "bytes")
    for d in ("cg_s4", "ft_s4", "cg_c1024")]


def make_doc(workload="campaign", tallies=(7, 2, 1, 0)):
    units = []
    for index in (-1, 0, 1, 2):
        unit = {"index": index, "traced": index == 1, "ok": True,
                "elapsed_s": 10.0 if index == 1 else 9.0, "rss_mb": 12.5,
                "campaigns": [campaign("cg_s4", list(tallies), [0, 9, 1, 0, 0])]}
        if index == 1:
            unit["events"] = NESTED
        units.append(unit)
    return {"workload": workload, "seed": 5, "host": {"executor_width": 4},
            "setup_s": [0.3, 0.1, 0.2], "children_rss_mb": 0.0, "units": units,
            "checks": [], "probes": {"values": {p: 1.0 for p in PROBES},
                                     "errors": [], "attempted": 5}}


class ReduceTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
        for key, values in (("end_to_end", summarize.end_to_end(make_doc())),
                            ("per_layer", summarize.per_layer(make_doc()))):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(sorted(values), sorted(declared), key)
            for name in values:
                self.assertRegex(name, pattern)
                self.assertTrue(declared[name], name)

    def test_end_to_end_uses_untraced_timed_units(self):
        m = summarize.end_to_end(make_doc())
        self.assertEqual(m["elapsed_s"], 9.0)
        self.assertAlmostEqual(m["trials_per_s"], 10 / 9.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_layer_report_against_traced_elapsed(self):
        doc = make_doc()
        sums, elapsed = summarize.layer_report(doc)
        self.assertEqual(elapsed, 10.0)
        self.assertAlmostEqual(sums["bench"], 2)
        self.assertAlmostEqual(summarize.per_layer(doc)["telemetry.layer_sum_ratio"],
                               sum(sums.values()) / elapsed)
        self.assertAlmostEqual(summarize.per_layer(doc)["telemetry.trace_overhead"],
                               10.0 / 9.0)

    def test_oracle_counts_mismatches(self):
        doc = make_doc()
        self.assertEqual(summarize.check_outputs(doc, None)[0], 0)
        doc["units"][2]["campaigns"][0]["tallies"] = [6, 3, 1, 0]
        self.assertEqual(summarize.check_outputs(doc, None)[0], 1)
        reference = {"cg_s4#0": {"tallies": [6, 3, 1, 0], "hist": [0, 9, 1, 0, 0]}}
        self.assertEqual(summarize.check_outputs(doc, reference)[0], 3)
        doc["units"][2]["ok"] = False
        doc["units"][2]["error"] = "boom"
        self.assertEqual(summarize.check_outputs(doc, reference)[0], 4)

    def test_worker_restart_fails_the_unit(self):
        doc = make_doc("sharded")
        doc["units"][1]["campaigns"][0]["counters"]["shard.worker_restarts"] = 1
        failed, notes = summarize.check_outputs(doc, None)
        self.assertEqual(failed, 1)
        self.assertIn("restarted", notes[0])


if __name__ == "__main__":
    unittest.main()
