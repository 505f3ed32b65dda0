"""Tests of the benchmark harness itself (not of factorcrit).

    python3 -m unittest perfbench.test_harness      # from the repository root
"""

from __future__ import annotations

import copy
import json
import re
import tempfile
import unittest
from pathlib import Path

from perfbench import inputs, workloads
from perfbench.run import ROOT, load_expected, make_context
from perfbench.tracing import Tracer, attribute_snapshot, changed_attributes

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = tempfile.TemporaryDirectory()
        cls.expected = load_expected()

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def context(self, seed: int, name: str, expected: dict | None = None) -> workloads.Context:
        work = Path(self.tmp.name) / f"{name}-{seed}"
        work.mkdir(exist_ok=True)
        return make_context(seed, work, self.expected if expected is None else expected)

    def test_same_seed_gives_identical_inputs(self) -> None:
        for name, filename in (("survey8", "survey8.g6"), ("catalog10", "catalog10.g6")):
            workload = workloads.WORKLOADS[name]
            contents = []
            for run in ("a", "b", "c"):
                ctx = self.context(7 if run != "c" else 8, f"{name}-{run}")
                workload.setup(ctx)
                contents.append((ctx.work / filename).read_bytes())
            self.assertEqual(contents[0], contents[1], name)
            self.assertNotEqual(contents[0], contents[2], name)
        self.assertEqual(inputs.query_list(7), inputs.query_list(7))
        self.assertNotEqual(inputs.dense_graph6(7), inputs.dense_graph6(8))

    def test_codec_matches_program(self) -> None:
        fc = self.context(1, "codec").fc
        self.assertEqual(inputs.complete_bipartite_graph6(8, 10), fc.encode_graph6(fc.complete_bipartite(8, 10)))
        self.assertEqual(inputs.wheel_graph6(11), fc.encode_graph6(fc.wheel_graph(11)))
        dense = fc.parse_graph6(inputs.dense_graph6(3))
        self.assertGreaterEqual(dense.min_degree(), inputs.DENSE_MIN_DEGREE)
        line = inputs.catalog10_input(3, inputs.load_pool10()).lines[0]
        perm = [3, 1, 4, 0, 9, 2, 6, 5, 8, 7]
        self.assertEqual(fc.canonical_graph6(fc.parse_graph6(inputs.relabel(line, perm))),
                         fc.canonical_graph6(fc.parse_graph6(line)))

    def test_metric_names_match_benchmark_json(self) -> None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        tally = workloads.Tally()
        tally.record("main", "a", 1, 1.0, latency=True)
        tally.record("aux", "a", 1, 1.0, latency=False)
        e2e = workloads.end_to_end_metrics([1.0], tally, 1.0)
        layers = workloads.layer_metrics(Tracer(), {}, self.expected["gen"])
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(layers))
        for group, produced in (("end_to_end", e2e), ("per_layer", layers)):
            for metric in bench[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertLessEqual(len(metric["name"]), 64)
                self.assertEqual(metric["unit"], produced[metric["name"]][1], metric["name"])
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))

    def test_planted_wrong_count_is_a_failure(self) -> None:
        planted = copy.deepcopy(self.expected)
        planted["gen"]["6"]["lines"] += 1
        ctx = self.context(1, "planted", planted)
        ops = workloads.Ops()
        ops.run("gen6", lambda: ctx.fc.enumerate_catalog(6),
                lambda c: workloads._check_lines(c.graph6_lines, planted["gen"]["6"]))
        ops.run("gen5", lambda: ctx.fc.enumerate_catalog(5),
                lambda c: workloads._check_lines(c.graph6_lines, planted["gen"]["5"]))
        self.assertEqual((ops.attempted, ops.failed), (2, 1))
        self.assertIn("156 graphs, expected 157", ops.problems[0])

    def test_planted_wrong_query_output_is_a_failure(self) -> None:
        planted = copy.deepcopy(self.expected)
        planted["query"]["survey_gen6"]["stdout"]["minimal"] += 1
        ctx = self.context(1, "query", planted)
        query = workloads.WORKLOADS["query"]
        ops, tally = workloads.Ops(), workloads.Tally()
        query.cycle(ctx, query.setup(ctx), ops, tally, full=False)
        self.assertEqual(ops.failed, workloads.IN_PROCESS_REPEATS)
        self.assertIn("survey_gen6", ops.problems[0])
        self.assertEqual(ops.attempted, sum(len(times) for _, times in tally.aux.values()))

    def test_tracer_restores_every_attribute(self) -> None:
        ctx = self.context(1, "trace")
        fc = ctx.fc
        originals = (fc.search.is_k_factor_critical, fc.criticality.is_k_factor_critical,
                     fc.matching.PerfectMatcher.__dict__["pm_exists"], fc.cli.main)
        snapshot = attribute_snapshot()
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(fc.search.is_k_factor_critical, originals[0])
            fc.survey(fc.enumerate_catalog(6), 2)
            workloads.main_in_process(ctx, ["kfc", "--k", "2", "EhEG", "--json"])
        self.assertEqual(changed_attributes(snapshot), [])
        self.assertEqual(originals, (fc.search.is_k_factor_critical, fc.criticality.is_k_factor_critical,
                                     fc.matching.PerfectMatcher.__dict__["pm_exists"], fc.cli.main))
        self.assertGreater(tracer.stat("criticality.is_k_factor_critical").calls, 0)
        self.assertGreater(tracer.counts["matching.pm_exists.calls"], 0)
        self.assertGreater(tracer.stat("cli.main").calls, 0)

    def test_tracer_reports_an_attribute_left_changed(self) -> None:
        fc = self.context(1, "leak").fc
        original = fc.search.survey
        with self.assertRaises(RuntimeError):
            with Tracer().installed():
                fc.graph.planted_attribute = True
        del fc.graph.planted_attribute
        self.assertIs(fc.search.survey, original)


if __name__ == "__main__":
    unittest.main()
