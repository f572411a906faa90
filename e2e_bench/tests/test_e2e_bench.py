"""Self-tests of the end-to-end search benchmark.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s e2e_bench/tests -v

Every run here uses tiny inputs (8 taxa x 120 sites) through run.py, so the
whole suite exercises the real build, input generation, reference lookup and
result line in a few seconds after the build.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e_bench"
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REFERENCE_LINE = re.compile(r"^\d+ [0-9a-f]{16} \d+ [0-9a-f]{16} [0-9a-f]{16}$")
TINY = ["--taxa", "8", "--sites", "120"]
# |unattributed| may be at most this share of the traced search_s; so may the
# gap between the table's round rows and the search's own round spans.
UNATTRIBUTED_BOUND = 0.02
# Stored references doctored by the tests (the real ones stay untouched).
TEST_REFS = BUILD_DIR / "test-refs"


def bench(workload, seed, trace, refs=None):
    extra = ["--refs", str(refs)] if refs else []
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         *TINY, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}:\n{done.stdout}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tag(workload, seed, trace):
    return f"{workload}-seed{seed}-8x120-trace{trace}.json"


def record(workload, seed, trace):
    return json.loads((BUILD_DIR / "results" / tag(workload, seed, trace)).read_text())


def search_span_seconds(workload, seed):
    """Sum of the search's own per-round spans (obs tracer, src/search)."""
    trace = json.loads((BUILD_DIR / "traces" / tag(workload, seed, 1)).read_text())
    opened = {}
    total_us = 0.0
    for event in trace["traceEvents"]:
        if event.get("cat") != "search":
            continue
        if event["ph"] == "B":
            opened[event["tid"]] = event["ts"]
        elif event["ph"] == "E":
            total_us += event["ts"] - opened.pop(event["tid"])
    return total_us * 1e-6


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads():
    binary = run.build(ROOT, BUILD_DIR)
    return run.call(binary, "list").split()


class MetricGrammar(unittest.TestCase):
    def test_declared_metrics_follow_the_grammar(self):
        spec = declared()
        names = set()
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
                self.assertNotIn(metric["name"], names)
                names.add(metric["name"])
            for metric in spec["end_to_end"]:
                self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_declared_workloads_are_the_binarys(self):
        self.assertEqual([w["name"] for w in declared()["workloads"]], workloads())


class StoredReferences(unittest.TestCase):
    def test_every_stored_line_parses(self):
        files = sorted(run.STORED_REFS.glob("*.txt"))
        self.assertTrue(files)
        for path in files:
            lines = [line for line in path.read_text().splitlines()
                     if not line.startswith("#")]
            self.assertTrue(lines, path.name)
            for line in lines:
                self.assertRegex(line, REFERENCE_LINE)


class SmokeAllRunners(unittest.TestCase):
    def check_metrics(self, result, group):
        want = {m["name"]: m["unit"] for m in declared()[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_run_of_every_runner_is_correct(self):
        for workload in workloads():
            with self.subTest(workload=workload):
                result = bench(workload, 9001, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, "end_to_end")
                for name in ("search_s", "setup_s", "trees_per_s", "cpu_s",
                             "peak_rss_mb", "wire_bytes_per_task"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_run_table_matches_the_search_spans(self):
        for workload in workloads():
            with self.subTest(workload=workload):
                result = bench(workload, 9002, 1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, "per_layer")
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                self.assertEqual(metrics["bench.replay_mismatches"], 0)
                self.assertGreaterEqual(metrics["bench.trace_overhead_pairs"], 1)
                rec = record(workload, 9002, 1)
                rows = rec["table"]
                total = rec["traced_search_s"]
                self.assertGreater(total, 0)
                self.assertEqual(rows[0]["row"].split()[0], "search.master_s")
                self.assertEqual(rows[-1]["row"], "unattributed")
                for row in rows[:-1]:
                    self.assertGreaterEqual(row["s"], 0.0, row["row"])
                self.assertLessEqual(abs(rows[-1]["s"]),
                                     UNATTRIBUTED_BOUND * total)
                # The round rows, from the runner decorator's clock, against
                # the search's own round spans, which wrap each run_round.
                rounds = sum(row["s"] for row in rows[1:-1])
                spans = search_span_seconds(workload, 9002)
                self.assertLessEqual(spans, total)
                self.assertLessEqual(rounds, spans)
                self.assertLessEqual(spans - rounds, UNATTRIBUTED_BOUND * total)


class CorruptedReference(unittest.TestCase):
    def test_flipped_stored_reference_fails_every_search(self):
        binary = run.build(ROOT, BUILD_DIR)
        for workload, seed in (("rearrange-serial", 9003),
                               ("rearrange-thread3", 9004)):
            with self.subTest(workload=workload):
                shutil.rmtree(TEST_REFS, ignore_errors=True)
                TEST_REFS.mkdir(parents=True)
                spec = run.workload_spec(binary, workload)
                seeds = run.instance_seeds(seed, spec["instances"])

                # No stored reference: every input adopts one.
                first = bench(workload, seed, 0, refs=TEST_REFS)
                self.assertTrue(first["correct"])
                self.assertEqual(record(workload, seed, 0)["adopted_references"],
                                 spec["instances"])

                # The adopted answers, stored: nothing is adopted, all match.
                for cache in (BUILD_DIR / "refs").glob("default-search.*.txt"):
                    lines = {int(line.split()[0]): line
                             for line in cache.read_text().splitlines()
                             if line and not line.startswith("#")}
                    chosen = [lines[s] for s in seeds if s in lines]
                    if chosen:
                        (TEST_REFS / cache.name).write_text("\n".join(chosen) + "\n")
                second = bench(workload, seed, 0, refs=TEST_REFS)
                self.assertTrue(second["correct"])
                self.assertEqual(record(workload, seed, 0)["adopted_references"], 0)

                # One lnL bit flipped in every stored line: every search fails.
                for path in TEST_REFS.glob("*.txt"):
                    flipped = []
                    for line in path.read_text().splitlines():
                        fields = line.split()
                        fields[3] = f"{int(fields[3], 16) ^ 1:016x}"
                        flipped.append(" ".join(fields))
                    path.write_text("\n".join(flipped) + "\n")
                third = bench(workload, seed, 0, refs=TEST_REFS)
                self.assertFalse(third["correct"])
                self.assertEqual(third["failed"], third["attempted"])
                shutil.rmtree(TEST_REFS)


if __name__ == "__main__":
    unittest.main()
