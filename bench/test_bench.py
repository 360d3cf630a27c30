"""Self-tests of the benchmark: determinism, the deadline, the exit rule.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each traced run starts in a fresh interpreter, as the benchmark's runs
do, so the library's caches and its process-global random generator
start from the same state.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import KNOWN_DEADLINE_PAIRS, WORKLOADS, Query, generate  # noqa: E402

# seeds kept apart from the ones used while tuning the benchmark; use
# these to validate a claimed gain
VALIDATION_SEEDS = tuple(range(101, 111))

# a short prefix of each workload, long enough to touch its layers
PREFIX = {"ident-sweep": 3, "ext-highdeg": 3, "quiver-orbits": 40, "cli-session": 40}


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _traced(workload: str, seed: int) -> tuple[str, dict]:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "40",
                "--trace", "1", "--queries", str(PREFIX[workload]))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split("answers_digest=")[1]
    return digest, json.loads(lines[-1])


class QueryListTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in WORKLOADS:
            first = [q.text() for q in generate(workload, 7)]
            self.assertEqual(first, [q.text() for q in generate(workload, 7)])

    def test_other_seed_other_list(self):
        for workload in WORKLOADS:
            self.assertNotEqual([q.text() for q in generate(workload, 7)],
                                [q.text() for q in generate(workload, 8)])

    def test_validation_seeds_differ_from_tuning_seeds(self):
        tuning = {tuple(q.text() for q in generate("ident-sweep", s)) for s in range(1, 11)}
        for seed in VALIDATION_SEEDS:
            self.assertNotIn(tuple(q.text() for q in generate("ident-sweep", seed)), tuning)


class TracedRunTest(unittest.TestCase):
    def test_two_traced_runs_repeat_counts_and_answers(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digest1, out1 = _traced(workload, 3)
                digest2, out2 = _traced(workload, 3)
                self.assertTrue(out1["correct"])
                self.assertEqual(out1["failed"], 0)
                self.assertEqual(digest1, digest2)
                counts = {
                    name for name, m in out1["metrics"].items()
                    if m["unit"] in ("count", "ratio", "bytes")
                    and not name.startswith("trace.overhead")
                }
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(out1["metrics"][name], out2["metrics"][name], name)


class DeadlineTest(unittest.TestCase):
    def test_known_dimension_four_pair_fails_at_the_deadline(self):
        api = run._import_library()
        run.signal.signal(run.signal.SIGALRM, run._on_alarm)
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
        first, second = KNOWN_DEADLINE_PAIRS[0]
        query = Query("conj_neg", (first, second, ident, ident))
        outcome = run.run_queries(api, [query], seconds=60, deadline=1.0)
        self.assertEqual((outcome["attempted"], outcome["failed"]), (1, 1))
        self.assertEqual(outcome["latencies"], [])


class ExitRuleTest(unittest.TestCase):
    def test_without_sources_the_run_fails_without_a_result(self):
        bare = BENCH / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH.glob("*.py"):
                shutil.copy(path, bare / "bench")
            proc = _run("--workload", "ident-sweep", "--seed", "1", "--seconds", "5",
                        "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
