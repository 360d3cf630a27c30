"""Run one seeded weyldeform workload and print its metrics.

    python3 bench/run.py --workload ident-sweep --seed 1 --seconds 30 --trace 0

One client in one process issues the workload's queries one after the
other (a closed loop), each only after the previous one returned.  The
run stops issuing queries after ``--seconds``; a query that runs past
the per-query deadline is aborted by a timer signal and counts as
failed.  Every answer is re-checked (see queries.py).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the layers are wrapped
(see tracing.py), the spans are written to ``bench/out/``, and the JSON
carries the per-layer metrics instead.  The lines before it name the
run's ``answers_digest``, a hash of every canonical answer in query
order, so two runs of the same code and seed must print the same one.

The library is imported from ``src/`` of the checkout this file sits
in, never from an installed copy; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

QUERY_DEADLINE_S = 30.0
SETUP_REPEATS = 7
# the traced run must finish the whole query list so its counts repeat,
# so it may issue queries for this many times --seconds
TRACE_TIME_FACTOR = 4
TAIL_BEYOND = 10
# The speed of the machine the benchmark was written on drifted by up to
# a factor of two within minutes (the reference kernel below took 9.8 ms,
# then 19 ms five minutes later).  So the run times that fixed kernel
# between queries, and reported times are scaled to a machine on which
# it takes REFERENCE_S; the raw figures are printed beside them.
REFERENCE_S = 0.010
REFERENCE_EVERY_S = 0.5

_clock = time.perf_counter


class QueryDeadline(BaseException):
    """Raised by the timer signal inside a query that ran too long.

    A BaseException, so that no ``except Exception`` in the library
    swallows it.
    """


def _on_alarm(signum, frame):
    raise QueryDeadline()


def _import_library():
    if not (SRC / "weyldeform" / "__init__.py").is_file():
        sys.stderr.write(f"no weyldeform sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import weyldeform
    import weyldeform.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(weyldeform.__file__).resolve().parent != SRC / "weyldeform":
        sys.stderr.write(f"weyldeform was imported from {weyldeform.__file__}\n")
        raise SystemExit(2)
    return weyldeform


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh processes that import and generate,
    and the machine speed around them."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    before = machine_sample()
    samples = []
    for _ in range(SETUP_REPEATS):
        start = _clock()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        samples.append(_clock() - start)
    speed = (before + machine_sample()) / 2 / REFERENCE_S
    return statistics.median(samples), speed


def reference_kernel_s() -> float:
    """Wall time of one fixed Gauss-Jordan elimination over the rationals.

    Written here, independent of the library, so a change to the
    library cannot move it; it moves only with the machine's speed.
    """
    n = 14
    start = _clock()
    mat = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n + 1)]
           for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if mat[r][c]), None)
        if p is None:
            continue
        mat[c], mat[p] = mat[p], mat[c]
        inv = 1 / mat[c][c]
        mat[c] = [x * inv for x in mat[c]]
        for r in range(n):
            if r != c and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
    return _clock() - start


def machine_sample() -> float:
    """Median of three reference-kernel timings."""
    return statistics.median(reference_kernel_s() for _ in range(3))


def run_queries(api, queries, seconds, deadline=QUERY_DEADLINE_S, tracer=None):
    """Issue the queries in order until the time budget is spent.

    Returns a dict with the per-query latencies, counts and the digest,
    and for each latency the machine speed around it: the mean of the
    reference samples taken just before and just after the query, over
    REFERENCE_S.  A sample is taken before a query when REFERENCE_EVERY_S
    has passed since the last one, and once after the last query.
    """
    from queries import KINDS, CheckFailed, QueryFailed

    latencies = []
    sample_index = []
    attempted = failed = answered = 0
    incorrect = []
    digest = hashlib.sha256()
    samples = [machine_sample()]
    started = last_sample = _clock()
    for index, query in enumerate(queries):
        now = _clock()
        if now - started >= seconds:
            break
        if now - last_sample >= REFERENCE_EVERY_S:
            samples.append(machine_sample())
            last_sample = _clock()
        prepare, call, check = KINDS[query.kind]
        if tracer is not None:
            tracer.query = index
        with _paused(tracer):
            inputs = prepare(api, *query.args)
        attempted += 1
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            t0 = _clock()
            result = call(api, *inputs)
            latency = _clock() - t0
        except QueryDeadline:
            failed += 1
            digest.update(f"{index}:deadline\n".encode())
            continue
        except Exception as exc:  # a raise is a failed query, not the end of the run
            failed += 1
            digest.update(f"{index}:raised {type(exc).__name__}\n".encode())
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.reset_stack()
        try:
            with _paused(tracer):
                ok, text = check(api, inputs, result)
        except CheckFailed as exc:
            failed += 1
            incorrect.append(f"{query.text()}: {exc}")
            digest.update(f"{index}:incorrect\n".encode())
            continue
        except QueryFailed:
            failed += 1
            digest.update(f"{index}:failed\n".encode())
            continue
        if query.kind == "cli" and tracer is not None:
            tracer.counts["cli_output_bytes"] += len(result[1].encode())
        latencies.append(latency)
        sample_index.append(len(samples) - 1)
        answered += ok
        digest.update(f"{index}:{text}\n".encode())
    samples.append(machine_sample())
    return {
        "latencies": latencies,
        "speeds": [(samples[i] + samples[i + 1]) / 2 / REFERENCE_S for i in sample_index],
        "machine_speed": statistics.median(samples) / REFERENCE_S,
        "samples": len(samples),
        "attempted": attempted,
        "failed": failed,
        "answered": answered,
        "incorrect": incorrect,
        "wall_s": _clock() - started,
        "digest": digest.hexdigest()[:16],
    }


def _paused(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.pause()


def tail_rank(n: int) -> int:
    """0-based index of the highest order statistic with TAIL_BEYOND samples beyond it."""
    return max(0, n - 1 - TAIL_BEYOND)


def end_to_end(outcome, setup_s: float) -> dict:
    lat = sorted(x / f for x, f in zip(outcome["latencies"], outcome["speeds"]))
    busy = sum(lat)
    return {
        "queries_per_s": (len(lat) / busy if busy else 0.0, "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1000 if lat else 0.0, "ms"),
        "query_tail_ms": (lat[tail_rank(len(lat))] * 1000 if lat else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "answered_ratio": (outcome["answered"] / max(1, outcome["attempted"]), "ratio"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--queries", type=int, default=None,
                        help="run only the first N queries of the list (self-tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library, generate the inputs and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    api = _import_library()
    queries = generate(args.workload, args.seed)
    if args.setup_only:
        return 0
    if args.queries is not None:
        queries = queries[: args.queries]

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    budget = args.seconds
    if not args.trace:
        setup_raw, setup_speed = _setup_seconds(args.workload, args.seed)
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(api)
        budget = args.seconds * TRACE_TIME_FACTOR
    try:
        outcome = run_queries(api, queries, budget, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    done = len(outcome["latencies"])
    lat = sorted(outcome["latencies"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"queries={outcome['attempted']}/{len(queries)} failed={outcome['failed']} "
          f"wall_s={outcome['wall_s']:.3f} answers_digest={outcome['digest']}")
    raw = sum(lat)
    print(f"machine_speed={outcome['machine_speed']:.4f} (median of "
          f"{outcome['samples']} reference samples) raw_queries_per_s={done / raw if raw else 0:.4f} "
          f"raw_query_p50_ms={statistics.median(lat) * 1000 if lat else 0:.3f}"
          + ("" if args.trace else f" raw_setup_s={setup_raw:.4f}"))
    if lat:
        k = tail_rank(done)
        print(f"query_tail_ms is the latency at p{100 * (k + 1) / done:.0f} "
              f"(sample {k + 1} of {done}, {done - k - 1} beyond it)")
    for line in outcome["incorrect"]:
        print(f"INCORRECT {line}")

    if tracer is not None:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.layer_metrics(raw)
    else:
        metrics = end_to_end(outcome, setup_raw / setup_speed)
    print(json.dumps({
        "correct": not outcome["incorrect"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
