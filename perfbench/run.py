#!/usr/bin/env python3
"""chessarena benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload arena_random --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.

Workloads (see `workloads.py`): `arena_random`, `arena_llm`, `engine_oracle`.
Each is a closed loop driven by one caller; at most two threads and one
engine process do work at a time. Set-up is repeated `SETUP_REPS` times and
its median reported; then fixed pipelines ("iterations"), each on inputs
derived from the seed and the iteration number, repeat until the run time is
spent.

With `--trace 0` the run prints the end-to-end metrics. Those every
workload has go into the JSON line: set-up time, the mean time of one
iteration's timed phases (the whole pipeline), games and plies per second of
play, the median time of `Player.choose` for the workload's own player kind,
and peak RSS. The p99 of `Player.choose` (with its sample count), games per
second of the resume passes, the rates of a workload's own phases (eval
items/s, annotation ms/ply cold and warm, puzzles/s) and the error rate are
printed and recorded only. With `--trace 1` it first runs
iteration 0 without tracing, then traces every iteration and prints
per-layer metrics, including the tracing overhead on iteration 0.
Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. A full
record (environment, bases of every ratio, fingerprint) is written to
`.perfbench_out/`, with the spans of a traced run beside it.

Correctness: every run checks perft counts, replays every stored game of
iteration 0, checks that resume passes leave the run files byte-identical,
that warm annotation equals cold and that every puzzle is solved.
Iteration 0's outputs are hashed into a fingerprint; for the default seed it
must equal the value pinned in `fingerprints.json`, for other seeds it is
printed so two commits can be compared. Failures (aborted games,
exceptions escaping a library call, fingerprint mismatches) count in
`failed`; forfeits and illegal or unparseable replies are chess outcomes and
do not. Any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_REPS = 7

# Known perft leaf counts (chessprogramming.org/Perft_Results).
KIWIPETE = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"
PERFT_CASES = (("start", None, 3, 8902), ("kiwipete", KIWIPETE, 3, 97862))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chessarena" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import report
    from workloads import WORKLOADS, PhaseLog

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    log = PhaseLog()
    wl = WORKLOADS[args.workload](ROOT, work, args.seed, log)
    errors: list = []
    result = {}
    try:
        result = run(wl, args, errors)
    except Exception:  # a library call failed outside any iteration
        errors.append(traceback.format_exc())
        wl.failed += 1
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    if not result:
        print("\n".join(errors), file=sys.stderr)
        return 1
    record = report.build(wl, args, result, errors, git_sha(), check_pinned=args.seed == DEFAULT_SEED)
    if errors:
        print("\n".join(errors), file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        result["tracer"].dump(out_dir / f"{stem}.spans.jsonl")
    report.print_human(record)
    line = {
        "correct": record["correct"],
        "attempted": max(1, wl.attempted),
        "failed": wl.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in record["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if record["correct"] else 1


def run(wl, args, errors: list) -> dict:
    """Set up, check the kernel, then measure iterations until time is up."""
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    perft = check_perft(wl, errors)

    from tracing import CHOOSE_SPANS, Tracer

    baseline = None
    if args.trace:
        # Iteration 0 once untraced, for the tracing overhead; then fresh
        # engines, so that child CPU time covers the traced iterations only.
        wl.iteration(0, nullcontext)
        baseline = wl.log.total_seconds()
        wl.log.reset()
        wl.setup()
        tracer = Tracer()
        tracer.install()
    else:
        # Untraced runs record one span name only: `choose` of the
        # workload's own player kind.
        tracer = Tracer()
        tracer.wrap(*CHOOSE_SPANS[wl.subject])

    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    fingerprint = None
    iteration_s: list = []
    first_traced = None
    start = time.perf_counter()
    k = 0
    try:
        while True:
            t0 = time.perf_counter()
            try:
                got = wl.iteration(k, tracer.paused)
            except Exception:
                errors.append(f"iteration {k}:\n{traceback.format_exc()}")
                wl.failed += 1
                break
            iteration_s.append(time.perf_counter() - t0)
            if k == 0:
                fingerprint = got
                first_traced = wl.log.total_seconds()
            k += 1
            elapsed = time.perf_counter() - start
            # Iteration 0 also builds the fingerprint; predict the next
            # iteration from the fastest so far.
            if elapsed + 0.5 * min(iteration_s) >= args.seconds:
                break
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    wl.close()
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    choose_ms = None
    if not args.trace:
        span = CHOOSE_SPANS[wl.subject][2]
        durs = tracer.analyse(wall, keep_durations=(span,))["per_name"].get(span, {}).get("durs", [])
        choose_ms = [1e3 * d for d in durs]
    return {
        "setup_s": setup_s,
        "perft": perft,
        "iterations": k,
        "iteration_s": iteration_s,
        "wall_s": wall,
        "fingerprint": fingerprint,
        "choose_ms": choose_ms,
        "tracer": tracer if args.trace else None,
        "overhead": (baseline, first_traced) if args.trace else None,
        "children_cpu_s": (cpu_after.ru_utime + cpu_after.ru_stime)
        - (cpu_before.ru_utime + cpu_before.ru_stime),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check_perft(wl, errors: list) -> dict:
    from chessarena.core import BoardState, parse_fen, perft

    counts = {}
    nodes = 0
    t0 = time.perf_counter()
    for name, fen, depth, expected in PERFT_CASES:
        board = parse_fen(fen) if fen else BoardState.start()
        counts[name] = perft(board, depth)
        nodes += counts[name]
        wl.attempted += 1
        if counts[name] != expected:
            errors.append(f"perft {name} depth {depth}: {counts[name]} != {expected}")
            wl.failed += 1
    return {"counts": counts, "nodes": nodes, "seconds": time.perf_counter() - t0}


def git_sha() -> str:
    """Commit of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
