"""Metrics of one run, derived from the phase log, the `choose` timings and,
in a traced run, the spans. Every value carries its unit and the base it was
computed from (sample count, calls, plies, seconds)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
from pathlib import Path

from tracing import LAYERS
from workloads import PhaseLog

PINNED = Path(__file__).resolve().parent / "fingerprints.json"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or
    below it; 0 when there are no samples (the run has failed then)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def metric(value, unit: str, base: str) -> dict:
    return {"value": value, "unit": unit, "base": base}


def rate(log: PhaseLog, phase: str, count: str, unit: str) -> dict:
    n = log.counts.get(phase, {}).get(count, 0)
    s = log.seconds.get(phase, 0.0)
    return metric(n / s if s else 0.0, unit, f"{n} {count} in {s:.3f} s")


def ms_per(log: PhaseLog, phase: str, count: str, unit: str) -> dict:
    n = log.counts.get(phase, {}).get(count, 0)
    s = log.seconds.get(phase, 0.0)
    return metric(1e3 * s / n if n else 0.0, unit, f"{s:.3f} s over {n} {count}")


def end_to_end(result: dict, log: PhaseLog) -> tuple:
    """(metrics of the JSON line, which every workload reports; metrics that
    are printed and recorded only)."""
    setup = result["setup_s"]
    choose = result["choose_ms"]
    n = len(choose)
    beyond = n - math.ceil(0.99 * n)
    k = result["iterations"]
    phases_s = log.total_seconds()
    common = {
        "setup_s": metric(statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        # A mean, not a median: iterations differ in work by seed, and over
        # ten seeds the mean spread less than the median did (0.06 vs 0.09).
        "pipeline_s": metric(phases_s / k if k else 0.0, "s", f"{phases_s:.3f} s of timed phases, {k} iterations"),
        "games_per_s": rate(log, "play", "games", "games/s"),
        "plies_per_s": rate(log, "play", "plies", "plies/s"),
        "move_ms_p50": metric(percentile(choose, 50), "ms", f"{n} choose calls"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB", "ru_maxrss of the benchmark process"),
    }
    # The tail of sub-millisecond moves, and resume passes of 10-100 ms that
    # are mostly small file operations, follow the host's speed swings two to
    # three times as closely as the play rates do, so they are reported, not
    # gated; the resume passes are part of `pipeline_s`.
    own = {
        "move_ms_p99": metric(percentile(choose, 99), "ms", f"{n} choose calls, {beyond} beyond p99"),
        "resume_games_per_s": metric(
            percentile(log.resume_rates, 50), "games/s", f"median of {len(log.resume_rates)} resume passes"
        ),
    }
    if "eval" in log.seconds:
        own["eval_items_per_s"] = rate(log, "eval", "items", "items/s")
    if "annotate_cold" in log.seconds:
        own["annotate_ms_per_ply_cold"] = ms_per(log, "annotate_cold", "plies", "ms/ply")
        own["annotate_ms_per_ply_warm"] = ms_per(log, "annotate_warm", "plies", "ms/ply")
    if "puzzles" in log.seconds:
        own["puzzles_per_s"] = rate(log, "puzzles", "puzzles", "puzzles/s")
    return common, own


def per_layer(wl, result: dict) -> dict:
    tracer = result["tracer"]
    wall = result["wall_s"]
    trace = tracer.analyse(wall, keep_durations=("engine.best_move", "engine.analyze_all_moves"))
    names = trace["per_name"]
    notes = tracer.notes
    plies = wl.log.counts.get("play", {}).get("plies", 0)
    out = {}

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def count(key, name):
        out[key] = metric(calls(name), "count", "spans")

    def us_mean(key, name):
        c = calls(name)
        out[key] = metric(1e6 * total(name) / c if c else 0.0, "us", f"{c} calls")

    def ms_mean(key, name):
        c = calls(name)
        out[key] = metric(1e3 * total(name) / c if c else 0.0, "ms", f"{c} calls")

    def self_ms(key, name):
        out[key] = metric(1e3 * names.get(name, {}).get("self_s", 0.0), "ms", f"{calls(name)} calls")

    def pct_ms(key, name, p):
        durs = names.get(name, {}).get("durs", [])
        out[key] = metric(1e3 * percentile(durs, p) if durs else 0.0, "ms", f"{len(durs)} calls")

    def ratio(key, num, den, unit, base):
        out[key] = metric(num / den if den else 0.0, unit, f"{num:g} / {den:g} {base}")

    # core
    count("core.legal_moves.calls", "core.legal_moves")
    us_mean("core.legal_moves.us_mean", "core.legal_moves")
    ratio("core.legal_moves.per_ply", calls("core.legal_moves"), plies, "calls/ply", "plies played")
    for op in ("apply_move", "game_status", "fen", "move_to_san"):
        count(f"core.{op}.calls", f"core.{op}")
        us_mean(f"core.{op}.us_mean", f"core.{op}")
    us_mean("core.history_push.us_mean", "core.history_push")
    count("core.parse_move.calls", "core.parse_move")
    perft = result["perft"]
    out["core.perft.knodes_per_s"] = metric(
        perft["nodes"] / perft["seconds"] / 1e3, "knodes/s", f"{perft['nodes']} leaves in {perft['seconds']:.3f} s"
    )
    ratio("core.self_share", trace["layer_self_s"]["core"], wall, "ratio", "s of traced wall time")

    # rating
    for op in ("update_pair", "sample_opponent"):
        count(f"rating.{op}.calls", f"rating.{op}")
        us_mean(f"rating.{op}.us_mean", f"rating.{op}")
    pool_calls = calls("rating.sample_opponent")
    if pool_calls:
        out["rating.sample_opponent.us_mean"]["base"] += (
            f", pool size {notes.get('sample_opponent_pool', 0) / pool_calls:g}"
        )
    us_mean("rating.pool_to_json.us_mean", "rating.pool_to_json")

    # players
    prompt_names = [n for n in names if n.startswith("players.build_prompt.")]
    out["players.build_prompt.calls"] = metric(sum(calls(n) for n in prompt_names), "count", "spans")
    for fmt in ("uci_list", "pgn", "none"):
        us_mean(f"players.build_prompt.{fmt}.us_mean", f"players.build_prompt.{fmt}")
    us_mean("players.build_blindfold.us_mean", "players.build_blindfold")
    ratio("players.prompt_bytes_mean", notes.get("prompt_bytes", 0), notes.get("prompts", 0), "B", "prompts")
    count("players.extract_move.calls", "players.extract_move")
    us_mean("players.extract_move.us_mean", "players.extract_move")
    self_ms("players.request_move.self_ms", "players.request_move")
    moves = calls("players.request_move")
    ratio("players.attempts_per_move", notes.get("attempts", 0), moves, "attempts/move", "request_move calls")
    ratio("players.first_attempt_ok_ratio", notes.get("first_attempt_ok", 0), moves, "ratio", "request_move calls")
    count("players.transport.calls", "model.complete")
    out["players.transport.wait_ms"] = metric(1e3 * total("model.complete"), "ms", f"{calls('model.complete')} calls")
    ratio("players.transport.wait_share", total("model.complete"), wall, "ratio", "s of traced wall time")
    us_mean("players.random_player_move.us_mean", "players.random_player_move")

    # engine
    starts = wl.setup_notes.get("start_engine_s", [])
    out["engine.start_engine.ms"] = metric(
        1e3 * statistics.median(starts) if starts else 0.0, "ms", f"median of {len(starts)} spawns"
    )
    for op in ("best_move", "analyze_all_moves"):
        count(f"engine.{op}.calls", f"engine.{op}")
        pct_ms(f"engine.{op}.ms_p50", f"engine.{op}", 50)
        pct_ms(f"engine.{op}.ms_p99", f"engine.{op}", 99)
    for op in ("cache_get", "cache_put"):
        count(f"engine.{op}.calls", f"engine.{op}")
        us_mean(f"engine.{op}.us_mean", f"engine.{op}")
    ratio("engine.cache.hit_ratio", notes.get("cache_hits", 0), calls("engine.cache_get"), "ratio", "cache gets")
    written = wl.log.counts.get("annotate_cold", {}).get("cache_bytes", 0)
    out["engine.cache.bytes_written"] = metric(written, "B", "analysis files after the cold passes")
    searching = total("engine.best_move") + total("engine.analyze_all_moves")
    ratio("engine.wait_share", total("engine.read_line"), searching, "ratio", "s in best_move + analyze_all_moves")

    # toy engine
    out["toy_engine.cpu_s"] = metric(result["children_cpu_s"], "s", "RUSAGE_CHILDREN after the handles quit")

    # arena
    count("arena.play_game.calls", "arena.play_game")
    self_ms("arena.play_game.self_ms", "arena.play_game")
    for kind in ("random", "llm", "engine"):
        us_mean(f"arena.choose.{kind}.us_mean", f"arena.choose.{kind}")
    count("arena.write_game.calls", "arena.write_game")
    us_mean("arena.write_game.us_mean", "arena.write_game")
    ratio("arena.write_game.bytes_mean", notes.get("game_bytes", 0), calls("arena.write_game"), "B", "games written")
    for op in ("has_game", "read_game", "write_pool", "append_round", "write_leaderboard"):
        us_mean(f"arena.{op}.us_mean", f"arena.{op}")
    self_ms("arena.annotate_record.self_ms", "arena.annotate_record")

    # evals
    count("evals.predict_move.calls", "evals.predict_move")
    us_mean("evals.predict_move.us_mean", "evals.predict_move")
    self_ms("evals.run_move_selection.self_ms", "evals.run_move_selection")
    ms_mean("evals.run_puzzle.ms_mean", "evals.run_puzzle")
    loads = wl.setup_notes.get("load_puzzles_s", [])
    out["evals.load_lichess_puzzles.ms"] = metric(
        1e3 * statistics.median(loads) if loads else 0.0, "ms", f"median of {len(loads)} loads"
    )

    # where the traced wall time went
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = metric(trace["layer_self_s"][layer], "s", "self time of the layer's spans")
    out["layer.bench.self_s"] = metric(trace["bench_s"], "s", "traced wall time outside every span")
    out["trace.overlap_s"] = metric(trace["overlap_s"], "s", "child spans of one parent running at once")
    out["trace.wall_s"] = metric(wall, "s", f"{result['iterations']} traced iterations")
    out["trace.spans"] = metric(trace["spans"], "count", "spans recorded")
    untraced, traced = result["overhead"]
    out["trace.overhead_s"] = metric(traced - untraced, "s", f"iteration 0: {traced:.3f} s traced, {untraced:.3f} s not")
    ratio("trace.overhead_share", traced - untraced, untraced, "ratio", "s of untraced iteration 0")
    accounted = sum(trace["layer_self_s"].values()) + trace["bench_s"] - trace["overlap_s"]
    return out, accounted - wall


def fingerprint_digest(fp: dict, perft: dict) -> str:
    material = {"iteration0": fp, "perft": perft["counts"]}
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def build(wl, args, result: dict, errors: list, sha: str, check_pinned: bool) -> dict:
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "iterations": result["iterations"],
        "iteration_s": result["iteration_s"],
        "wall_s": result["wall_s"],
        "phases": {"seconds": wl.log.seconds, "counts": wl.log.counts},
        "setup_parts_s": wl.setup_notes,
    }
    fp = result["fingerprint"]
    digest = fingerprint_digest(fp, result["perft"]) if fp is not None else None
    pinned = None
    if check_pinned:
        pinned = json.loads(PINNED.read_text()).get(wl.name)
        wl.attempted += 1
        if digest != pinned:
            wl.failed += 1
            errors.append(f"fingerprint {digest} differs from the pinned {pinned}")
    record.update(fingerprint=fp, fingerprint_digest=digest, pinned_digest=pinned)
    if args.trace:
        record["metrics"], record["accounting_error_s"] = per_layer(wl, result)
    else:
        record["metrics"], record["workload_metrics"] = end_to_end(result, wl.log)
    record.update(
        attempted=wl.attempted,
        failed=wl.failed,
        error_rate=metric(wl.failed / max(1, wl.attempted), "ratio", f"{wl.failed} / {wl.attempted} operations"),
        errors=errors,
        correct=not errors and wl.failed == 0 and fp is not None,
    )
    return record


def print_human(record: dict) -> None:
    print(f"workload {record['workload']}: {record['why']}")
    print(
        f"seed {record['seed']}  python {record['python']}  cpu_count {record['cpu_count']}  "
        f"git {record['git_sha']}  iterations {record['iterations']}  wall {record['wall_s']:.2f} s"
    )
    print(f"fingerprint {record['fingerprint_digest']}  pinned {record['pinned_digest']}")
    if "accounting_error_s" in record:
        print(f"layer self times + benchmark time - overlap - traced wall = {record['accounting_error_s']:.3g} s")
    sections = [("metric", record["metrics"]), ("workload metric", record.get("workload_metrics", {}))]
    sections.append(("error_rate", {"error_rate": record["error_rate"]}))
    for label, metrics in sections:
        for name, m in metrics.items():
            value = m["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {label:15s} {name:40s} {shown:>14s} {m['unit']:10s} ({m['base']})")
