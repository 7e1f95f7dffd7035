import dataclasses
import hashlib
import json
import math
import signal
import sys
import textwrap
import threading
import time

import pytest

import chessarena.arena as arena
from chessarena.arena import (
    GameConfig,
    LeaderboardEntry,
    MatchRequest,
    PlayerRegistry,
    RunDir,
    annotate_record,
    compute_leaderboard,
    compute_secondary_metrics,
    derive_seed,
    game_id_for,
    play_game,
    render_leaderboard,
    run_match,
    run_tournament,
    update_pair,
    verify_replay,
)
from chessarena.core import FORFEIT, FIVEFOLD_REPETITION
from chessarena.engine import (
    AnalysisCache,
    EngineError,
    EngineProtocolError,
    analyze_all_moves,
    best_move,
    start_engine,
)
from chessarena.players import ChatResponse, PlayerSpec
from chessarena.rating import MatchOutcome, PoolEntry, RatingConfig, RatingState

from conftest import TOY_ENGINE_CMD, LoopingTransport, ScriptedTransport, listing_engine, stateful_engine
from oracle_glicko import ref_update

FORFEIT_JUNK = ["junk"] * 5


def random_specs(n=2, prefix="rand"):
    return [PlayerSpec(id=f"{prefix}-{i}", kind="random") for i in range(n)]


def llm_spec(pid, mode="blitz"):
    return PlayerSpec(id=pid, kind="llm_api", play_mode=mode, provide_legal_moves=True, endpoint="stub")


def fresh_pool(specs):
    return [PoolEntry(id=s.id, rating=RatingState.fresh(RatingConfig()), mode=s.play_mode) for s in specs]


def test_play_game_deterministic_and_replayable():
    specs = random_specs()
    registry = PlayerRegistry(specs)
    rec1 = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(), seed=11)
    rec2 = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(), seed=11)
    assert rec1.moves == rec2.moves
    assert rec1.termination == rec2.termination
    assert rec1.result_white is not None
    verify_replay(rec1)


def test_play_game_rejects_same_player():
    registry = PlayerRegistry(random_specs(1))
    with pytest.raises(ValueError):
        play_game(registry.player("rand-0"), registry.player("rand-0"), GameConfig(), seed=1)


def test_forfeit_awards_win_to_opponent():
    specs = [llm_spec("garbage"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(specs, transports={"garbage": ScriptedTransport(FORFEIT_JUNK)})
    record = play_game(registry.player("garbage"), registry.player("rand"), GameConfig(), seed=3)
    assert record.termination.reason == FORFEIT
    assert record.termination.winner == "b"
    assert record.result_white == 0.0
    assert len(record.plies) == 1
    assert len(record.plies[0].attempts) == 5
    assert all(a.outcome != "ok" for a in record.plies[0].attempts)
    verify_replay(record)


def test_scripted_knight_shuffle_reaches_fivefold():
    specs = [llm_spec("white-llm"), llm_spec("black-llm")]
    registry = PlayerRegistry(
        specs,
        transports={
            "white-llm": LoopingTransport(["```g1f3```", "```f3g1```"]),
            "black-llm": LoopingTransport(["```b8c6```", "```c6b8```"]),
        },
    )
    record = play_game(registry.player("white-llm"), registry.player("black-llm"), GameConfig(), seed=0)
    assert record.termination.reason == FIVEFOLD_REPETITION
    assert record.result_white == 0.5
    assert len(record.plies) == 16


def test_game_records_prompt_digests():
    specs = [llm_spec("a"), llm_spec("b")]
    registry = PlayerRegistry(
        specs,
        transports={"a": ScriptedTransport(FORFEIT_JUNK), "b": ScriptedTransport([])},
    )
    record = play_game(registry.player("a"), registry.player("b"), GameConfig(), seed=0)
    assert record.plies[0].prompt_digest and len(record.plies[0].prompt_digest) == 64


def test_match_request_validation():
    with pytest.raises(ValueError):
        MatchRequest("a", "a", 2)
    with pytest.raises(ValueError):
        MatchRequest("a", "b", 3)
    with pytest.raises(ValueError):
        MatchRequest("a", "b", 0)


def test_run_match_alternates_colors_and_updates_ratings():
    specs = random_specs()
    registry = PlayerRegistry(specs)
    pool = fresh_pool(specs)
    records = run_match(MatchRequest("rand-0", "rand-1", 4), pool, GameConfig(), registry, seed=5)
    assert [r.white_id for r in records] == ["rand-0", "rand-1", "rand-0", "rand-1"]
    assert all(p.rating.games_played == 4 for p in pool)
    assert all(p.rating.rd < 350 for p in pool)


def test_run_match_rating_deltas_match_reference_chain():
    specs = [llm_spec("a"), llm_spec("b")]
    registry = PlayerRegistry(
        specs,
        transports={"a": ScriptedTransport(FORFEIT_JUNK), "b": ScriptedTransport(FORFEIT_JUNK)},
    )
    pool = fresh_pool(specs)
    records = run_match(MatchRequest("a", "b", 2), pool, GameConfig(), registry, seed=1)
    # Game 1: a (white) forfeits; game 2: b (white) forfeits. The winner
    # field is a color, so black wins both games.
    assert [r.termination.winner for r in records] == ["b", "b"]
    assert [r.result_for("a") for r in records] == [0.0, 1.0]
    ra, rda = 1500.0, 350.0
    rb, rdb = 1500.0, 350.0
    ra2, rda2 = ref_update(ra, rda, rb, rdb, 0.0)
    rb2, rdb2 = ref_update(rb, rdb, ra, rda, 1.0)
    ra3, rda3 = ref_update(ra2, rda2, rb2, rdb2, 1.0)
    rb3, rdb3 = ref_update(rb2, rdb2, ra2, rda2, 0.0)
    by_id = {p.id: p.rating for p in pool}
    assert math.isclose(by_id["a"].r, ra3, rel_tol=1e-12)
    assert math.isclose(by_id["b"].r, rb3, rel_tol=1e-12)
    assert math.isclose(by_id["a"].rd, rda3, rel_tol=1e-12)
    assert math.isclose(by_id["b"].rd, rdb3, rel_tol=1e-12)


def test_run_match_persists_and_resumes_idempotently(tmp_path):
    specs = random_specs()
    registry = PlayerRegistry(specs)
    run_dir = RunDir(tmp_path / "run")
    req = MatchRequest("rand-0", "rand-1", 4)
    pool = fresh_pool(specs)
    records1 = run_match(req, pool, GameConfig(), registry, run_dir=run_dir, seed=9)
    stamps = {p.name: p.stat().st_mtime_ns for p in run_dir.games.glob("*.jsonl")}
    pool2 = fresh_pool(specs)
    records2 = run_match(req, pool2, GameConfig(), registry, run_dir=run_dir, seed=9)
    assert [r.game_id for r in records1] == [r.game_id for r in records2]
    assert stamps == {p.name: p.stat().st_mtime_ns for p in run_dir.games.glob("*.jsonl")}
    assert [p.rating for p in pool] == [p.rating for p in pool2]


def test_game_record_round_trip(tmp_path):
    specs = [llm_spec("a"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(specs, transports={"a": ScriptedTransport(FORFEIT_JUNK)})
    record = play_game(registry.player("a"), registry.player("rand"), GameConfig(), seed=2)
    run_dir = RunDir(tmp_path)
    run_dir.write_game(record)
    assert run_dir.has_game(record.game_id)
    loaded = run_dir.read_game(record.game_id)
    assert loaded.game_id == record.game_id
    assert loaded.result_white == record.result_white
    assert loaded.termination == record.termination
    assert [p.fen_before for p in loaded.plies] == [p.fen_before for p in record.plies]
    assert [a.outcome for a in loaded.plies[0].attempts] == [
        a.outcome for a in record.plies[0].attempts
    ]


def test_partial_game_file_is_not_resumable(tmp_path):
    run_dir = RunDir(tmp_path)
    path = run_dir.game_path("deadbeef")
    path.write_text(json.dumps({"type": "header", "game_id": "deadbeef"}) + "\n")
    assert not run_dir.has_game("deadbeef")


def test_torn_game_file_is_not_resumable(tmp_path):
    run_dir = RunDir(tmp_path)
    registry = PlayerRegistry(random_specs())
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=6),
                       seed=2, game_id="cafe")
    path = run_dir.write_game(record)
    assert run_dir.has_game("cafe") and run_dir.game_ids() == ["cafe"]
    text = path.read_text()
    path.write_text(text[: text.rindex("{") + 12])  # cut inside the footer row
    assert not run_dir.has_game("cafe")
    path.write_bytes(text.encode()[:-3] + b"\xff\n")  # not even UTF-8
    assert not run_dir.has_game("cafe")
    run_dir.write_game(record)
    assert run_dir.has_game("cafe")
    assert sorted(p.name for p in run_dir.games.iterdir()) == ["cafe.jsonl"]


def test_torn_cache_file_is_a_miss(tmp_path, toy_handle):
    from chessarena.engine import AnalysisCache

    cache = AnalysisCache(tmp_path / "cache")
    fen = "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1"
    table = analyze_all_moves(toy_handle, fen, 1)
    cache.put("toy", table)
    assert cache.get("toy", fen, 1) == table
    (path,) = cache.root.iterdir()
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert AnalysisCache(tmp_path / "cache").get("toy", fen, 1) is None  # torn: a miss on reload
    AnalysisCache(tmp_path / "cache").put("toy", table)
    assert AnalysisCache(tmp_path / "cache").get("toy", fen, 1) == table
    assert [p.name for p in cache.root.iterdir()] == [path.name]
    assert path.read_text() == text


def test_verify_replay_catches_corruption():
    specs = random_specs()
    registry = PlayerRegistry(specs)
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(), seed=4)
    record.plies[-1].fen_before = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"
    if len(record.plies) > 1:  # the start position is genuinely ply 0's fen
        with pytest.raises(AssertionError, match="replayed"):
            verify_replay(record)


def test_aborted_game_excluded_from_ratings(tmp_path):
    crash = tmp_path / "crash_engine.py"
    crash.write_text(
        textwrap.dedent(
            """\
            import sys
            for line in sys.stdin:
                t = line.strip()
                if t == "uci":
                    print("id name Crash"); print("uciok", flush=True)
                elif t == "isready":
                    print("readyok", flush=True)
                elif t.startswith("go"):
                    sys.exit(1)
            """
        )
    )
    specs = [
        PlayerSpec(id="crash", kind="uci_engine", engine_command=f"{sys.executable} {crash}"),
        PlayerSpec(id="rand", kind="random"),
    ]
    with PlayerRegistry(specs) as registry:
        pool = fresh_pool(specs)
        records = run_match(MatchRequest("crash", "rand", 2), pool, GameConfig(), registry, seed=0)
    assert all(r.aborted for r in records)
    assert all(r.result_white is None for r in records)
    assert all(p.rating == RatingState.fresh(RatingConfig()) for p in pool)


def test_an_engine_that_dies_mid_search_loses_only_that_game(tmp_path, monkeypatch):
    """The first process exits on its third search; the registry restarts the
    engine for the match's next game, which plays."""
    engine = tmp_path / "dies_once.py"
    engine.write_text(
        textwrap.dedent(
            f"""\
            import os, sys
            from chessarena.core import legal_moves, parse_fen

            marker, searches = {str(tmp_path / "died")!r}, 0
            for line in sys.stdin:
                t = line.strip()
                if t == "uci":
                    print("id name DiesOnce"); print("uciok", flush=True)
                elif t == "isready":
                    print("readyok", flush=True)
                elif t.startswith("position fen "):
                    fen = t[len("position fen "):]
                elif t.startswith("go"):
                    searches += 1
                    if searches == 3 and not os.path.exists(marker):
                        open(marker, "w").close()
                        sys.exit(1)
                    print(f"bestmove {{legal_moves(parse_fen(fen))[0].uci}}", flush=True)
                elif t == "quit":
                    break
            """
        )
    )
    starts = []
    monkeypatch.setattr(arena, "start_engine", lambda *a, **k: starts.append(a) or start_engine(*a, **k))
    specs = [PlayerSpec(id="dies", kind="uci_engine", engine_command=f"{sys.executable} {engine}"),
             PlayerSpec(id="rand", kind="random")]
    pool = fresh_pool(specs)
    with PlayerRegistry(specs) as registry:
        records = run_match(MatchRequest("dies", "rand", 4), pool, GameConfig(ply_cap=20), registry, seed=0)
    assert [r.aborted for r in records] == [True, False, False, False]
    assert records[0].result_white is None and len(records[0].plies) == 4
    assert [p.rating.games_played for p in pool] == [3, 3]
    assert len(starts) == 2


def test_a_healthy_engine_match_starts_its_engine_once(monkeypatch):
    starts = []
    monkeypatch.setattr(arena, "start_engine", lambda *a, **k: starts.append(a) or start_engine(*a, **k))
    specs = [toy_spec(), PlayerSpec(id="rand", kind="random")]
    with PlayerRegistry(specs) as registry:
        for seed in (1, 2):
            records = run_match(MatchRequest("toy", "rand", 4), fresh_pool(specs), GameConfig(ply_cap=12),
                                registry, seed=seed)
            assert not any(r.aborted for r in records)
    assert len(starts) == 1


def test_engine_player_plays_legally():
    specs = [
        PlayerSpec(id="toy", kind="uci_engine", engine_command=" ".join(TOY_ENGINE_CMD),
                   engine_limits={"depth": 1}),
        PlayerSpec(id="rand", kind="random"),
    ]
    with PlayerRegistry(specs) as registry:
        record = play_game(
            registry.player("toy"), registry.player("rand"), GameConfig(ply_cap=60), seed=1
        )
    assert not record.aborted
    verify_replay(record)


def test_the_registry_hands_out_one_engine_per_command_and_options():
    specs = [toy_spec("a"), toy_spec("b"), dataclasses.replace(toy_spec("c"), engine_options={"Hash": 8})]
    with PlayerRegistry(specs) as registry:
        shared = registry.engine(" ".join(TOY_ENGINE_CMD))
        assert registry.engine(" ".join(TOY_ENGINE_CMD), {}) is shared
        assert registry.player("a").handle is registry.player("b").handle is shared
        other = registry.player("c").handle
        assert other is not shared and other is registry.engine(" ".join(TOY_ENGINE_CMD), {"Hash": 8})
        assert shared.alive and other.alive


def test_the_registry_replaces_a_killed_engine():
    with PlayerRegistry([toy_spec()]) as registry:
        first = registry.player("toy").handle
        first._proc.kill()
        first._proc.wait()
        second = registry.player("toy").handle
        assert second is not first and second.alive and not first.alive
        assert registry.engine(" ".join(TOY_ENGINE_CMD)) is second


@pytest.mark.parametrize("raised", [None, EngineError, KeyboardInterrupt], ids=["return", "engine-error", "interrupt"])
def test_the_registry_quits_every_engine_on_exit(raised):
    handles = []

    def command():
        with PlayerRegistry([toy_spec()]) as registry:
            handles.append(registry.player("toy").handle)
            handles.append(registry.engine(TOY_ENGINE_CMD, {"Hash": 8}))
            if raised is not None:
                raise raised("stop")

    if raised is None:
        command()
    else:
        with pytest.raises(raised):
            command()
    assert len(handles) == 2 and not any(handle.alive for handle in handles)
    assert all(handle._proc.returncode is not None for handle in handles)


def test_an_engine_player_starts_each_game_with_ucinewgame(tmp_path):
    """Only a player's first search of a game carries `ucinewgame`, in the
    same write as its `position` and `go`."""
    specs = [PlayerSpec(id="eng", kind="uci_engine", engine_command=" ".join(listing_engine(tmp_path)),
                        engine_limits={"depth": 1}), PlayerSpec(id="rand", kind="random")]
    with PlayerRegistry(specs) as registry:
        records = run_match(MatchRequest("eng", "rand", 2), fresh_pool(specs), GameConfig(ply_cap=8), registry)
    commands = (tmp_path / "commands.log").read_text().splitlines()
    assert commands[:2] == ["uci", "ucinewgame"]  # the handshake's
    first_game = commands[commands.index("isready") + 1:]
    assert first_game[:3] == ["ucinewgame", f"position fen {records[0].plies[0].fen_before}", "go depth 1"]
    assert commands.count("ucinewgame") == 1 + len(records)
    assert sum(c.startswith("go ") for c in commands) == sum(len(r.plies) for r in records) // 2


def test_a_stateful_engine_annotates_a_game_alone_as_after_another(tmp_path):
    """The analysis of a position does not depend on what the process
    searched before, so a game's annotation and its file are the same
    whether another game was annotated first."""
    command = stateful_engine(tmp_path)
    registry = PlayerRegistry(random_specs())
    game_a, game_b = (
        play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=10), seed=seed)
        for seed in (1, 2)
    )
    annotations = []
    for name, records in (("alone", [game_b]), ("after", [game_a, game_b])):
        with PlayerRegistry([]) as engines:
            arena.annotate_games(records, engines.engine(command), 1, RunDir(tmp_path / name))
        annotations.append([(p.q, p.in_top3) for p in game_b.plies])
    assert annotations[0] == annotations[1]
    assert len({q for q, _ in annotations[0]}) > 1
    game_file = f"games/{game_b.game_id}.jsonl"
    assert (tmp_path / "alone" / game_file).read_bytes() == (tmp_path / "after" / game_file).read_bytes()


def test_run_tournament_two_player_pool_always_pairs_them(tmp_path):
    specs = random_specs()
    registry = PlayerRegistry(specs)
    pool = fresh_pool(specs)
    run_dir = RunDir(tmp_path)
    run_tournament(pool, rounds=3, registry=registry, cfg=GameConfig(), seed=1, run_dir=run_dir)
    rounds = [json.loads(line) for line in (run_dir.root / "rounds.jsonl").read_text().splitlines()]
    assert len(rounds) == 3
    assert all({r["initiator"], r["opponent"]} == {"rand-0", "rand-1"} for r in rounds)
    assert all(p.rating.games_played == 6 for p in pool)


def test_run_tournament_specified_startup_first_round(tmp_path):
    specs = random_specs(4)
    registry = PlayerRegistry(specs)
    pool = fresh_pool(specs)
    run_dir = RunDir(tmp_path)
    run_tournament(
        pool, rounds=4, registry=registry, cfg=GameConfig(),
        startup_id="rand-2", seed=3, run_dir=run_dir,
    )
    rounds = [json.loads(line) for line in (run_dir.root / "rounds.jsonl").read_text().splitlines()]
    assert rounds[0]["initiator"] == "rand-2"


def test_run_tournament_needs_two_players():
    registry = PlayerRegistry(random_specs(1))
    with pytest.raises(ValueError):
        run_tournament(fresh_pool(random_specs(1)), rounds=1, registry=registry, cfg=GameConfig())


def test_compute_leaderboard_interval_and_filter():
    pool = [
        PoolEntry("maia-1100", RatingState(2220, 82, 44), mode=None),
        PoolEntry("noisy", RatingState(1237, 160, 8), mode="blindfold"),
        PoolEntry("mid", RatingState(1650, 50, 70), mode="blitz"),
    ]
    entries = compute_leaderboard(pool)
    assert [e.id for e in entries] == ["maia-1100", "mid"]
    top = entries[0]
    assert top.rank == 1
    assert top.interval == (2059, 2381)
    assert entries[1].interval == (1552, 1748)
    all_entries = compute_leaderboard(pool, RatingConfig(display_rd_threshold=float("inf")))
    assert [e.id for e in all_entries] == ["maia-1100", "mid", "noisy"]


def test_compute_leaderboard_empty_pool():
    assert compute_leaderboard([]) == []


def test_render_leaderboard_columns():
    entries = [
        LeaderboardEntry(1, "maia-1100", None, False, 2220.0, 82.0, (2059, 2381), 44),
        LeaderboardEntry(2, "gpt", "blitz", True, 1686.4, 50.0, (1588, 1784), 182),
    ]
    text = render_leaderboard(entries)
    header = text.splitlines()[0]
    assert header == "| Rank | Model | Mode | Legal Moves | Rating | RD | Interval | Games |"
    assert "| 1 | maia-1100 | - | no | 2220 | 82 | (2059, 2381) | 44 |" in text
    assert "| 2 | gpt | blitz | yes | 1686 | 50 | (1588, 1784) | 182 |" in text


def test_secondary_metrics_rates():
    specs = [llm_spec("a"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(
        specs,
        transports={
            "a": ScriptedTransport(["nonsense", "```e2e5```", "```e2e4```", "I resign"] + ["x"] * 4)
        },
    )
    record = play_game(registry.player("a"), registry.player("rand"), GameConfig(), seed=6)
    metrics = compute_secondary_metrics([record], "a")
    # Ply 1: parsing_error, illegal, ok (3 attempts). Ply 2: five parsing
    # failures -> forfeit. 8 attempts total, 6 of them parsing errors.
    assert metrics.losses == 1 and metrics.wins == 0
    assert metrics.legal_move_rate == 0.0  # no ply had a first-attempt success
    total_attempts = 8
    assert metrics.parsing_err_rate == pytest.approx(6 / total_attempts)
    assert metrics.illegal_move_rate == pytest.approx(1 / total_attempts)
    assert metrics.forbidden_rate == 0.0
    assert metrics.top_move_rate is None
    rand_metrics = compute_secondary_metrics([record], "rand")
    assert rand_metrics.wins == 1
    assert rand_metrics.legal_move_rate == 1.0


def test_annotation_fills_q_and_top3(toy_handle):
    specs = random_specs()
    registry = PlayerRegistry(specs)
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=16), seed=8)
    annotate_record(record, toy_handle, depth=1)
    for ply in record.plies:
        if ply.move is None:
            continue
        assert ply.q is not None and 0.0 <= ply.q <= 1.0
        table = analyze_all_moves(toy_handle, ply.fen_before, 1)
        assert ply.in_top3 == table.is_top(ply.move)
        assert ply.q == table.q_for(ply.move)


def test_annotation_uses_cache(tmp_path, toy_handle):
    from chessarena.engine import AnalysisCache

    specs = random_specs()
    registry = PlayerRegistry(specs)
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=10), seed=8)
    cache = AnalysisCache(tmp_path / "cache")
    annotate_record(record, toy_handle, depth=1, cache=cache)
    cached_rows = (tmp_path / "cache" / "analyses.jsonl").read_text().splitlines()
    assert len(cached_rows) == len({p.fen_before for p in record.plies}) == len(record.plies)
    qs = [p.q for p in record.plies]
    annotate_record(record, toy_handle, depth=1, cache=cache)  # second pass hits the cache
    assert [p.q for p in record.plies] == qs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_queued_annotation_equals_per_ply_analysis(toy_handle, seed):
    registry = PlayerRegistry(random_specs())
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=40), seed=seed)
    annotate_record(record, toy_handle, depth=2)
    for ply in record.plies:
        table = analyze_all_moves(toy_handle, ply.fen_before, 2)
        assert (ply.q, ply.in_top3) == (table.q_for(ply.move), table.is_top(ply.move))


def _annotate_ply_by_ply(record, handle, depth, cache):
    """Annotation as a per-ply loop: each miss searched and cached before the
    next ply is looked up."""
    for ply in record.plies:
        table = cache.get(handle.name, ply.fen_before, depth)
        if table is None:
            table = analyze_all_moves(handle, ply.fen_before, depth)
            cache.put(handle.name, table)
        ply.q, ply.in_top3 = table.q_for(ply.move), table.is_top(ply.move)


def test_queued_annotation_sends_the_per_ply_loops_commands(tmp_path):
    registry = PlayerRegistry(random_specs())
    records = [
        play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=12), seed=seed)
        for seed in (3, 4)
    ]
    runs = []
    for name, annotate in (("loop", _annotate_ply_by_ply), ("queued", annotate_record)):
        (tmp_path / name).mkdir()
        handle = start_engine(listing_engine(tmp_path / name))
        try:
            cache = AnalysisCache(tmp_path / name / "cache")
            for ply in records[1].plies[2::3]:  # some positions are cached before annotation
                cache.put(handle.name, analyze_all_moves(handle, ply.fen_before, 2))
            for record in records:
                annotate(record, handle, 2, cache)
        finally:
            handle.quit()
        annotations = [(p.q, p.in_top3) for r in records for p in r.plies]
        runs.append(((tmp_path / name / "commands.log").read_text(), annotations))
    assert runs[0] == runs[1]
    commands = runs[0][0].splitlines()
    assert commands.count("go depth 2") == len({p.fen_before for r in records for p in r.plies})


def test_analyses_before_an_engine_failure_stay_in_the_log(tmp_path):
    registry = PlayerRegistry(random_specs())
    record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(ply_cap=6), seed=5)
    handle = start_engine(listing_engine(tmp_path, bad_search=2, bad_line="info depth x score cp 10 pv e2e4"))
    try:
        with pytest.raises(EngineProtocolError):
            annotate_record(record, handle, 1, AnalysisCache(tmp_path / "cache"))
    finally:
        handle.quit()
    cache = AnalysisCache(tmp_path / "cache")
    fens = [ply.fen_before for ply in record.plies]
    assert cache.get("Listing", fens[0], 1) is not None
    assert [cache.get("Listing", fen, 1) for fen in fens[1:]] == [None] * (len(fens) - 1)


def test_game_ids_are_content_addressed():
    assert game_id_for("a", "b", 1, 0) == game_id_for("a", "b", 1, 0)
    assert game_id_for("a", "b", 1, 0) != game_id_for("a", "b", 2, 0)
    assert game_id_for("a", "b", 1, 0) != game_id_for("b", "a", 1, 0)
    assert derive_seed(7, "round:1") == derive_seed(7, "round:1")
    assert derive_seed(7, "round:1") != derive_seed(8, "round:1")


def test_blindfold_llm_player_through_game_loop():
    specs = [
        PlayerSpec(id="blind", kind="llm_api", play_mode="blindfold", provide_legal_moves=True,
                   endpoint="stub"),
        PlayerSpec(id="rand", kind="random"),
    ]

    class FirstLegal:
        """Answers with the first legal move named in the final user turn.

        White's very first blindfold turn carries no legal-move line (it is
        just the opening announcement), so fall back to e2e4 there.
        """

        def complete(self, messages):
            from chessarena.players import ChatResponse

            line = next(
                (
                    l for l in messages[-1].content.splitlines()
                    if l.startswith("Legal moves in UCI notation: ")
                ),
                None,
            )
            if line is None:
                return ChatResponse(text="```e2e4```")
            move = line[len("Legal moves in UCI notation: "):].rstrip(".").split()[0]
            return ChatResponse(text=f"```{move}```")

    registry = PlayerRegistry(specs, transports={"blind": FirstLegal()})
    record = play_game(
        registry.player("blind"), registry.player("rand"), GameConfig(ply_cap=20), seed=5
    )
    assert not record.aborted
    verify_replay(record)
    blind_plies = [p for p in record.plies if p.color == "w"]
    assert blind_plies and all(p.attempts[0].outcome == "ok" for p in blind_plies)


def test_result_conservation_over_many_games():
    specs = random_specs()
    registry = PlayerRegistry(specs)
    for seed in range(6):
        record = play_game(registry.player("rand-0"), registry.player("rand-1"), GameConfig(), seed=seed)
        s_white = record.result_for("rand-0")
        s_black = record.result_for("rand-1")
        assert s_white + s_black == 1.0


def test_run_tournament_stop_rd_halts_reliable_players(tmp_path):
    specs = random_specs(3)
    registry = PlayerRegistry(specs)
    pool = fresh_pool(specs)
    run_dir = RunDir(tmp_path)
    run_tournament(
        pool, rounds=200, registry=registry, cfg=GameConfig(ply_cap=40),
        seed=2, run_dir=run_dir, stop_rd=100.0,
    )
    rounds = (run_dir.root / "rounds.jsonl").read_text().splitlines()
    assert len(rounds) < 200  # stopped once every rd crossed the threshold
    assert all(p.rating.rd <= 100.0 for p in pool)


# ---------------------------------------------------------------------------
# Matches with a model player play their games at once

FEN_PREFIX = "The current FEN: "
LEGAL_PREFIX = "Legal moves in UCI notation: "


def fen_of(messages) -> str:
    """The FEN a request shows the model."""
    lines = (line for m in messages for line in m.content.splitlines())
    return next(line for line in lines if line.startswith(FEN_PREFIX))[len(FEN_PREFIX):]


class HashedTransport:
    """A stateless model: after `latency` seconds it answers one of the legal
    moves its prompt lists, chosen by a hash of the whole request, so games
    played in any order, or at once, get the same replies."""

    def __init__(self, latency=0.001):
        self.latency = latency

    def complete(self, messages):
        time.sleep(self.latency)
        text = "\n".join(m.content for m in messages)
        line = next(line for line in reversed(text.splitlines()) if line.startswith(LEGAL_PREFIX))
        moves = line[len(LEGAL_PREFIX):].rstrip(".").split()
        pick = int(hashlib.sha256(text.encode()).hexdigest(), 16) % len(moves)
        return ChatResponse(text=f"```{moves[pick]}```")


def toy_spec(pid="toy"):
    return PlayerSpec(id=pid, kind="uci_engine", engine_command=" ".join(TOY_ENGINE_CMD),
                      engine_limits={"depth": 1})


def reference_match(req, pool, cfg, registry, seed):
    """`run_match` as one loop: each game in index order, then its rating update."""
    entries = {p.id: p for p in pool}
    records = []
    for index in range(req.n_games):
        white_id, black_id = (req.a_id, req.b_id) if index % 2 == 0 else (req.b_id, req.a_id)
        game_seed = derive_seed(seed, f"game:{index}")
        gid = game_id_for(white_id, black_id, game_seed, index)
        record = play_game(registry.player(white_id), registry.player(black_id), cfg, game_seed, game_id=gid)
        records.append(record)
        if not record.aborted:
            white, black = entries[white_id], entries[black_id]
            white.rating, black.rating = update_pair(
                white.rating, black.rating, MatchOutcome(record.result_white), cfg.rating
            )
    return records


@pytest.mark.parametrize("opponent", ["llm", "random"])
def test_model_match_at_once_equals_games_in_order(tmp_path, opponent):
    other = llm_spec("other") if opponent == "llm" else PlayerSpec(id="other", kind="random")
    specs = [llm_spec("model"), other]
    registry = PlayerRegistry(
        specs, transports={s.id: HashedTransport() for s in specs if s.kind == "llm_api"}
    )
    # Every player listed, so the leaderboard files carry the ratings.
    cfg = GameConfig(ply_cap=24, rating=RatingConfig(display_rd_threshold=350.0))
    req = MatchRequest("model", "other", 8)  # more game threads than cores
    ref_pool = fresh_pool(specs)
    expected = reference_match(req, ref_pool, cfg, registry, seed=3)
    pool = fresh_pool(specs)
    run_dir = RunDir(tmp_path / "run")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that a lost update would show
    try:
        records = run_match(req, pool, cfg, registry, run_dir=run_dir, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert records == expected
    assert [run_dir.read_game(r.game_id) for r in records] == expected
    assert [p.rating for p in pool] == [p.rating for p in ref_pool]
    ref_dir = RunDir(tmp_path / "reference")
    for dir_, entries in ((run_dir, pool), (ref_dir, ref_pool)):
        dir_.write_pool(entries)
        dir_.write_leaderboard(compute_leaderboard(entries, cfg.rating))
    assert len(compute_leaderboard(pool, cfg.rating)) == 2
    for name in ("pool.json", "leaderboard.md", "leaderboard.json"):
        assert (run_dir.root / name).read_bytes() == (ref_dir.root / name).read_bytes()


def test_model_match_has_both_games_in_flight_at_once():
    """Each game's first model request waits for the other game's: played
    one after the other, the first wait times out and the match fails."""
    barrier = threading.Barrier(2, timeout=5)

    class Meeting(HashedTransport):
        def complete(self, messages):
            if fen_of(messages).split()[-1] == "1":  # the model's first move of a game
                barrier.wait()
            return super().complete(messages)

    specs = [llm_spec("model"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(specs, transports={"model": Meeting()})
    records = run_match(MatchRequest("model", "rand", 2), fresh_pool(specs), GameConfig(ply_cap=12),
                        registry, seed=1)
    assert [r.aborted for r in records] == [False, False]


def test_engine_match_never_overlaps_two_searches(monkeypatch):
    lock = threading.Lock()
    in_flight = []
    widths = []

    def recording_best_move(handle, board, limits):
        with lock:
            in_flight.append(handle)
            widths.append(len(in_flight))
        try:
            time.sleep(0.002)  # widen the window an overlap would need
            return best_move(handle, board, limits)
        finally:
            with lock:
                in_flight.remove(handle)

    monkeypatch.setattr(arena, "best_move", recording_best_move)
    specs = [toy_spec(), llm_spec("model")]
    with PlayerRegistry(specs, transports={"model": HashedTransport()}) as registry:
        records = run_match(MatchRequest("toy", "model", 4), fresh_pool(specs), GameConfig(ply_cap=16),
                            registry, seed=2)
    assert not any(r.aborted for r in records)
    assert widths and max(widths) == 1


def test_resumed_engine_match_starts_no_engine(tmp_path, monkeypatch):
    specs = [llm_spec("model"), toy_spec()]
    req = MatchRequest("model", "toy", 2)
    run_dir = RunDir(tmp_path)
    with PlayerRegistry(specs, transports={"model": HashedTransport()}) as registry:
        first = run_match(req, fresh_pool(specs), GameConfig(ply_cap=12), registry, run_dir=run_dir, seed=6)

    def no_engine(*args, **kwargs):
        raise AssertionError("a resumed match started an engine")

    monkeypatch.setattr(arena, "start_engine", no_engine)
    with PlayerRegistry(specs, transports={"model": HashedTransport()}) as registry:
        again = run_match(req, fresh_pool(specs), GameConfig(ply_cap=12), registry, run_dir=run_dir, seed=6)
    assert again == [dataclasses.replace(r, plies=None) for r in first]  # resume reads no ply row


def test_model_match_raises_a_game_error_once_the_other_game_ends(tmp_path):
    class FailsAsBlack(HashedTransport):
        def complete(self, messages):
            if fen_of(messages).split()[1] == "b":  # game 1, where the model plays Black
                raise RuntimeError("model broke")
            return super().complete(messages)

    specs = [llm_spec("model"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(specs, transports={"model": FailsAsBlack()})
    pool = fresh_pool(specs)
    run_dir = RunDir(tmp_path)
    with pytest.raises(RuntimeError, match="model broke"):
        run_match(MatchRequest("model", "rand", 2), pool, GameConfig(ply_cap=20), registry,
                  run_dir=run_dir, seed=4)
    game0 = game_id_for("model", "rand", derive_seed(4, "game:0"), 0)
    assert run_dir.game_ids() == [game0]
    assert not run_dir.read_game(game0).aborted
    assert all(p.rating == RatingState.fresh(RatingConfig()) for p in pool)


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_interrupted_model_match_returns_without_waiting_for_its_games(tmp_path, sigint_raises):
    release = threading.Event()

    class InterruptsThenStalls(HashedTransport):
        def complete(self, messages):
            side, move_number = fen_of(messages).split()[1::4]
            # Game 1, a few moves in, once the calling thread waits for the games.
            if side == "b" and move_number == "3" and not release.is_set():
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                release.wait(10)
            return super().complete(messages)

    specs = [llm_spec("model"), PlayerSpec(id="rand", kind="random")]
    registry = PlayerRegistry(specs, transports={"model": InterruptsThenStalls()})
    run_dir = RunDir(tmp_path)
    threads_before = threading.active_count()
    started = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_match(MatchRequest("model", "rand", 2), fresh_pool(specs), GameConfig(ply_cap=20), registry,
                      run_dir=run_dir, seed=4)
        waited = time.perf_counter() - started
        game1 = game_id_for("rand", "model", derive_seed(4, "game:1"), 1)
        assert not run_dir.game_path(game1).exists()  # unfinished, so a resume replays it
    finally:
        release.set()
        deadline = time.monotonic() + 10
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
    assert waited < 5
    assert threading.active_count() == threads_before


def test_run_tournament_without_a_round_removes_the_rounds_log(tmp_path):
    specs = random_specs()
    registry = PlayerRegistry(specs)
    run_dir = RunDir(tmp_path)
    run_tournament(fresh_pool(specs), rounds=2, registry=registry, cfg=GameConfig(ply_cap=20), seed=1,
                   run_dir=run_dir)
    assert len((run_dir.root / "rounds.jsonl").read_text().splitlines()) == 2
    run_tournament(fresh_pool(specs), rounds=0, registry=registry, cfg=GameConfig(ply_cap=20), seed=1,
                   run_dir=run_dir)
    assert not (run_dir.root / "rounds.jsonl").exists()
