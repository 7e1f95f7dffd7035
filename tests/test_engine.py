import os
import random
import sys
import textwrap
from types import SimpleNamespace

import pytest

import chessarena.core.moves as moves
import chessarena.engine as engine_module
from chessarena.arena import EnginePlayer, GameConfig, LlmPlayer, RandomPlayer, play_game
from chessarena.core import BoardState, legal_moves, parse_fen
from chessarena.engine import (
    AnalysisCache,
    EngineError,
    EngineProtocolError,
    Score,
    analyze_all_moves,
    analyze_positions,
    best_move,
    start_engine,
    table_from_dict,
    table_to_dict,
    top_moves_of,
    win_rate_from_score,
)
from chessarena.players import ChatResponse, PlayerSpec

from chessarena import UserError

from conftest import TOY_ENGINE_CMD, listing_engine, playout

MATE_IN_1 = "r1bqkbnr/pppp1ppp/2n5/4p3/2B1P3/5Q2/PPPP1PPP/RNB1K1NR w KQkq - 4 4"


def test_handshake_reports_name(toy_handle):
    assert toy_handle.name == "ToyFish 0.1"


def test_spawn_failure():
    with pytest.raises(EngineError, match="cannot start"):
        start_engine("/nonexistent/engine-binary")


def test_unknown_option_is_harmless():
    handle = start_engine(TOY_ENGINE_CMD, options={"SyzygyPath": "/tmp", "Threads": 1})
    try:
        table = analyze_all_moves(handle, BoardState.start().fen, depth=1)
        assert len(table.evals) == 20
    finally:
        handle.quit()


def test_analyze_covers_all_legal_moves(toy_handle):
    table = analyze_all_moves(toy_handle, BoardState.start().fen, depth=1)
    assert len(table.evals) == 20
    assert len(table.top_moves) == 3
    assert {ev.move.uci for ev in table.evals} == {m.uci for m in legal_moves(BoardState.start())}


def test_analyze_single_legal_move(toy_handle):
    fen = "k7/8/8/8/8/8/5PP1/r5K1 w - - 0 1"  # only g1h2 escapes
    assert len(legal_moves(parse_fen(fen))) == 1
    table = analyze_all_moves(toy_handle, fen, depth=1)
    assert len(table.evals) == 1
    assert table.top_moves == frozenset({"g1h2"})


def test_analyze_coverage_over_sampled_positions(toy_handle):
    for seed in range(10):
        board = playout(seed, 24)
        moves = legal_moves(board)
        if not moves:
            continue
        table = analyze_all_moves(toy_handle, board.fen, depth=1)
        assert {ev.move.uci for ev in table.evals} == {m.uci for m in moves}
        assert len(table.top_moves) == min(3, len(moves))


def test_analysis_is_deterministic(toy_handle):
    fen = playout(3, 20).fen
    t1 = analyze_all_moves(toy_handle, fen, depth=4)
    t2 = analyze_all_moves(toy_handle, fen, depth=4)
    assert table_to_dict(t1) == table_to_dict(t2)


def test_top_moves_stable_across_runs_on_corpus():
    corpus = [playout(seed, 16).fen for seed in range(6)]
    runs = []
    for _ in range(2):
        handle = start_engine(TOY_ENGINE_CMD, options={"Threads": 1})
        try:
            runs.append([sorted(analyze_all_moves(handle, fen, depth=2).top_moves) for fen in corpus])
        finally:
            handle.quit()
    assert runs[0] == runs[1]


def test_best_move_finds_mate(toy_handle):
    assert best_move(toy_handle, parse_fen(MATE_IN_1), {"depth": 4}).uci == "f3f7"
    table = analyze_all_moves(toy_handle, MATE_IN_1, depth=4)
    assert table.q_for("f3f7") == 0.999
    assert table.is_top("f3f7")


def test_best_move_limits(toy_handle):
    legal = {m.uci for m in legal_moves(BoardState.start())}
    assert best_move(toy_handle, BoardState.start(), {"depth": 1}).uci in legal
    assert best_move(toy_handle, BoardState.start(), {"nodes": 1}).uci in legal
    assert best_move(toy_handle, BoardState.start(), {"movetime": 10}).uci in legal
    with pytest.raises(ValueError):
        best_move(toy_handle, BoardState.start(), {"elo": 1500})


def test_best_move_rejects_terminal(toy_handle):
    mated = "rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3"
    with pytest.raises(EngineError, match="terminal"):
        best_move(toy_handle, parse_fen(mated), {"depth": 1})


def test_win_rate_mapping_values():
    assert win_rate_from_score(Score("cp", 0)) == 0.5
    assert abs(win_rate_from_score(Score("cp", 400)) - 10 / 11) < 1e-12
    assert win_rate_from_score(Score("mate", 1)) == 0.999
    assert win_rate_from_score(Score("mate", -1)) == pytest.approx(0.001)
    assert win_rate_from_score(Score("mate", 80)) == 0.95  # floor
    assert win_rate_from_score(Score("mate", -80)) == pytest.approx(0.05)


def test_win_rate_strictly_monotone_in_raw_order():
    # The logistic crosses the compressed mate band at |cp| ~ 511, so the
    # strictly-increasing guarantee covers cp scores up to +-500; ordering
    # decisions past that boundary fall back to the raw-score tiebreak.
    scores = (
        [Score("mate", -n) for n in range(1, 40)]  # mated-in-1 is the worst
        + [Score("cp", c) for c in range(-500, 501, 20)]
        + [Score("mate", n) for n in range(40, 0, -1)]
    )
    keys = [s.order_key() for s in scores]
    assert keys == sorted(keys)
    qs = [win_rate_from_score(s) for s in scores]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    wide = [win_rate_from_score(Score("cp", c)) for c in range(-3000, 3001, 50)]
    assert all(b > a for a, b in zip(wide, wide[1:]))


def test_win_rate_centipawn_complement():
    for c in (0, 13, 100, 385, 1200):
        total = win_rate_from_score(Score("cp", c)) + win_rate_from_score(Score("cp", -c))
        assert abs(total - 1.0) < 1e-12


def test_score_validation_and_ordering():
    with pytest.raises(ValueError):
        Score("mate", 0)
    with pytest.raises(ValueError):
        Score("pawns", 1)
    assert Score("mate", 1).order_key() > Score("mate", 5).order_key()
    assert Score("mate", 5).order_key() > Score("cp", 5000).order_key()
    assert Score("cp", -5000).order_key() > Score("mate", -5).order_key()
    assert Score("mate", -5).order_key() > Score("mate", -1).order_key()


def test_top_moves_tiebreak():
    from chessarena.core import MoveToken
    from chessarena.engine import MoveEval

    def ev(uci, kind, value, q):
        return MoveEval(MoveToken.from_uci(uci), Score(kind, value), q)

    evals = [
        ev("a2a3", "cp", 50, 0.6),
        ev("b2b3", "cp", 50, 0.6),
        ev("c2c3", "cp", 80, 0.6),  # same q, higher raw -> beats a/b
        ev("d2d4", "cp", 300, 0.8),
        ev("e2e4", "mate", 2, 0.998),
    ]
    assert top_moves_of(evals) == {"e2e4", "d2d4", "c2c3"}


def test_perspective_complement_after_quiet_reply(toy_handle):
    checked = 0
    seed = 0
    while checked < 20 and seed < 200:
        seed += 1
        board = playout(seed, 14)
        moves = legal_moves(board)
        if not moves:
            continue
        table = analyze_all_moves(toy_handle, board.fen, depth=1)
        from chessarena.core import apply_move

        mv = moves[0]
        after = apply_move(board, mv)
        replies = [m for m in legal_moves(after) if after.piece_at(m.to_index) is None]
        if not replies:
            continue
        table2 = analyze_all_moves(toy_handle, after.fen, depth=1)
        reply = next(
            (
                m
                for m in replies
                if table2.q_for(m) is not None
                and abs(table2.evals[0].score.value) < 100_000
            ),
            None,
        )
        if reply is None:
            continue
        ev2 = next(ev for ev in table2.evals if ev.move == reply)
        ev1 = next(ev for ev in table.evals if ev.move == mv)
        if ev1.score.kind != "cp" or ev2.score.kind != "cp":
            continue
        # A quiet reply leaves material unchanged: complementary win rates.
        assert abs(ev2.win_rate - (1.0 - ev1.win_rate)) <= 0.02
        checked += 1
    assert checked == 20


def mirror_fen(fen: str) -> str:
    placement, side, castle, ep, half, full = fen.split()
    flipped = "/".join(r.swapcase() for r in reversed(placement.split("/")))
    side2 = "w" if side == "b" else "b"
    if castle == "-":
        castle2 = "-"
    else:
        castle2 = "".join(sorted((c.swapcase() for c in castle), key="KQkq".index))
    ep2 = "-" if ep == "-" else ep[0] + str(9 - int(ep[1]))
    return " ".join([flipped, side2, castle2, ep2, half, full])


def mirror_uci(uci: str) -> str:
    out = uci[0] + str(9 - int(uci[1])) + uci[2] + str(9 - int(uci[3]))
    return out + uci[4:] if len(uci) == 5 else out


def test_color_flip_mirror_keeps_q(toy_handle):
    checked = 0
    for seed in range(40):
        board = playout(seed, 18)
        if not legal_moves(board):
            continue
        mirrored = mirror_fen(board.fen)
        t1 = analyze_all_moves(toy_handle, board.fen, depth=1)
        t2 = analyze_all_moves(toy_handle, mirrored, depth=1)
        for ev in t1.evals:
            assert t2.q_for(mirror_uci(ev.move.uci)) == pytest.approx(ev.win_rate, abs=1e-12)
        checked += 1
        if checked >= 8:
            break
    assert checked >= 8


def test_analysis_cache_round_trip(tmp_path, toy_handle):
    cache = AnalysisCache(tmp_path / "cache")
    fen = BoardState.start().fen
    assert cache.get("toy", fen, 1) is None
    table = analyze_all_moves(toy_handle, fen, depth=1)
    cache.put("toy", table)
    loaded = cache.get("toy", fen, 1)
    assert table_to_dict(loaded) == table_to_dict(table)
    assert cache.get("other-engine", fen, 1) is None
    assert cache.get("toy", fen, 2) is None


def test_analysis_cache_reloads_its_log(tmp_path, toy_handle):
    cache = AnalysisCache(tmp_path)
    fens = [MATE_IN_1] + [playout(seed, 12).fen for seed in range(5)]
    tables = [analyze_all_moves(toy_handle, fen, depth=2) for fen in fens]
    for table in tables:
        cache.put("toy", table)
    reloaded = AnalysisCache(tmp_path)
    assert [reloaded.get("toy", t.fen, 2) for t in tables] == tables
    assert [p.name for p in tmp_path.iterdir()] == ["analyses.jsonl"]
    assert len((tmp_path / "analyses.jsonl").read_text().splitlines()) == len(tables)


@pytest.mark.parametrize(
    "row, error",
    [
        (b"{not json", "JSONDecodeError"),
        (b"\xff\xfe", "UnicodeDecodeError"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"fen": "x", "depth": 1}', "KeyError: 'engine'"),
    ],
    ids=["not-json", "not-utf8", "not-an-object", "no-engine"],
)
def test_a_bad_middle_cache_row_names_file_and_line(tmp_path, toy_handle, row, error):
    cache = AnalysisCache(tmp_path)
    for seed in range(2):
        cache.put("toy", analyze_all_moves(toy_handle, playout(seed, 4).fen, depth=1))
    log = tmp_path / "analyses.jsonl"
    first, second = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(first + row + b"\n" + second)
    with pytest.raises(UserError, match=f"^{log}:2: .*{error}"):
        AnalysisCache(tmp_path)


def test_a_bad_table_in_a_cache_row_names_file_and_line(tmp_path, toy_handle):
    table = analyze_all_moves(toy_handle, playout(1, 4).fen, depth=1)
    AnalysisCache(tmp_path).put("toy", table)
    log = tmp_path / "analyses.jsonl"
    log.write_text(log.read_text().replace('"kind": "cp"', '"kind": "pawns"', 1))
    with pytest.raises(UserError, match=f"^{log}:1: ValueError: bad score kind"):
        AnalysisCache(tmp_path).get("toy", table.fen, 1)


@pytest.mark.parametrize(
    "bad_line, match",
    [
        ("info depth x score cp 10 pv e2e4", "malformed info line"),
        ("info depth 1 multipv 99 score cp 0 pv a1a8", "illegal move"),
    ],
    ids=["malformed", "illegal"],
)
def test_a_failed_queued_search_leaves_no_stale_lines(tmp_path, bad_line, match):
    fens = [playout(seed, 6).fen for seed in range(4)]
    handle = start_engine(listing_engine(tmp_path, bad_search=2, bad_line=bad_line))
    try:
        done = []
        with pytest.raises(EngineProtocolError, match=match):
            for table in analyze_positions(handle, fens[:3], depth=1):
                done.append(table.fen)
        assert done == fens[:1]
        # Search 3 was queued when search 2 failed; its lines are read, not left for search 4.
        table = analyze_all_moves(handle, fens[3], depth=1)
        assert table.fen == fens[3] and {ev.score.value for ev in table.evals} == {4}
    finally:
        handle.quit()


def test_a_search_left_queued_is_read_before_the_next(tmp_path):
    fens = [playout(seed, 6).fen for seed in range(3)]
    handle = start_engine(listing_engine(tmp_path))
    try:
        analyses = analyze_positions(handle, fens[:2], depth=1)
        assert next(analyses).fen == fens[0]
        analyses.close()  # the caller stops while search 2 is queued
        table = analyze_all_moves(handle, fens[2], depth=1)
        assert table.fen == fens[2] and {ev.score.value for ev in table.evals} == {3}
    finally:
        handle.quit()


def test_best_move_after_an_analysis_searches_at_multipv_1():
    handle, fresh = start_engine(TOY_ENGINE_CMD), start_engine(TOY_ENGINE_CMD)
    try:
        analyze_all_moves(handle, BoardState.start().fen, depth=2)
        assert handle.options["MultiPV"] == 20
        for seed in range(12):
            board = playout(seed, 10)
            if legal_moves(board):
                assert best_move(handle, board, {"depth": 3}) == best_move(fresh, board, {"depth": 3})
        assert handle.options["MultiPV"] == 1
        assert "MultiPV" not in fresh.options  # a handle that never analysed sends no MultiPV
    finally:
        handle.quit()
        fresh.quit()


def test_table_serialization_round_trip(toy_handle):
    table = analyze_all_moves(toy_handle, MATE_IN_1, depth=4)
    assert table_to_dict(table_from_dict(table_to_dict(table))) == table_to_dict(table)


def _script_engine(tmp_path, body: str):
    path = tmp_path / "engine.py"
    path.write_text(
        textwrap.dedent(
            """\
            import sys
            for line in sys.stdin:
                t = line.strip()
                if t == "uci":
                    print("id name Hostile"); print("uciok", flush=True)
                elif t == "isready":
                    print("readyok", flush=True)
                elif t == "quit":
                    break
            """
        ).replace("elif t == \"quit\":", body + "\n    elif t == \"quit\":")
    )
    return [sys.executable, str(path)]


def test_illegal_bestmove_is_protocol_error(tmp_path):
    cmd = _script_engine(
        tmp_path,
        'elif t.startswith("go"):\n        print("bestmove a1a8", flush=True)',
    )
    handle = start_engine(cmd)
    try:
        with pytest.raises(EngineProtocolError, match="illegal"):
            best_move(handle, BoardState.start(), {"depth": 1})
    finally:
        handle.quit()


def test_missing_coverage_is_protocol_error(tmp_path):
    cmd = _script_engine(
        tmp_path,
        'elif t.startswith("go"):\n'
        '        print("info depth 1 multipv 1 score cp 10 pv e2e4")\n'
        '        print("bestmove e2e4", flush=True)',
    )
    handle = start_engine(cmd)
    try:
        with pytest.raises(EngineProtocolError, match="covered 1/20"):
            analyze_all_moves(handle, BoardState.start().fen, depth=1)
    finally:
        handle.quit()


def test_bestmove_none_is_engine_error(tmp_path):
    cmd = _script_engine(
        tmp_path,
        'elif t.startswith("go"):\n        print("bestmove (none)", flush=True)',
    )
    handle = start_engine(cmd)
    try:
        with pytest.raises(EngineError, match="no move"):
            best_move(handle, BoardState.start(), {"depth": 1})
    finally:
        handle.quit()


@pytest.mark.parametrize(
    "line",
    [
        "info depth x score cp 10 pv e2e4",
        "info depth 3 score cp pv e2e4",
        "info depth 3 score mate 0 pv e2e4",
        "info depth 3 score cp 10 pv",
    ],
)
def test_malformed_info_line_is_protocol_error(tmp_path, line):
    cmd = _script_engine(
        tmp_path,
        'elif t.startswith("go"):\n'
        f'        print("{line}")\n'
        '        print("bestmove e2e4", flush=True)',
    )
    handle = start_engine(cmd)
    try:
        with pytest.raises(EngineProtocolError, match="malformed info line"):
            analyze_all_moves(handle, BoardState.start().fen, depth=1)
    finally:
        handle.quit()


def test_timed_out_engine_is_killed_not_reused(tmp_path):
    cmd = _script_engine(
        tmp_path,
        'elif t.startswith("go"):\n'
        '        __import__("time").sleep(1.0)\n'
        '        print("bestmove e2e4", flush=True)',
    )
    handle = start_engine(cmd)
    try:
        with pytest.raises(EngineError, match="silent"):
            best_move(handle, BoardState.start(), {"depth": 1}, timeout=0.2)
        # A live process would answer this search with the first one's late bestmove.
        with pytest.raises(EngineError, match="engine process is gone"):
            best_move(handle, BoardState.start(), {"depth": 1}, timeout=5.0)
    finally:
        handle.quit()


def test_engine_error_carries_the_stderr_tail(tmp_path):
    path = tmp_path / "crash.py"
    path.write_text(
        "import sys\n"
        "sys.stdin.readline()\n"
        "for i in range(30):\n"
        "    sys.stderr.write(f'line {i:02d}\\n')\n"
        "sys.stderr.write('fatal: cannot open weights file nn.bin\\n')\n"
        "sys.exit(3)\n"
    )
    with pytest.raises(EngineError, match="closed its output") as info:
        start_engine([sys.executable, str(path)])
    message = str(info.value)
    assert "fatal: cannot open weights file nn.bin" in message
    assert "line 29" in message and "line 11" in message
    assert "line 10" not in message  # only the last 20 lines are kept


def _chunk_engine(tmp_path, chunks, exit_after=False):
    """An engine that answers `go` by writing `chunks` to its stdout, one write
    and flush each (a number is a pause in seconds), then exits if `exit_after`."""
    path = tmp_path / "chunks.py"
    path.write_text(
        textwrap.dedent(
            f"""\
            import sys, time
            out = sys.stdout.buffer
            for line in sys.stdin:
                t = line.strip()
                if t == "uci":
                    out.write(b"id name Chunks\\nuciok\\n"); out.flush()
                elif t == "isready":
                    out.write(b"readyok\\n"); out.flush()
                elif t == "go":
                    for chunk in {chunks!r}:
                        if isinstance(chunk, bytes):
                            out.write(chunk); out.flush()
                        else:
                            time.sleep(chunk)
                    if {exit_after!r}:
                        break
                elif t == "quit":
                    break
            """
        )
    )
    return [sys.executable, str(path)]


@pytest.mark.parametrize(
    "chunks, lines",
    [
        ([b"info a\ninfo b\nbestmove e2e4\n"], ["info a", "info b", "bestmove e2e4"]),
        ([b"bestm", 0.1, b"ove e2e4\n"], ["bestmove e2e4"]),
        (
            [b"info a\r\ninfo b\r", 0.1, b"\ninfo c\rbestmove e2e4\r\n"],
            ["info a", "info b", "info c", "bestmove e2e4"],
        ),
        ([b"info caf\xe9 \xff\nbestmove e2e4\n"], ["info caf\ufffd \ufffd", "bestmove e2e4"]),
    ],
    ids=["lines-in-one-chunk", "line-across-two-writes", "crlf-and-cr", "non-utf8"],
)
def test_pipe_reader_cuts_lines(tmp_path, chunks, lines):
    handle = start_engine(_chunk_engine(tmp_path, chunks))
    try:
        handle.send("go")
        assert [handle.read_line(5.0) for _ in lines] == lines
        handle.send("isready")
        assert handle.read_line(5.0) == "readyok"  # nothing left over, no empty line
    finally:
        handle.quit()


def test_a_partial_line_then_silence_kills_the_engine(tmp_path):
    handle = start_engine(_chunk_engine(tmp_path, [b"bestmo"]))
    try:
        handle.send("go")
        with pytest.raises(EngineError, match="silent"):
            handle.read_line(0.3)
        assert handle._proc.wait(timeout=5) is not None
        for _ in range(2):
            with pytest.raises(EngineError, match="engine process is gone"):
                handle.read_line(5.0)
        with pytest.raises(EngineError, match="engine process is gone"):
            handle.send("isready")
    finally:
        handle.quit()


def test_a_partial_last_line_before_eof_is_delivered(tmp_path):
    handle = start_engine(_chunk_engine(tmp_path, [b"info last\npartial"], exit_after=True))
    try:
        handle.send("go")
        assert [handle.read_line(5.0), handle.read_line(5.0)] == ["info last", "partial"]
        for _ in range(2):  # every later read fails too
            with pytest.raises(EngineError, match="closed its output"):
                handle.read_line(5.0)
    finally:
        handle.quit()


def test_each_request_leaves_in_one_write(monkeypatch):
    handle = start_engine(TOY_ENGINE_CMD)  # fresh: the module's handle has analysed, so its MultiPV is not 1
    writes = []

    def recording_write(fd, data):
        writes.append(bytes(data))
        return os.write(fd, data)

    monkeypatch.setattr(engine_module, "os", SimpleNamespace(write=recording_write, read=os.read))
    fen = BoardState.start().fen
    try:
        best_move(handle, BoardState.start(), {"depth": 2})
        analyze_all_moves(handle, fen, depth=1)
        best_move(handle, BoardState.start(), {"depth": 2})
    finally:
        monkeypatch.undo()
        handle.quit()
    assert writes == [
        f"position fen {fen}\ngo depth 2\n".encode(),
        f"ucinewgame\nsetoption name MultiPV value 20\nposition fen {fen}\ngo depth 1\n".encode(),  # no isready
        f"setoption name MultiPV value 1\nposition fen {fen}\ngo depth 2\n".encode(),
    ]


def test_queued_searches_leave_one_ahead(monkeypatch, toy_handle):
    writes = []

    def recording_write(fd, data):
        writes.append(bytes(data))
        return os.write(fd, data)

    fens = [playout(seed, 8).fen for seed in range(3)]
    request = [
        f"ucinewgame\nsetoption name MultiPV value {len(legal_moves(parse_fen(fen)))}\nposition fen {fen}\ngo depth 1\n"
        for fen in fens
    ]
    monkeypatch.setattr(engine_module, "os", SimpleNamespace(write=recording_write, read=os.read))
    analyses = analyze_positions(toy_handle, fens, depth=1)
    assert next(analyses).fen == fens[0]
    # The second search is queued before the first answer is read.
    assert writes == [(request[0] + request[1]).encode()]
    assert [table.fen for table in analyses] == fens[1:]
    assert writes[1:] == [request[2].encode()]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
def test_start_quit_cycles_leave_no_descriptor_open():
    def cycle():
        handle = start_engine(TOY_ENGINE_CMD)
        best_move(handle, BoardState.start(), {"depth": 1})
        handle.quit()

    cycle()
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(20):
        cycle()
    assert sorted(os.listdir("/proc/self/fd")) == before


class LegalListTransport:
    """Answers every prompt with a seeded draw from the legal moves the
    prompt lists, so it generates no moves of its own."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def complete(self, messages):
        line = next(l for l in messages[-1].content.splitlines() if l.startswith("Legal moves"))
        return ChatResponse(text=f"```{self.rng.choice(line.rstrip('.').split(': ')[1].split())}```")


@pytest.mark.parametrize("kind", ["toyfish", "random", "llm"])
def test_each_position_generates_its_moves_once(monkeypatch, toy_handle, kind):
    calls = []
    original = moves._raw_legal_moves
    monkeypatch.setattr(moves, "_raw_legal_moves", lambda state: calls.append(state) or original(state))
    if kind == "toyfish":
        white = EnginePlayer(PlayerSpec(id="toy", kind="uci_engine", engine_limits={"depth": 2}), toy_handle)
    elif kind == "random":
        white = RandomPlayer(PlayerSpec(id="w", kind="random"))
    else:
        spec = PlayerSpec(id="llm", play_mode="blitz", history_format="uci_list")
        white = LlmPlayer(spec, LegalListTransport(25))
    record = play_game(white, RandomPlayer(PlayerSpec(id="rand", kind="random")), GameConfig(), seed=25)
    assert not record.aborted and len(record.plies) >= 20
    assert all(len(ply.attempts) == 1 for ply in record.plies)
    # The view, the move check, the repetition key and the status check share one list.
    assert len(calls) == len(record.plies) + 1
