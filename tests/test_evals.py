import csv
import json
import random
import signal
import threading
import time
from dataclasses import replace

import pytest

from chessarena.core import BoardState, legal_moves, legal_moves_for_square, parse_fen
from chessarena.engine import AnalysisTable, MoveEval, Score, top_moves_of, win_rate_from_score
from chessarena.evals import (
    BasicUnderstandingItem,
    EvalReport,
    MoveSelectionItem,
    bucket_label,
    build_basic_understanding_prompt,
    build_basic_understanding_set,
    load_lichess_puzzles,
    load_move_items,
    parse_basic_response,
    psa_report,
    rl_reward,
    run_basic_understanding,
    run_move_selection,
    run_puzzle,
    save_move_items,
    score_basic_understanding,
)
from chessarena.arena import GameConfig, GameView, LlmPlayer, RandomPlayer, make_player, play_game
from chessarena.players import ChatResponse, PlayerSpec, TransportError
from chessarena.core import MoveToken

from conftest import PUZZLES_CSV, ScriptedTransport, playout, playout_with_moves

START = BoardState.start().fen


def synthetic_table(fen: str, rng: random.Random) -> AnalysisTable:
    evals = []
    for mv in legal_moves(parse_fen(fen)):
        score = Score("cp", rng.randrange(-400, 401))
        evals.append(MoveEval(mv, score, win_rate_from_score(score)))
    return AnalysisTable(fen, 1, tuple(evals), top_moves_of(evals))


def corpus_fens(n: int, seed: int = 0) -> list:
    fens = []
    s = seed
    while len(fens) < n:
        board = playout(s, 12 + (s % 30))
        s += 1
        if legal_moves(board):
            fens.append(board.fen)
    return fens


# ---------------------------------------------------------------------------
# Basic understanding


def test_basic_set_is_deterministic():
    fens = corpus_fens(10)
    a = build_basic_understanding_set(fens, 50, seed=4)
    b = build_basic_understanding_set(fens, 50, seed=4)
    assert a == b
    c = build_basic_understanding_set(fens, 50, seed=5)
    assert a != c


def test_basic_set_mixture_within_three_sigma():
    fens = corpus_fens(40)
    items = build_basic_understanding_set(fens, 200, seed=1)
    counts = {"own": 0, "opponent": 0, "empty": 0}
    for item in items:
        counts[item.category] += 1
    # binomial 3-sigma bands around 170 / 14 / 16
    assert 155 <= counts["own"] <= 185
    assert 3 <= counts["opponent"] <= 25
    assert 4 <= counts["empty"] <= 28


def test_basic_set_ground_truth_is_recomputed():
    fens = corpus_fens(15)
    for item in build_basic_understanding_set(fens, 60, seed=2):
        board = parse_fen(item.fen)
        piece, moves = legal_moves_for_square(board, item.square)
        assert item.expected_piece == (piece.symbol if piece else None)
        assert item.expected_moves == tuple(m.uci for m in moves)
        if item.category == "empty":
            assert item.expected_piece is None
        elif item.category == "opponent":
            assert item.expected_moves == ()


def test_basic_set_start_g1_example():
    items = build_basic_understanding_set([START], 300, seed=0)
    g1 = next(i for i in items if i.square == "g1")
    assert g1.expected_piece == "N"
    assert set(g1.expected_moves) == {"g1f3", "g1h3"}
    e7 = next(i for i in items if i.square == "e7")
    assert e7.expected_piece == "p"
    assert e7.expected_moves == ()


def test_basic_prompt_template():
    messages = build_basic_understanding_prompt(START, "g1")
    assert messages[0].role == "system"
    assert '"piece": "N"' in messages[0].content
    assert messages[1].content == (
        f"Current board position in FEN notation:{START}\nPosition:g1"
    )


def test_parse_basic_response_variants():
    good = '```json\n{"piece": "N", "legal moves": ["g1f3", "g1h3"]}\n```'
    assert parse_basic_response(good) == ("N", ["g1f3", "g1h3"])
    bare = '{"piece": null, "legal moves": []}'
    assert parse_basic_response(bare) == (None, [])
    wordy = 'Let me think...\n```json\n{"piece": "None", "legal moves": []}\n```\nDone.'
    assert parse_basic_response(wordy) == (None, [])
    assert parse_basic_response("no json here") is None
    assert parse_basic_response('{"piece": "N"}') is None  # missing key


def make_item(fen, square):
    board = parse_fen(fen)
    piece, moves = legal_moves_for_square(board, square)
    return BasicUnderstandingItem(
        fen, square, piece.symbol if piece else None, tuple(m.uci for m in moves)
    )


def answer(piece, moves):
    return "```json\n" + json.dumps({"piece": piece, "legal moves": moves}) + "\n```"


def test_score_basic_all_correct():
    items = [make_item(START, "g1"), make_item(START, "e4"), make_item(START, "e7")]
    responses = [
        answer("N", ["g1f3", "g1h3"]),
        answer(None, []),
        answer("p", []),
    ]
    scores = score_basic_understanding(items, responses)
    assert scores["pma"] == 100.0
    assert scores["precision"] == 100.0
    assert scores["recall"] == 100.0


def test_score_basic_superset_prediction():
    items = [make_item(START, "g1")]
    scores = score_basic_understanding(items, [answer("N", ["g1f3", "g1h3", "g1e2"])])
    assert scores["pma"] == 100.0
    assert scores["precision"] == pytest.approx(100 * 2 / 3)
    assert scores["recall"] == 100.0


def test_score_basic_unparseable_is_fully_wrong():
    items = [make_item(START, "g1"), make_item(START, "e4")]
    scores = score_basic_understanding(items, ["garbage", answer(None, [])])
    assert scores["pma"] == 50.0
    # Unparseable charges max(|expected|,1)=2 to both denominators.
    assert scores["precision"] == pytest.approx(100 * 1 / 3)
    assert scores["recall"] == pytest.approx(100 * 1 / 3)


def test_score_basic_piece_symbol_case_sensitive():
    items = [make_item(START, "e7")]
    scores = score_basic_understanding(items, [answer("P", [])])
    assert scores["pma"] == 0.0  # black pawn is "p", not "P"


def test_score_basic_rejects_length_mismatch():
    with pytest.raises(ValueError):
        score_basic_understanding([make_item(START, "g1")], [])


def test_basic_run_keeps_item_order_at_any_width_and_a_failed_call_is_unparsed(tmp_path):
    items = build_basic_understanding_set(corpus_fens(10), 16, seed=2)
    failing = (items[5].fen, items[5].square)
    spec = PlayerSpec(id="llm", kind="llm_api", endpoint="stub")

    class AnswerFromTheRules:
        """Answers each item correctly, except that the call for `failing` fails."""

        def complete(self, messages):
            fen_line, square_line = messages[-1].content.splitlines()
            fen, square = fen_line.split(":", 1)[1], square_line.split(":", 1)[1]
            if (fen, square) == failing:
                raise TransportError("endpoint down")
            piece, moves = legal_moves_for_square(parse_fen(fen), square)
            time.sleep(0.001)  # let the other worker answer in between
            return ChatResponse(text=answer(piece.symbol if piece else None, [m.uci for m in moves]))

    reports = []
    for workers in (1, 2):
        scores = run_basic_understanding(spec, items, transport=AnswerFromTheRules(), workers=workers)
        path = tmp_path / f"workers-{workers}.jsonl"
        EvalReport.basic(scores).write_jsonl(path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    assert [row["parsed"] for row in scores["rows"]] == [(i.fen, i.square) != failing for i in items]
    assert scores["pma"] == pytest.approx(100 * sum(row["parsed"] for row in scores["rows"]) / len(items))


# ---------------------------------------------------------------------------
# Move selection


def test_move_selection_item_requires_covering_table():
    rng = random.Random(0)
    table = synthetic_table(START, rng)
    MoveSelectionItem(START, (), "blitz", True, table)  # fine
    other = synthetic_table(playout(1, 6).fen, rng)
    with pytest.raises(ValueError, match="cover"):
        MoveSelectionItem(START, (), "blitz", True, other)


def test_mar_contributions_average_zero_per_position():
    rng = random.Random(3)
    for seed in range(10):
        fen = playout(seed, 10).fen
        table = synthetic_table(fen, rng)
        awr = table.awr
        contributions = [(ev.win_rate - awr) / awr for ev in table.evals]
        assert abs(sum(contributions) / len(contributions)) < 1e-12


def test_move_selection_all_illegal_gives_minus_100():
    rng = random.Random(1)
    items = [
        MoveSelectionItem(playout(s, 8).fen, (), "blitz", True, synthetic_table(playout(s, 8).fen, rng))
        for s in range(5)
    ]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    transport = ScriptedTransport(["```a1a8```"] * len(items))
    report = run_move_selection(spec, items, transport=transport)
    assert report["lr"] == 0.0
    assert report["tr"] == 0.0
    assert report["mar"] == pytest.approx(-100.0)


def test_move_selection_top_move_choice():
    rng = random.Random(2)
    table = synthetic_table(START, rng)
    best = max(table.evals, key=lambda ev: ev.win_rate)
    items = [MoveSelectionItem(START, (), "blitz", True, table)]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    report = run_move_selection(spec, items, transport=ScriptedTransport([f"```{best.move.uci}```"]))
    assert report["lr"] == 100.0
    assert report["tr"] == 100.0
    expected_mar = 100.0 * (best.win_rate - table.awr) / table.awr
    assert report["mar"] == pytest.approx(expected_mar)


def test_move_selection_random_player_legal_and_near_zero():
    rng_tables = random.Random(5)
    items = []
    for s in range(120):
        fen = playout(s, 6 + s % 24).fen
        items.append(MoveSelectionItem(fen, (), "blitz", True, synthetic_table(fen, rng_tables)))
    spec = PlayerSpec(id="random", kind="random")
    report = run_move_selection(spec, items, rng=random.Random(0))
    assert report["lr"] == 100.0
    assert abs(report["mar"]) < 12.0  # small sample; acceptance uses >= 500 items


def test_move_selection_random_player_without_rng_is_seeded():
    rng_tables = random.Random(6)
    items = []
    for s in range(20):
        fen = playout(s, 8 + s % 20).fen
        items.append(MoveSelectionItem(fen, (), "blitz", True, synthetic_table(fen, rng_tables)))
    spec = PlayerSpec(id="random", kind="random")
    first = run_move_selection(spec, items)
    assert run_move_selection(spec, items) == first
    # One stream per call, not one per item: the draws are those of Random(0).
    assert first == run_move_selection(spec, items, rng=random.Random(0))


@pytest.mark.parametrize("mode", ["blitz", "blindfold"])
def test_move_selection_prompts_equal_arena_prompts(mode):
    board, moves = playout_with_moves(11, 7)
    table = synthetic_table(board.fen, random.Random(11))
    items = [MoveSelectionItem(board.fen, tuple(m.uci for m in moves), mode, True, table)]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="standard", history_format="pgn")
    reply = f"```{legal_moves(board)[0].uci}```"

    in_eval = ScriptedTransport([reply])
    assert run_move_selection(spec, items, transport=in_eval)["lr"] == 100.0
    in_arena = ScriptedTransport([reply])
    view = GameView(board, tuple(moves), board.side_to_move, random.Random(0))
    LlmPlayer(replace(spec, play_mode=mode), in_arena).choose(view)
    assert in_eval.calls == in_arena.calls
    assert len(in_eval.calls) == 1


class RecordingHandle:
    """Engine handle stand-in that records the commands it is sent and
    always answers with the same best move."""

    def __init__(self, uci: str):
        self.uci = uci
        self.sent = []

    def send(self, line: str) -> None:
        self.sent.append(line)

    def expect(self, token: str, timeout: float) -> list:
        return [f"bestmove {self.uci}"]

    def searches(self) -> list:
        return [line for line in self.sent if line.startswith("go")]


def test_engine_default_depth_is_the_same_in_arena_and_evals():
    spec = PlayerSpec(id="engine", kind="uci_engine", engine_command="unused")
    in_arena = RecordingHandle("e2e4")
    record = play_game(
        make_player(spec, handle=in_arena), RandomPlayer(PlayerSpec(id="random", kind="random")),
        GameConfig(ply_cap=2), seed=0,
    )
    assert record.moves[0] == "e2e4"
    in_eval = RecordingHandle("e2e4")
    items = [MoveSelectionItem(START, (), "blitz", True, synthetic_table(START, random.Random(4)))]
    assert run_move_selection(spec, items, handle=in_eval)["lr"] == 100.0
    assert in_eval.searches() == in_arena.searches() == ["go depth 4"]


def test_predict_move_builds_the_legal_list_only_for_players_that_read_it(monkeypatch):
    import chessarena.core.moves as moves
    import chessarena.evals as evals

    calls = []
    original = moves._raw_legal_moves
    monkeypatch.setattr(moves, "_raw_legal_moves", lambda state: calls.append(state) or original(state))
    engine = PlayerSpec(id="engine", kind="uci_engine", engine_command="unused")
    attempt = evals.predict_move(engine, BoardState.start(), (), handle=RecordingHandle("e2e4"))
    assert attempt.move == MoveToken.from_uci("e2e4")
    assert len(calls) == 1  # best_move checks the engine's answer against the position's list
    board = BoardState.start()
    random_spec = PlayerSpec(id="random", kind="random")
    attempt = evals.predict_move(random_spec, board, (), rng=random.Random(0))
    assert attempt.move in legal_moves(board)
    assert len(calls) == 2


def test_move_selection_prediction_matching_awr_contributes_zero():
    moves = legal_moves(BoardState.start())
    q = 0.5
    evals = tuple(MoveEval(mv, Score("cp", 0), q) for mv in moves)
    table = AnalysisTable(START, 1, evals, top_moves_of(evals))
    items = [MoveSelectionItem(START, (), "blitz", True, table)]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    report = run_move_selection(spec, items, transport=ScriptedTransport(["```e2e4```"]))
    assert report["mar"] == pytest.approx(0.0)


def test_move_selection_blindfold_uses_conversation():
    board = BoardState.start()
    history = ("e2e4", "e7e5")
    from chessarena.core import apply_move

    for uci in history:
        board = apply_move(board, MoveToken.from_uci(uci))
    rng = random.Random(7)
    table = synthetic_table(board.fen, rng)
    items = [MoveSelectionItem(board.fen, history, "blindfold", True, table)]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blindfold", provide_legal_moves=True)
    transport = ScriptedTransport(["```g1f3```"])
    report = run_move_selection(spec, items, transport=transport)
    assert report["lr"] == 100.0
    sent = transport.calls[0]
    assert "reconstruct the game" in sent[0].content
    assert any(m.role == "assistant" for m in sent)


@pytest.mark.parametrize("spec_flag", [True, False])
def test_move_selection_shows_legal_moves_by_the_items_flag(spec_flag):
    table = synthetic_table(START, random.Random(5))
    items = [MoveSelectionItem(START, (), "blitz", flag, table) for flag in (False, True)]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=spec_flag)
    transport = ScriptedTransport(["```e2e4```"] * 2)
    assert run_move_selection(spec, items, transport=transport)["lr"] == 100.0
    shown = ["Legal moves in UCI notation" in sent[-1].content for sent in transport.calls]
    assert shown == [False, True]


def test_move_items_round_trip(tmp_path):
    rng = random.Random(11)
    items = [
        MoveSelectionItem(board.fen, tuple(m.uci for m in moves), "blitz", True, synthetic_table(board.fen, rng))
        for board, moves in map(playout_with_moves, range(3), [10] * 3)
    ]
    path = tmp_path / "items.jsonl"
    save_move_items(items, path)
    loaded = load_move_items(path)
    assert [i.fen for i in loaded] == [i.fen for i in items]
    assert loaded[0].table.top_moves == items[0].table.top_moves


def test_move_items_keep_a_san_history_as_uci(tmp_path):
    board = BoardState.start()
    from chessarena.core import apply_move

    for uci in ("e2e4", "e7e5"):
        board = apply_move(board, MoveToken.from_uci(uci))
    item = MoveSelectionItem(board.fen, ("e4", "e5"), "blitz", True, synthetic_table(board.fen, random.Random(3)))
    path = tmp_path / "items.jsonl"
    save_move_items([item], path)
    (loaded,) = load_move_items(path)
    assert loaded.history == ("e2e4", "e7e5")
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    transport = ScriptedTransport(["```g1f3```"])
    run_move_selection(spec, [loaded], transport=transport)
    assert "Move history in UCI notation: e2e4 e7e5." in transport.calls[0][1].content


def test_a_move_items_write_that_fails_leaves_the_old_file(tmp_path):
    rng = random.Random(12)
    items = [
        MoveSelectionItem(board.fen, tuple(m.uci for m in moves), "blitz", True, synthetic_table(board.fen, rng))
        for board, moves in map(playout_with_moves, range(2), [6] * 2)
    ]
    path = tmp_path / "items.jsonl"
    save_move_items(items, path)
    old = path.read_bytes()
    bad = replace(items[1], mode={"blitz"})  # a set does not encode
    with pytest.raises(TypeError):
        save_move_items([items[0], bad], path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["items.jsonl"]


# ---------------------------------------------------------------------------
# Puzzles


def test_load_puzzles_fixture():
    puzzles = load_lichess_puzzles(PUZZLES_CSV)
    assert len(puzzles) == 200
    assert all(p.moves for p in puzzles)
    assert all(200 <= p.rating <= 1400 for p in puzzles)
    limited = load_lichess_puzzles(PUZZLES_CSV, limit=10)
    assert len(limited) == 10
    low = load_lichess_puzzles(PUZZLES_CSV, max_rating=700)
    assert all(p.rating <= 700 for p in low)
    themed = load_lichess_puzzles(PUZZLES_CSV, themes={"mateIn1"})
    assert all("mateIn1" in p.themes for p in themed)


def test_load_puzzles_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("PuzzleId,FEN,Moves\nx,y,z\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_lichess_puzzles(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_lichess_puzzles(empty)


def test_load_puzzles_skips_invalid_rows(tmp_path):
    rows = list(csv.DictReader(open(PUZZLES_CSV)))
    bad = dict(rows[0])
    bad["PuzzleId"] = "broken"
    bad["Moves"] = "e2e4 e2e4"  # illegal replay
    path = tmp_path / "mixed.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerow(rows[0])
        writer.writerow(bad)
    puzzles = load_lichess_puzzles(path)
    assert [p.puzzle_id for p in puzzles] == [rows[0]["PuzzleId"]]


def test_run_puzzle_exact_match_protocol():
    puzzles = load_lichess_puzzles(PUZZLES_CSV, themes={"mateIn2"}, limit=1)
    puzzle = puzzles[0]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    solver_moves = [puzzle.moves[i] for i in range(1, len(puzzle.moves), 2)]
    transport = ScriptedTransport([f"```{m}```" for m in solver_moves])
    outcome = run_puzzle(spec, puzzle, transport=transport)
    assert outcome.solved and outcome.failed_at is None
    # A wrong second solver move fails the puzzle even if legal.
    board = parse_fen(puzzle.fen)
    from chessarena.core import apply_move

    for uci in puzzle.moves[:3]:
        board = apply_move(board, MoveToken.from_uci(uci))
    alternate = next((m.uci for m in legal_moves(board) if m.uci != puzzle.moves[3]), None)
    assert alternate is not None
    transport = ScriptedTransport([f"```{puzzle.moves[1]}```", f"```{alternate}```"])
    outcome = run_puzzle(spec, puzzle, transport=transport)
    assert not outcome.solved and outcome.failed_at == 3


def test_run_puzzle_uses_blitz_template_even_for_other_modes():
    puzzle = load_lichess_puzzles(PUZZLES_CSV, limit=1)[0]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="standard", provide_legal_moves=True)
    transport = ScriptedTransport(["```a1a1```"])
    run_puzzle(spec, puzzle, transport=transport)
    system = transport.calls[0][0].content
    assert "reconstruct" not in system
    assert "You can think and reason" in system


def test_puzzle_determinism_with_scripted_player():
    puzzle = load_lichess_puzzles(PUZZLES_CSV, themes={"mateIn1"}, limit=1)[0]
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    outcomes = set()
    for _ in range(3):
        transport = ScriptedTransport([f"```{puzzle.moves[1]}```"])
        outcomes.add(run_puzzle(spec, puzzle, transport=transport).solved)
    assert outcomes == {True}


def test_bucket_label_boundaries():
    assert bucket_label(200) == "200-600"
    assert bucket_label(599) == "200-600"
    assert bucket_label(600) == "600-1000"  # left-closed
    assert bucket_label(2599) == "2200-2600"
    assert bucket_label(2600) == "2600-3000"
    assert bucket_label(3000) == "2600-3000"


def test_psa_report_buckets():
    from chessarena.evals import PuzzleOutcome

    outcomes = [
        PuzzleOutcome("a", 300, True, ()),
        PuzzleOutcome("b", 450, False, ()),
        PuzzleOutcome("c", 700, True, ()),
        PuzzleOutcome("d", 2900, False, ()),
    ]
    report = psa_report(outcomes)
    assert report["buckets"] == {"200-600": 50.0, "600-1000": 100.0, "2600-3000": 0.0}
    assert "1000-1400" not in report["buckets"]  # absent buckets stay absent
    assert report["overall"] == 50.0
    assert report["n"] == 4
    assert psa_report([])["overall"] == 0.0


# ---------------------------------------------------------------------------
# Reward scorer


def reward_fixture():
    rng = random.Random(13)
    table = synthetic_table(START, rng)
    top = sorted(table.top_moves)[0]
    non_top = next(ev.move.uci for ev in table.evals if ev.move.uci not in table.top_moves)
    return table, top, non_top


def test_rl_reward_weighted_cases():
    table, top, non_top = reward_fixture()
    perfect = f"<answer>```\n{top}\n```</answer>"
    assert rl_reward(perfect, START, table) == pytest.approx(1.0)
    formatted_non_top = f"<answer>```\n{non_top}\n```</answer>"
    assert rl_reward(formatted_non_top, START, table) == pytest.approx(0.4)
    unformatted_top = f"I play {top}"
    assert rl_reward(unformatted_top, START, table) == pytest.approx(0.9)
    unformatted_non_top = f"```{non_top}```"
    assert rl_reward(unformatted_non_top, START, table) == pytest.approx(0.9 - 0.6)
    formatted_illegal = "<answer>```\na1a8\n```</answer>"
    assert rl_reward(formatted_illegal, START, table) == pytest.approx(0.1)
    assert rl_reward("total garbage", START, table) == 0.0


def test_rl_reward_custom_weights():
    table, top, _ = reward_fixture()
    assert rl_reward(f"<answer>```\n{top}\n```</answer>", START, table, weights=(0.2, 0.3, 0.5)) == 1.0
    assert rl_reward(top, START, table, weights=(0.5, 0.25, 0.25)) == 0.5


# ---------------------------------------------------------------------------
# Reports


def test_eval_report_aggregates_recomputable(tmp_path):
    from chessarena.evals import EvalReport, PuzzleOutcome

    outcomes = [
        PuzzleOutcome("a", 300, True, ()),
        PuzzleOutcome("b", 900, False, (), failed_at=1),
        PuzzleOutcome("c", 950, True, ()),
    ]
    report = EvalReport.puzzles(outcomes)
    assert report.task == "puzzles"
    solved = sum(1 for r in report.rows if r["solved"])
    assert report.aggregates["overall"] == pytest.approx(100.0 * solved / len(report.rows))
    path = tmp_path / "r.jsonl"
    report.write_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "summary" and lines[0]["task"] == "puzzles"
    assert len(lines) == 1 + len(outcomes)
    assert "Overall" in report.render()


def test_a_report_write_that_fails_leaves_the_old_report(tmp_path):
    from chessarena.evals import EvalReport

    path = tmp_path / "r.jsonl"
    EvalReport("moves", {"lr": 1.0}, ({"fen": "x"},)).write_jsonl(path)
    old = path.read_bytes()
    with pytest.raises(TypeError):
        EvalReport("moves", {"lr": 2.0}, ({"fen": "y"}, {"fen": {"z"}})).write_jsonl(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


def test_run_move_selection_parallel_matches_serial():
    rng = random.Random(21)
    items = []
    for s in range(12):
        fen = playout(s, 9).fen
        items.append(MoveSelectionItem(fen, (), "blitz", True, synthetic_table(fen, rng)))
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)

    class EchoBest:
        def complete(self, messages):
            from chessarena.players import ChatResponse

            fen = messages[-1].content.splitlines()[0][len("The current FEN: "):]
            match = next(i for i in items if i.fen == fen)
            best = max(match.table.evals, key=lambda ev: ev.win_rate)
            return ChatResponse(text=f"```{best.move.uci}```")

    serial = run_move_selection(spec, items, transport=EchoBest(), workers=1)
    parallel = run_move_selection(spec, items, transport=EchoBest(), workers=4)
    assert serial == parallel
    assert serial["tr"] == 100.0


def test_run_puzzles_parallel_matches_serial():
    from chessarena.evals import run_puzzles

    puzzles = load_lichess_puzzles(PUZZLES_CSV, themes={"mateIn1"}, limit=6)
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)

    class SolveExactly:
        def complete(self, messages):
            from chessarena.players import ChatResponse

            fen = messages[-1].content.splitlines()[0][len("The current FEN: "):]
            for p in puzzles:
                board = parse_fen(p.fen)
                from chessarena.core import apply_move

                board = apply_move(board, MoveToken.from_uci(p.moves[0]))
                if board.fen == fen:
                    return ChatResponse(text=f"```{p.moves[1]}```")
            return ChatResponse(text="```a1a1```")

    serial = run_puzzles(spec, puzzles, transport=SolveExactly(), workers=1)
    parallel = run_puzzles(spec, puzzles, transport=SolveExactly(), workers=3)
    assert [o.solved for o in serial] == [o.solved for o in parallel]
    assert all(o.solved for o in serial)


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_an_interrupted_parallel_puzzle_run_returns_without_waiting_for_its_calls(sigint_raises):
    """Both workers' calls stall; the second to start interrupts the calling
    thread, which returns at once and starts no further call."""
    from chessarena.evals import run_puzzles
    from chessarena.players import ChatResponse

    puzzles = load_lichess_puzzles(PUZZLES_CSV, limit=20)
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)
    release = threading.Event()

    class InterruptsThenStalls:
        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def complete(self, messages):
            with self.lock:
                self.calls += 1
                both_in_flight = self.calls == 2
            if both_in_flight:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            release.wait(10)
            return ChatResponse(text="```a1a1```")

    transport = InterruptsThenStalls()
    threads_before = threading.active_count()
    started = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_puzzles(spec, puzzles, transport=transport, workers=2)
        waited = time.perf_counter() - started
        calls_at_interrupt = transport.calls
    finally:
        release.set()
        deadline = time.monotonic() + 10
        while threading.active_count() > threads_before and time.monotonic() < deadline:
            time.sleep(0.01)
    assert waited < 5
    assert calls_at_interrupt == transport.calls == 2
    assert threading.active_count() == threads_before


def test_a_failed_parallel_puzzle_run_stops_asking():
    """A model player's puzzles run on worker threads; when one raises, the
    puzzles still queued are never sent to the provider."""
    import threading
    import time

    from chessarena.evals import run_puzzles
    from chessarena.players import ChatResponse

    puzzles = load_lichess_puzzles(PUZZLES_CSV, limit=24)
    spec = PlayerSpec(id="llm", kind="llm_api", play_mode="blitz", provide_legal_moves=True)

    class FailsFirst:
        def __init__(self):
            self.calls = 0
            self.lock = threading.Lock()

        def complete(self, messages):
            with self.lock:
                self.calls += 1
                first = self.calls == 1
            if first:
                raise RuntimeError("provider refused the key")
            time.sleep(0.02)
            return ChatResponse(text="```a1a1```")

    transport = FailsFirst()
    with pytest.raises(RuntimeError, match="provider refused the key"):
        run_puzzles(spec, puzzles, transport=transport, workers=2)
    assert len(puzzles) == 24
    assert transport.calls < len(puzzles)
