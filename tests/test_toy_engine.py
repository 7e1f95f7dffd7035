"""Toyfish's search output is pinned: a golden digest over playout and puzzle
positions, the mate-in-two label against the brute-force oracle, and the
shortcuts the search takes against the full computations they replace."""

import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chessarena.core import BoardState, MoveToken, apply_move, legal_moves, parse_fen
from chessarena.core.moves import _iter_legal_moves, _raw_apply, _raw_legal_moves, _uci_order
from chessarena.evals import load_lichess_puzzles
from chessarena.core import is_check
from chessarena.engine import EngineError, start_engine
from chessarena.toy_engine import (
    _check_candidates,
    _material_gain,
    _order_key,
    _set_position,
    _stuck,
    material_balance,
    run,
    score_moves,
)

from conftest import PUZZLES_CSV, TOY_ENGINE_CMD, playout, playout_with_moves
from oracle_chess import o_apply_uci, o_in_check, o_legal_moves, o_parse

# sha256 over the sorted `score_moves` output of every position below; any
# change to one score, label or move order changes it.
GOLDEN_DIGEST = "561bdc02650758a521801fbb4721518ac06934ac309ed220d7a37419b07f57fd"


def _playout_positions():
    """Every fifth position of twelve seeded random games, terminal ones too."""
    positions = []
    for seed in range(12):
        rng = random.Random(seed)
        board = BoardState.start()
        for ply in range(200):
            moves = legal_moves(board)
            if ply % 5 == 0 or not moves:
                positions.append(board)
            if not moves:
                break
            board = apply_move(board, moves[rng.randrange(len(moves))])
    return positions


PUZZLES = load_lichess_puzzles(PUZZLES_CSV)


def _after_setup(puzzle, plies=1):
    """The puzzle's position after its first `plies` recorded moves."""
    board = parse_fen(puzzle.fen)
    for uci in puzzle.moves[:plies]:
        board = apply_move(board, MoveToken.from_uci(uci))
    return board


def _digest(jobs):
    h = hashlib.sha256()
    for board, depth in jobs:
        scored = sorted(score_moves(board, depth), key=_order_key)
        h.update(json.dumps([board.fen, depth, scored]).encode() + b"\n")
    return h.hexdigest()


def test_score_moves_golden_digest():
    playouts = _playout_positions()
    jobs = [(b, 2) for b in playouts] + [(b, 12) for b in playouts]
    jobs += [(_after_setup(p), 12) for p in PUZZLES]
    assert len(jobs) > 700
    assert _digest(jobs) == GOLDEN_DIGEST


def _o_allows_mate_in_one(pos) -> bool:
    for uci in o_legal_moves(pos):
        after = o_apply_uci(pos, uci)
        if o_in_check(after) and not o_legal_moves(after):
            return True
    return False


@settings(max_examples=30, deadline=None)
@given(
    source=st.one_of(
        st.tuples(st.just("puzzle"), st.integers(0, len(PUZZLES) - 1), st.sampled_from([1, 3])),
        st.tuples(st.just("playout"), st.integers(0, 10_000), st.integers(0, 120)),
    ),
    depth=st.integers(3, 20),
)
def test_mate_in_two_label_matches_oracle(source, depth):
    kind, a, b = source
    board = _after_setup(PUZZLES[a], b) if kind == "puzzle" else playout(a, b)
    pos = o_parse(board.fen)
    scored = score_moves(board, depth)
    assert sorted(uci for uci, _kind, _value in scored) == o_legal_moves(pos)
    for uci, kind, value in scored:
        after = o_apply_uci(pos, uci)
        replies = o_legal_moves(after)
        forced = (
            o_in_check(after)
            and bool(replies)
            and all(_o_allows_mate_in_one(o_apply_uci(after, r)) for r in replies)
        )
        assert ((kind, value) == ("mate", 2)) == forced, (board.fen, uci)


STUCK_FENS = [
    "6k1/5ppp/8/8/8/8/8/R5K1 b - - 0 1",  # not stuck: back rank still open
    "R5k1/5ppp/8/8/8/8/8/6K1 b - - 0 1",  # back-rank mate
    "7k/6Q1/5K2/8/8/8/8/8 b - - 0 1",  # mate by a protected queen
    "7k/8/5KQ1/8/8/8/8/8 b - - 0 1",  # stalemate
    "4k3/8/8/8/8/8/2r5/r3K3 w - - 0 1",  # mate along a rank
    "k7/8/1Q6/8/8/8/8/7K b - - 0 1",  # stalemate in the corner
    "4k3/4r3/8/8/b7/8/8/4K3 w - - 0 1",  # single check, king steps aside
    "4k3/8/8/8/1b6/3n4/8/4K3 w - - 0 1",  # double check, only king steps
]


def test_lazy_generator_matches_the_full_list():
    boards = _playout_positions() + [parse_fen(fen) for fen in STUCK_FENS]
    assert any(not legal_moves(b) for b in boards) and any(legal_moves(b) for b in boards)
    for board in boards:
        assert list(_iter_legal_moves(board)) == _raw_legal_moves(board)
        assert _stuck(board) == (not legal_moves(board)), board.fen


def test_material_gain_matches_a_full_recount():
    for board in _playout_positions() + [parse_fen("4k3/1P6/8/3pP3/8/8/8/4K3 w - d6 0 1")]:
        pov = board.turn
        balance = material_balance(board, pov)
        for raw in _raw_legal_moves(board):
            after = _raw_apply(board, *raw)
            assert balance + _material_gain(board, *raw) == material_balance(after, pov), (board.fen, raw)


CHECK_FENS = [
    "3k4/8/8/8/8/8/8/R3K3 w Q - 0 1",  # O-O-O: the rook checks from d1
    "5k2/8/8/8/8/8/8/4K2R w K - 0 1",  # O-O: the rook checks from f1
    "8/5k2/8/3pP3/8/1B6/8/K7 w - d6 0 1",  # en passant clears d5 for the bishop
    "8/1P1k4/8/8/8/8/8/K7 w - - 0 1",  # only promotion to a knight checks
    "4k3/8/8/8/4N3/8/8/4R1K1 w - - 0 1",  # every knight step uncovers the rook
    "5r2/4P3/3k4/8/8/8/8/4K3 w - - 0 1",  # e7f8q checks through e7, the square the pawn leaves
    "8/8/8/R2pP2k/8/8/8/K7 w - d6 0 1",  # en passant clears d5 and e5 for the rook
    "r3k3/8/8/8/8/8/8/3K4 b q - 0 1",  # O-O-O: the rook checks from d8
    "4k3/8/8/8/4K3/8/8/4R3 w - - 0 1",  # a king step off the e-file uncovers the rook
]

def test_may_give_check_never_misses_a_check():
    """The check filter admits every move that checks, and little else."""
    boards = _playout_positions() + [_after_setup(p, n) for p in PUZZLES for n in (1, 3)]
    boards += [parse_fen(fen) for fen in CHECK_FENS]
    checks = admitted = 0
    for board in boards:
        moves = _raw_legal_moves(board)
        candidates = list(_check_candidates(board, moves))
        assert candidates == [raw for raw in moves if raw in candidates]  # order kept
        admitted += len(candidates)
        for raw in moves:
            if is_check(_raw_apply(board, *raw)):
                checks += 1
                assert raw in candidates, (board.fen, raw)
    assert checks > 1000
    assert admitted < 1.1 * checks, (admitted, checks)


def test_uci_order_sorts_every_triple_as_its_uci_text():
    triples = [(frm, to, promo) for frm in range(64) for to in range(64) for promo in (None, "q", "r", "b", "n")]
    random.Random(0).shuffle(triples)
    by_key = sorted(triples, key=_uci_order)
    assert by_key == sorted(triples, key=lambda raw: MoveToken._make(raw).uci)
    assert len({_uci_order(raw) for raw in triples}) == len(triples)


# The side to move is behind in material and its best answer stalemates.
STALEMATE_FENS = [
    "7K/5k1P/8/8/8/8/8/8 b - - 0 1",  # Kf8 stalemates
    "8/8/8/8/8/8/p1K5/k7 w - - 0 1",  # Kc1 stalemates
    "k7/2K5/3B4/2r5/8/8/8/8 w - - 0 1",  # taking the rook stalemates: cp 0 still beats the rest
    "7k/5K1p/7P/8/8/2r5/1P1P4/8 w - - 0 1",  # either pawn takes the rook and stalemates: b2c3 first
]
# Several moves score cp 0, by even material or by stalemate; the first in UCI order wins.
TIE_FENS = [
    "8/8/1R1p4/3q4/4K3/8/7R/k7 w - - 0 1",  # taking the queen stalemates, and comes first
    "K7/P2k4/2p5/8/8/8/8/8 b - - 0 1",  # c6c5 comes before the stalemating king steps
    "8/8/8/Q1q5/8/7K/8/7k w - - 0 1",  # even material, no stalemate
]


def _stalemating(board) -> set:
    afters = {mv.uci: apply_move(board, mv) for mv in legal_moves(board)}
    return {uci for uci, after in afters.items() if not is_check(after) and not legal_moves(after)}


def test_hand_built_positions_hold_what_they_claim():
    for fen in STALEMATE_FENS:
        board = parse_fen(fen)
        best = sorted(score_moves(board, 2), key=_order_key)[0]
        assert material_balance(board, board.turn) < 0 and best[0] in _stalemating(board), fen
    for fen in TIE_FENS:
        board = parse_fen(fen)
        scored = score_moves(board, 2)
        assert sum((kind, value) == ("cp", 0) for _uci, kind, value in scored) >= 2, fen
    assert all(_stalemating(parse_fen(fen)) for fen in TIE_FENS[:2])


def _answers(script: str) -> list:
    """Toyfish's answers to a command script, run in-process: the lines of
    each `go` answer, one list per answer."""
    out = io.StringIO()
    run(io.StringIO(script), out)
    answers, lines = [], []
    for line in out.getvalue().splitlines():
        lines.append(line)
        if line.startswith("bestmove"):
            answers.append(lines)
            lines = []
    return answers


def _head(listing: list) -> list:
    """The first info line and the bestmove of a full MultiPV listing."""
    return listing if len(listing) == 1 else [listing[0], listing[-1]]


def _best_only_jobs():
    boards = _playout_positions() + [_after_setup(p, n) for p in PUZZLES for n in (1, 3)]
    boards += [parse_fen(fen) for fen in STALEMATE_FENS + TIE_FENS]
    return [(board.fen, depth) for board in boards for depth in (1, 2, 3, 4)]


def test_best_only_answer_is_the_head_of_the_full_listing():
    jobs = _best_only_jobs()
    script = "".join(
        f"setoption name MultiPV value 1\nposition fen {fen}\ngo depth {depth}\n"
        f"setoption name MultiPV value 256\nposition fen {fen}\ngo depth {depth}\n"
        for fen, depth in jobs
    )
    answers = _answers(script)
    assert len(answers) == 2 * len(jobs) > 3000
    for (fen, depth), best, listing in zip(jobs, answers[::2], answers[1::2]):
        assert best == _head(listing), (fen, depth)


def test_best_only_answer_is_the_head_of_the_full_listing_through_a_handle():
    jobs = _best_only_jobs()[::9] + [(fen, 4) for fen in STALEMATE_FENS + TIE_FENS]
    handle = start_engine(TOY_ENGINE_CMD)
    try:
        for fen, depth in jobs:
            answers = []
            for multipv in (1, 256):
                handle.set_option("MultiPV", multipv)
                handle.send(f"position fen {fen}")
                handle.send(f"go depth {depth}")
                answers.append(handle.expect("bestmove", 10.0))
            assert answers[0] == _head(answers[1]), (fen, depth)
    finally:
        handle.quit()


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("script", ["uci\n", "go depth 2\n", "setoption name MultiPV value 3\ngo depth 2\n"])
def test_each_answer_leaves_in_one_write(script):
    out = CountingWriter()
    run(io.StringIO(script), out)
    assert out.writes == 1 and out.getvalue().count("\n") > 1


def test_position_moves_reach_the_position_of_the_fen():
    for seed in range(20):
        for plies in (1, 2, 9, 60, 150):
            board, moves = playout_with_moves(seed, plies)
            assert _set_position("startpos moves " + " ".join(mv.uci for mv in moves)) == parse_fen(board.fen)
    board, moves = playout_with_moves(7, 40)
    middle, _ = playout_with_moves(7, 30)
    tail = " ".join(mv.uci for mv in moves[30:])
    assert _set_position(f"fen {middle.fen} moves {tail}") == parse_fen(board.fen)


@pytest.mark.parametrize("move", ["e4e5", "e2e9"])
def test_an_illegal_move_in_the_position_stream_names_the_move(move):
    handle = start_engine(TOY_ENGINE_CMD)
    try:
        handle.send(f"position startpos moves e2e4 e7e5 {move}")
        handle.send("go depth 1")
        with pytest.raises(EngineError, match="closed its output") as info:
            handle.expect("bestmove", 10.0)
        assert move in str(info.value).split("stderr:", 1)[1]
    finally:
        handle.quit()
