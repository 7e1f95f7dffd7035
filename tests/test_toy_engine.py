"""Toyfish's search output is pinned: a golden digest over playout and puzzle
positions, the mate-in-two label against the brute-force oracle, and the
shortcuts the search takes against the full computations they replace."""

import hashlib
import json
import random

from hypothesis import given, settings, strategies as st

from chessarena.core import BoardState, MoveToken, apply_move, legal_moves, parse_fen
from chessarena.core.moves import _iter_legal_moves, _raw_apply, _raw_legal_moves
from chessarena.evals import load_lichess_puzzles
from chessarena.core import is_check
from chessarena.core.board import KING
from chessarena.toy_engine import (
    _material_gain,
    _may_give_check,
    _order_key,
    _stuck,
    material_balance,
    score_moves,
)

from conftest import PUZZLES_CSV, playout
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
]

def test_may_give_check_never_misses_a_check():
    boards = _playout_positions() + [_after_setup(p, n) for p in PUZZLES for n in (1, 3)]
    boards += [parse_fen(fen) for fen in CHECK_FENS]
    checks = 0
    for board in boards:
        king_sq = board.board.index(-KING * board.turn)
        for raw in _raw_legal_moves(board):
            if is_check(_raw_apply(board, *raw)):
                checks += 1
                assert _may_give_check(board, king_sq, *raw), (board.fen, raw)
    assert checks > 1000
