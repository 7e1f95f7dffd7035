import random

import pytest
from hypothesis import given, settings, strategies as st

from chessarena.core import (
    BoardState,
    CHECKMATE,
    FIVEFOLD_REPETITION,
    INSUFFICIENT_MATERIAL,
    IllegalMoveError,
    MOVE_LIMIT,
    MoveToken,
    PositionHistory,
    SEVENTY_FIVE_MOVE_RULE,
    STALEMATE,
    Termination,
    apply_move,
    game_status,
    legal_moves,
    parse_fen,
    repetition_key,
)
from chessarena.toy_engine import score_moves

from conftest import playout
from oracle_chess import o_apply_uci, o_in_check, o_legal_moves, o_parse


def fresh_history(board):
    return PositionHistory.start(board)


def test_ongoing_start():
    board = BoardState.start()
    assert game_status(board, fresh_history(board)) is None


def test_checkmate_detected_with_winner():
    board = parse_fen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3")
    status = game_status(board, fresh_history(board))
    assert status.reason == CHECKMATE
    assert status.winner == "b"
    assert status.score_for_white == 0.0


def test_stalemate_is_draw():
    board = parse_fen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1")
    status = game_status(board, fresh_history(board))
    assert status.reason == STALEMATE
    assert status.is_draw and status.score_for_white == 0.5


@pytest.mark.parametrize(
    "fen, dead",
    [
        ("8/8/4k3/8/8/2K5/8/8 w - - 0 1", True),  # K vs K
        ("8/8/4k3/8/8/2KB4/8/8 w - - 0 1", True),  # K+B vs K
        ("8/8/4k3/8/8/2KN4/8/8 w - - 0 1", True),  # K+N vs K
        ("8/8/3bk3/8/8/2KB4/8/8 w - - 0 1", False),  # bishops on opposite colors
        ("8/8/2b1k3/8/8/2KB4/8/8 w - - 0 1", True),  # same-color bishops
        ("8/8/4k3/8/8/2KQ4/8/8 w - - 0 1", False),  # queen mates
        ("8/8/4k3/8/8/2KNN3/8/8 w - - 0 1", False),  # two knights not in the list
        ("8/8/4k3/8/4P3/2K5/8/8 w - - 0 1", False),  # pawn can promote
    ],
)
def test_insufficient_material_fixed_list(fen, dead):
    board = parse_fen(fen)
    status = game_status(board, fresh_history(board))
    if dead:
        assert status is not None and status.reason == INSUFFICIENT_MATERIAL
    else:
        assert status is None or status.reason != INSUFFICIENT_MATERIAL


def test_fivefold_repetition():
    board = BoardState.start()
    history = PositionHistory.start(board)
    # Knight shuffles: the start position recurs after every 4 plies.
    cycle = ["g1f3", "g8f6", "f3g1", "f6g8"]
    status = None
    for lap in range(4):
        for uci in cycle:
            board = apply_move(board, MoveToken.from_uci(uci))
            history = history.push(board)
            status = game_status(board, history)
            if status is not None:
                break
        if status is not None:
            break
    assert status is not None
    assert status.reason == FIVEFOLD_REPETITION
    assert history.max_repetition() == 5


def test_seventy_five_move_rule():
    board = parse_fen("4k3/8/8/8/8/8/4K3/4R3 w - - 150 80")
    status = game_status(board, fresh_history(board))
    assert status.reason == SEVENTY_FIVE_MOVE_RULE


def test_move_limit_draw_at_200_full_moves():
    board = parse_fen("4k3/8/8/8/8/8/4K3/4R3 w - - 10 201")
    status = game_status(board, fresh_history(board))
    assert status.reason == MOVE_LIMIT
    board = parse_fen("4k3/8/8/8/8/8/4K3/4R3 w - - 10 200")
    assert game_status(board, fresh_history(board)) is None


def test_move_limit_respects_custom_cap():
    board = parse_fen("4k3/8/8/8/8/8/4K3/4R3 w - - 0 41")
    assert game_status(board, fresh_history(board), ply_cap=80).reason == MOVE_LIMIT
    assert game_status(board, fresh_history(board), ply_cap=400) is None


def test_checkmate_wins_over_clock_draws():
    # Mate on the board with the 75-move counter already expired.
    board = parse_fen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 150 99")
    assert game_status(board, fresh_history(board)).reason == CHECKMATE


def test_repetition_key_distinguishes_castling_rights():
    with_rights = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1")
    without = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w - - 0 1")
    from chessarena.core import repetition_key

    assert repetition_key(with_rights) != repetition_key(without)


def test_repetition_key_counts_ep_only_when_capturable():
    from chessarena.core import repetition_key

    # Black pawn on d4 can capture e3 en passant: the right matters.
    capturable = parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 2")
    plain = parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 2")
    assert repetition_key(capturable) != repetition_key(plain)
    # No black pawn can reach e3: the stale ep field does not split the key.
    stale = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1")
    plain2 = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq - 0 1")
    assert repetition_key(stale) == repetition_key(plain2)


def test_termination_invariants():
    with pytest.raises(ValueError):
        Termination(CHECKMATE)  # needs a winner
    with pytest.raises(ValueError):
        Termination(STALEMATE, winner="w")
    with pytest.raises(ValueError):
        Termination("sudden_death")
    assert Termination("forfeit", "w").score_for_white == 1.0


# ---------------------------------------------------------------------------
# Each position keeps one legal-move list: differential checks over positions
# from seeded random play, against a fresh parse and the oracle.


def positions_with_history(seed: int, plies: int):
    """Every position of a seeded random playout, with its history."""
    rng = random.Random(seed)
    board = BoardState.start()
    history = PositionHistory.start(board)
    out = [(board, history)]
    for _ in range(plies):
        moves = legal_moves(board)
        if not moves:
            break
        board = apply_move(board, moves[rng.randrange(len(moves))])
        history = history.push(board)
        out.append((board, history))
    return out


def oracle_has_ep_capture(board) -> bool:
    pos = o_parse(board.fen)
    if pos["ep"] is None:
        return False
    ep = "abcdefgh"[pos["ep"][0]] + str(pos["ep"][1])
    return any(
        uci[2:4] == ep and uci[0] != uci[2] and pos["pieces"][("abcdefgh".index(uci[0]), int(uci[1]))].lower() == "p"
        for uci in o_legal_moves(pos)
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 120))
def test_shared_legal_list_changes_nothing(seed, plies):
    for board, history in positions_with_history(seed, plies):
        legal = legal_moves(board)
        assert legal_moves(board) is legal
        fresh = parse_fen(board.fen)
        assert legal_moves(fresh) == legal
        assert game_status(board, history, 80) == game_status(parse_fen(board.fen), history, 80)
        key = repetition_key(board)
        assert key == repetition_key(parse_fen(board.fen))
        assert (key[3] is not None) == oracle_has_ep_capture(board)
        for move in legal:
            assert apply_move(board, move) == apply_move(fresh, move)
        own = [sq for sq, code in enumerate(board.board) if code * board.turn > 0]
        illegal = next(
            MoveToken(frm, to) for frm in own for to in range(64) if to != frm and (frm, to, None) not in legal
        )
        with pytest.raises(IllegalMoveError):
            apply_move(board, illegal)


def check_score_moves_against_oracle(board) -> None:
    pos = o_parse(board.fen)
    scored = score_moves(board, 2)
    assert sorted(uci for uci, _kind, _value in scored) == o_legal_moves(pos)
    for uci, kind, value in scored:
        after = o_apply_uci(pos, uci)
        if not o_legal_moves(after):
            assert (kind, value) == (("mate", 1) if o_in_check(after) else ("cp", 0))
        else:
            assert (kind, value) != ("mate", 1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 120))
def test_toy_engine_mate_and_stalemate_match_oracle(seed, plies):
    check_score_moves_against_oracle(playout(seed, plies))


@pytest.mark.parametrize(
    "fen",
    [
        "6k1/5ppp/8/8/8/8/8/R5K1 w - - 0 1",  # back-rank mate in one
        "7k/8/5K2/8/8/8/8/6Q1 w - - 0 1",  # Qg7 mates, Qg6 stalemates
    ],
)
def test_toy_engine_mate_and_stalemate_fixed_positions(fen):
    check_score_moves_against_oracle(parse_fen(fen))
