import random

import pytest
from hypothesis import given, settings, strategies as st

from chessarena.core import (
    START_FEN,
    BoardState,
    IllegalMoveError,
    MoveToken,
    Square,
    apply_move,
    is_check,
    legal_moves,
    legal_moves_for_square,
    parse_fen,
    perft,
)
from chessarena.core.board import KING

from conftest import playout
from oracle_chess import o_apply_uci, o_fen, o_legal_moves, o_parse, o_perft

# Expected perft values were computed with the brute-force oracle
# (tests/oracle_chess.py) and frozen here; shallow depths are re-checked
# against the live oracle below.
PERFT_START = {1: 20, 2: 400, 3: 8902, 4: 197281}
PERFT_MIDGAME = {
    "rnbqkbnr/pp2pppp/3p4/8/3pP3/5N2/PPP2PPP/RNBQKB1R w KQkq - 0 4": {
        1: 37, 2: 1042, 3: 38236, 4: 1108548,
    },
    "r1bqk1nr/pppp1ppp/2n5/2b1p3/2B1P3/5N2/PPPP1PPP/RNBQK2R w KQkq - 4 4": {
        1: 33, 2: 1150, 3: 37139, 4: 1272509,
    },
    "r2q1rk1/pp1nbppp/2p1pn2/3p2B1/2PP4/2N1PN2/PP3PPP/R2QKB1R w KQ - 3 8": {
        1: 40, 2: 1282, 3: 51156, 4: 1713476,
    },
}
# Castling/en-passant/promotion traps, oracle-derived.
PERFT_TRICKY = {
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1": {
        1: 48, 2: 2039, 3: 97862,
    },
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1": {1: 14, 2: 191, 3: 2812, 4: 43238},
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1": {1: 6, 2: 264, 3: 9467},
    "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8": {1: 44, 2: 1486, 3: 62379},
}

KIWIPETE_FEN = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"

REFERENCE_37_FEN = "rnbqkbnr/pp2pppp/3p4/8/3pP3/5N2/PPP2PPP/RNBQKB1R w KQkq - 0 4"
REFERENCE_37_MOVES = set(
    "f3g5 f3e5 f3h4 f3d4 f3d2 f3g1 h1g1 f1a6 f1b5 f1c4 f1d3 f1e2 e1e2 e1d2 "
    "d1d4 d1d3 d1e2 d1d2 c1h6 c1g5 c1f4 c1e3 c1d2 b1c3 b1a3 b1d2 e4e5 h2h3 "
    "g2g3 c2c3 b2b3 a2a3 h2h4 g2g4 c2c4 b2b4 a2a4".split()
)


def test_start_has_20_moves_sorted():
    moves = legal_moves(BoardState.start())
    assert len(moves) == 20
    ucis = [m.uci for m in moves]
    assert ucis == sorted(ucis)
    for fen in (BoardState.start().fen, KIWIPETE_FEN):
        for m in legal_moves(parse_fen(fen)):
            assert MoveToken.from_uci(m.uci) == m


def test_reference_37_move_set_exact():
    moves = legal_moves(parse_fen(REFERENCE_37_FEN))
    assert {m.uci for m in moves} == REFERENCE_37_MOVES


def test_checkmated_position_has_no_moves():
    # Fool's mate final position, white to move and mated.
    board = parse_fen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3")
    assert legal_moves(board) == []
    assert is_check(board)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_perft_start(depth):
    assert perft(BoardState.start(), depth) == PERFT_START[depth]


@pytest.mark.parametrize("fen", sorted(PERFT_MIDGAME))
def test_perft_midgame_frozen(fen):
    board = parse_fen(fen)
    for depth, want in PERFT_MIDGAME[fen].items():
        assert perft(board, depth) == want


@pytest.mark.parametrize("fen", sorted(PERFT_TRICKY))
def test_perft_tricky_frozen(fen):
    board = parse_fen(fen)
    for depth, want in PERFT_TRICKY[fen].items():
        assert perft(board, depth) == want


@pytest.mark.parametrize("fen", [BoardState.start().fen] + sorted(PERFT_MIDGAME) + sorted(PERFT_TRICKY))
def test_perft_shallow_matches_live_oracle(fen):
    board = parse_fen(fen)
    pos = o_parse(fen)
    for depth in (1, 2):
        assert perft(board, depth) == o_perft(pos, depth)


def test_legal_moves_for_square_start():
    board = BoardState.start()
    piece, moves = legal_moves_for_square(board, "g1")
    assert piece.symbol == "N"
    assert {m.uci for m in moves} == {"g1h3", "g1f3"}
    piece, moves = legal_moves_for_square(board, "e4")
    assert piece is None and moves == []
    piece, moves = legal_moves_for_square(board, "e7")
    assert piece.symbol == "p" and moves == []


def test_apply_move_start_e2e4():
    board = apply_move(BoardState.start(), MoveToken.from_uci("e2e4"))
    assert board.side_to_move == "b"
    assert board.en_passant == Square.from_name("e3")
    assert board.halfmove_clock == 0
    assert board.fullmove_number == 1


def test_apply_move_rejects_illegal():
    board = BoardState.start()
    with pytest.raises(IllegalMoveError, match="no piece"):
        apply_move(board, MoveToken.from_uci("e4e5"))
    with pytest.raises(IllegalMoveError, match="opponent"):
        apply_move(board, MoveToken.from_uci("e7e5"))
    with pytest.raises(IllegalMoveError, match="not legal"):
        apply_move(board, MoveToken.from_uci("e2e5"))


def test_promotion_to_queen():
    board = parse_fen("8/4P1k1/8/8/8/8/6K1/8 w - - 0 1")
    after = apply_move(board, MoveToken.from_uci("e7e8q"))
    assert after.piece_at("e8").symbol == "Q"
    assert {m.uci for m in legal_moves(board) if m.from_index == 52} == {  # from e7
        "e7e8b", "e7e8n", "e7e8q", "e7e8r",
    }


def test_halfmove_clock_resets_on_pawn_move_and_capture():
    board = parse_fen("rnbqkbnr/pppppppp/8/8/8/5N2/PPPPPPPP/RNBQKB1R b KQkq - 5 3")
    after = apply_move(board, MoveToken.from_uci("d7d5"))
    assert after.halfmove_clock == 0
    board = parse_fen("rnbqkbnr/ppp1pppp/8/3p4/4P3/8/PPPP1PPP/RNBQKBNR w KQkq - 0 2")
    after = apply_move(board, MoveToken.from_uci("e4d5"))
    assert after.halfmove_clock == 0


def test_castling_moves_rook_and_clears_rights():
    board = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1")
    after = apply_move(board, MoveToken.from_uci("e1g1"))
    assert after.piece_at("f1").symbol == "R"
    assert after.piece_at("g1").symbol == "K"
    assert after.castling_rights == "kq"
    after = apply_move(board, MoveToken.from_uci("e1c1"))
    assert after.piece_at("d1").symbol == "R"
    assert after.castling_rights == "kq"


def test_en_passant_capture_removes_pawn():
    board = parse_fen("rnbqkbnr/ppp1pppp/8/8/3pP3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 2")
    after = apply_move(board, MoveToken.from_uci("d4e3"))
    assert after.piece_at("e4") is None
    assert after.piece_at("e3").symbol == "p"
    assert after.halfmove_clock == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 80))
def test_legal_set_matches_oracle(seed, plies):
    board = playout(seed, plies)
    assert sorted(m.uci for m in legal_moves(board)) == o_legal_moves(o_parse(board.fen))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 80))
def test_generation_application_consistency(seed, plies):
    board = playout(seed, plies)
    moves = legal_moves(board)
    for mv in moves:
        after = apply_move(board, mv)  # must not raise
        assert after.board.count(KING) == 1 and after.board.count(-KING) == 1
        # The mover's king may not be left attacked.
        from chessarena.core.moves import _attacked

        king_sq = after.board.index(KING * -after.turn)
        assert not _attacked(after.board, king_sq, after.turn)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 80))
def test_square_partition(seed, plies):
    board = playout(seed, plies)
    whole = [m.uci for m in legal_moves(board)]
    parts = []
    for idx in range(64):
        _piece, moves = legal_moves_for_square(board, idx)
        parts.extend(m.uci for m in moves)
    assert sorted(parts) == sorted(whole)
    assert len(parts) == len(set(parts))


def test_perft_zero_and_negative():
    assert perft(BoardState.start(), 0) == 1
    with pytest.raises(ValueError):
        perft(BoardState.start(), -1)


# Oracle-confirmed edge positions: en-passant pins/check evasions and
# castling constraints.
@pytest.mark.parametrize(
    "fen, expected",
    [
        (
            "8/8/8/2k5/3Pp3/8/8/4K3 b - d3 0 1",  # plain ep capture available
            "c5b4 c5b5 c5b6 c5c4 c5c6 c5d4 c5d5 c5d6 e4d3",
        ),
        (
            "8/8/8/8/k2Pp2Q/8/8/4K3 b - d3 0 1",  # ep would expose the king on rank 4
            "a4a3 a4a5 a4b3 a4b4 a4b5 e4e3",
        ),
        (
            "8/8/8/8/2k1Pp2/8/8/2K5 b - e3 0 1",  # ep capture removes the checking pawn
            "c4b3 c4b4 c4b5 c4c3 c4c5 c4d3 c4d4 f4e3 f4f3",
        ),
        (
            "r3k3/pppppppp/8/8/8/8/PPPPPPPP/4K2R w Kq - 0 1",  # stale rights, rook present only on h1
            "a2a3 a2a4 b2b3 b2b4 c2c3 c2c4 d2d3 d2d4 e1d1 e1f1 e1g1 "
            "e2e3 e2e4 f2f3 f2f4 g2g3 g2g4 h1f1 h1g1 h2h3 h2h4",
        ),
        (
            "4k3/8/8/8/8/5r2/8/R3K2R w KQ - 0 1",  # f1 attacked: no O-O, O-O-O fine
            "a1a2 a1a3 a1a4 a1a5 a1a6 a1a7 a1a8 a1b1 a1c1 a1d1 e1c1 e1d1 "
            "e1d2 e1e2 h1f1 h1g1 h1h2 h1h3 h1h4 h1h5 h1h6 h1h7 h1h8",
        ),
    ],
)
def test_en_passant_and_castling_edges(fen, expected):
    assert [m.uci for m in legal_moves(parse_fen(fen))] == expected.split()


def test_no_castling_when_rights_absent_or_rook_moved():
    board = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w - - 0 1")
    assert not any(m.uci in ("e1g1", "e1c1") for m in legal_moves(board))
    board = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1")
    after = apply_move(board, MoveToken.from_uci("h1g1"))  # rook move drops K right
    assert after.castling_rights == "Qkq"
    after = apply_move(board, MoveToken.from_uci("e1d1"))  # king move drops both
    assert after.castling_rights == "kq"


CASTLING_STARTS = (
    START_FEN,
    KIWIPETE_FEN,
    "r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1",
)


@settings(max_examples=30, deadline=None)
@given(start=st.sampled_from(CASTLING_STARTS), seed=st.integers(0, 10_000), plies=st.integers(0, 40))
def test_every_move_applies_like_the_oracle(start, seed, plies):
    """Along a seeded random game, each position's legal set and the FEN after
    each of its legal moves match the oracle's: castling moves, the castled
    rook's squares and the rights left all show in those FENs."""
    rng = random.Random(seed)
    board = parse_fen(start)
    for _ in range(plies + 1):
        pos = o_parse(board.fen)
        moves = legal_moves(board)
        assert [m.uci for m in moves] == o_legal_moves(pos)
        for mv in moves:
            assert apply_move(board, mv).fen == o_fen(o_apply_uci(pos, mv.uci))
        if not moves:
            break
        board = apply_move(board, rng.choice(moves))


@pytest.mark.parametrize(
    "fen",
    [
        "r3k2r/8/8/8/8/8/8/R4K1R w KQ - 0 1",  # rights kept, king on f1
        "r4k1r/8/8/8/8/8/8/R3K2R b kq - 0 1",  # rights kept, king on f8
    ],
)
def test_no_castling_when_the_king_is_off_its_square(fen):
    board = parse_fen(fen)
    assert [m.uci for m in legal_moves(board)] == o_legal_moves(o_parse(fen))
