import pytest
from hypothesis import given, settings, strategies as st

from chessarena.core import (
    AmbiguousSanError,
    BoardState,
    MoveParseError,
    MoveToken,
    UnmatchedSanError,
    apply_move,
    legal_moves,
    move_to_san,
    parse_fen,
    parse_move,
)

from conftest import playout
from oracle_chess import o_parse, o_san


def test_parse_uci_basic():
    board = BoardState.start()
    mv = parse_move("g8f6", board)
    assert mv.uci == "g8f6"
    assert mv == MoveToken.from_uci("g8f6") == (62, 45, None)  # a token is its raw triple
    assert parse_move("e2e4", board).uci == "e2e4"
    assert parse_move("e7e8q", board).promotion == "q"


def test_parse_uci_is_tolerant_of_noise():
    board = BoardState.start()
    assert parse_move("E2E4", board).uci == "e2e4"
    assert parse_move("`e2e4`", board).uci == "e2e4"
    assert parse_move(" e2e4. ", board).uci == "e2e4"
    assert parse_move("'g1f3'", board).uci == "g1f3"


def test_parse_uci_does_not_require_legality():
    mv = parse_move("a1h8", BoardState.start())
    assert mv.uci == "a1h8"


def test_parse_san_fallback():
    board = BoardState.start()
    mv = parse_move("Nf3", board)
    assert mv.uci == "g1f3"
    tokens = [
        mv,
        parse_move("g1f3", board),
        MoveToken.from_uci("g1f3"),
        next(m for m in legal_moves(board) if m.uci == "g1f3"),
    ]
    assert all(t == mv for t in tokens)
    assert len(set(tokens)) == 1
    assert parse_move("e4", board).uci == "e2e4"
    assert parse_move("d4", board).uci == "d2d4"


def test_parse_san_capture_and_promotion():
    board = parse_fen("rnbqkbnr/ppp1pppp/8/3p4/4P3/8/PPPP1PPP/RNBQKBNR w KQkq - 0 2")
    assert parse_move("exd5", board).uci == "e4d5"
    board = parse_fen("8/4P1k1/8/8/8/8/6K1/8 w - - 0 1")
    assert parse_move("e8=Q", board).uci == "e7e8q"
    assert parse_move("e8=Q+", board).uci == "e7e8q"


def test_parse_san_castling():
    board = parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1")
    assert parse_move("O-O", board).uci == "e1g1"
    assert parse_move("O-O-O", board).uci == "e1c1"
    assert parse_move("0-0", board).uci == "e1g1"


def test_parse_san_disambiguation():
    board = parse_fen("1k6/8/8/8/8/8/1K6/R6R w - - 0 1")
    assert parse_move("Rad1", board).uci == "a1d1"
    assert parse_move("Rhd1", board).uci == "h1d1"
    with pytest.raises(AmbiguousSanError):
        parse_move("Rd1", board)


def test_parse_errors():
    board = BoardState.start()
    with pytest.raises(MoveParseError):
        parse_move("Nf3xz", board)
    with pytest.raises(MoveParseError):
        parse_move("", board)
    with pytest.raises(UnmatchedSanError):
        parse_move("Qh5", board)  # well-formed SAN, nothing matches
    with pytest.raises(UnmatchedSanError):
        parse_move("O-O", board)


def test_move_to_san_examples():
    board = BoardState.start()
    assert move_to_san(board, MoveToken.from_uci("g1f3")) == "Nf3"
    assert move_to_san(board, MoveToken.from_uci("e2e4")) == "e4"
    board = parse_fen("8/4P1k1/8/8/8/8/6K1/8 w - - 0 1")
    assert move_to_san(board, MoveToken.from_uci("e7e8q")) == "e8=Q"
    # Back-rank mate carries the '#'.
    board = parse_fen("6k1/5ppp/8/8/8/8/5PPP/R5K1 w - - 0 1")
    assert move_to_san(board, MoveToken.from_uci("a1a8")) == "Ra8#"
    # A plain check carries '+'.
    board = parse_fen("4k3/8/8/8/8/8/8/R3K3 w - - 0 1")
    assert move_to_san(board, MoveToken.from_uci("a1a8")) == "Ra8+"


def test_move_to_san_rejects_illegal():
    from chessarena.core import IllegalMoveError

    with pytest.raises(IllegalMoveError):
        move_to_san(BoardState.start(), MoveToken.from_uci("e2e5"))


def test_san_equality_between_notations():
    board = BoardState.start()
    assert parse_move("Nf3", board) == parse_move("g1f3", board)
    assert hash(parse_move("Nf3", board)) == hash(parse_move("g1f3", board))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 70))
def test_san_round_trip_and_oracle_agreement(seed, plies):
    board = playout(seed, plies)
    pos = o_parse(board.fen)
    for mv in legal_moves(board):
        san = move_to_san(board, mv)
        assert san == o_san(pos, mv.uci)
        assert parse_move(san, board) == mv
