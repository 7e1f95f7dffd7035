import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from chessarena.core import (
    BoardState,
    FenError,
    Piece,
    START_FEN,
    Square,
    apply_move,
    legal_moves,
    parse_fen,
    serialize_fen,
)

from conftest import playout
from oracle_chess import o_apply_uci, o_fen, o_legal_moves, o_parse

START = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"
MIDGAME = "rnbqkbnr/pp2pppp/3p4/8/3pP3/5N2/PPP2PPP/RNBQKB1R w KQkq - 0 4"


def test_start_position_round_trip():
    assert serialize_fen(parse_fen(START)) == START
    assert BoardState.start().fen == START_FEN


def test_midgame_round_trip_byte_identical():
    assert serialize_fen(parse_fen(MIDGAME)) == MIDGAME


def test_parsed_fields():
    board = parse_fen(MIDGAME)
    assert board.side_to_move == "w"
    assert board.castling_rights == "KQkq"
    assert board.en_passant is None
    assert board.halfmove_clock == 0
    assert board.fullmove_number == 4
    assert board.piece_at("f3") == Piece("n", "w")
    assert board.piece_at("d6") == Piece("p", "b")
    assert board.piece_at("e5") is None


def test_placement_grid():
    grid = BoardState.start().placement
    assert grid[0][4] == Piece("k", "w")  # e1
    assert grid[7][4] == Piece("k", "b")  # e8
    assert grid[3][3] is None  # d4


@pytest.mark.parametrize(
    "fen, fragment",
    [
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0", "6 space-delimited"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP w KQkq - 0 1", "8 ranks"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPXP/RNBQKBNR w KQkq - 0 1", "piece symbol"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPP/RNBQKBNR w KQkq - 0 1", "squares"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR x KQkq - 0 1", "active-color"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQxq - 0 1", "castling"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e9 0 1", "en-passant"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - -1 1", "halfmove"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 0", "fullmove"),
        ("8/8/8/8/8/8/8/8 w - - 0 1", "king"),
        ("rnbq1bnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1", "king"),
        ("Pnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1 w KQkq - 0 1", "rank 1 or rank 8"),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e3 0 1", "rank 6"),
    ],
)
def test_malformed_fens_rejected(fen, fragment):
    with pytest.raises(FenError, match=fragment):
        parse_fen(fen)


def test_ep_square_parses_when_side_consistent():
    board = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1")
    assert board.en_passant == Square.from_name("e3")


def test_square_text_form():
    assert Square.from_name("e4") == Square(4, 3)
    assert Square(4, 3).name == "e4"
    assert Square.from_index(0).name == "a1"
    assert Square.from_index(63).name == "h8"
    with pytest.raises(ValueError):
        Square.from_name("i9")
    with pytest.raises(ValueError):
        Square(8, 0)


def test_piece_symbol_bijection():
    for symbol in "PNBRQKpnbrqk":
        assert Piece.from_symbol(symbol).symbol == symbol
    with pytest.raises(ValueError):
        Piece.from_symbol("x")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 90))
def test_round_trip_on_reachable_positions(seed, plies):
    board = playout(seed, plies)
    assert parse_fen(serialize_fen(board)) == board


BARE = "4k3/8/8/8/8/8/8/4K3"  # kings alone; each case below breaks one field


@pytest.mark.parametrize(
    "fen, message",
    [
        (f"{BARE} w - - 0", "expected 6 space-delimited fields, got 5"),
        ("4k3/8/8/8/8/8/4K3 w - - 0 1", "expected 8 ranks, got 7"),
        ("4k3/8/8/8/8/8/8/4K2X w - - 0 1", "invalid piece symbol 'X'"),
        ("4k3/8/8/8/8/8/8/4K0 w - - 0 1", "bad skip count '0' in rank 1"),
        ("4k3/9/8/8/8/8/8/4K3 w - - 0 1", "bad skip count '9' in rank 7"),
        ("4k3/8/8/8/8/8/8/4K3N w - - 0 1", "rank 1 has more than 8 squares"),
        ("4k3/8/8/8/8/8/8/4K3X w - - 0 1", "rank 1 has more than 8 squares"),
        ("4k3/8/8/8/8/8/8/4K2 w - - 0 1", "rank 1 has 7 squares, expected 8"),
        ("4k3/8/8/8/8/8/8/4K4 w - - 0 1", "rank 1 has 9 squares, expected 8"),
        (f"{BARE} x - - 0 1", "invalid active-color field 'x'"),
        (f"{BARE} w Kx - 0 1", "invalid castling token 'x'"),
        (f"{BARE} w KK - 0 1", "duplicate castling token 'K'"),
        (f"{BARE} w - e9 0 1", "invalid en-passant field 'e9'"),
        (f"{BARE} w - - a 1", "clock fields must be integers"),
        (f"{BARE} w - - -1 1", "negative halfmove clock -1"),
        (f"{BARE} w - - 0 0", "fullmove number must be positive, got 0"),
        ("4k3/8/8/8/8/8/8/4KK2 w - - 0 1", "position must contain exactly one king per color"),
        ("4k3/8/8/8/8/8/8/4K2P w - - 0 1", "pawns may not stand on rank 1 or rank 8"),
        (f"{BARE} w - e3 0 1", "en-passant square must be on rank 6 with white to move"),
        (f"{BARE} b - e6 0 1", "en-passant square must be on rank 3 with black to move"),
        ("4k3/8/8/8/3pN3/8/8/4K3 b - e3 0 1",
         "en-passant square e3 is not behind a pawn that just moved two squares"),
        ("4k3/8/8/3Pp3/8/8/8/4K3 w - d6 0 1",
         "en-passant square d6 is not behind a pawn that just moved two squares"),
        ("4k3/8/3n4/3pP3/8/8/8/4K3 w - d6 0 1",
         "en-passant square d6 is not behind a pawn that just moved two squares"),
        ("4k3/3b4/8/3pP3/8/8/8/4K3 w - d6 0 1",
         "en-passant square d6 is not behind a pawn that just moved two squares"),
        ("4k3/8/8/8/8/8/4r3/4K3 b - - 0 1", "the side not to move is in check"),
        ("4k3/8/3N4/8/8/8/8/4K3 w - - 0 1", "the side not to move is in check"),
    ],
)
def test_fen_error_messages_are_pinned(fen, message):
    with pytest.raises(FenError) as info:
        parse_fen(fen)
    assert str(info.value) == message


def test_fen_round_trips_over_playouts_and_its_memo_changes_no_value():
    for seed in range(8):
        for plies in (0, 1, 9, 40, 120):
            board = playout(seed, plies)
            fen = board.fen
            assert board.fen is fen  # built once
            assert parse_fen(fen) == board and parse_fen(fen).fen == fen
            bare = dataclasses.replace(board)  # an equal state with nothing kept
            digest = hash(bare)
            assert bare == board and digest == hash(board)
            assert repr(bare) == repr(board) == f"BoardState({fen!r})"
            assert bare.fen == serialize_fen(board) == fen
            assert hash(bare) == digest and bare == board


@pytest.mark.parametrize(
    "fen, kept",
    [
        (f"{BARE} w KQkq - 0 1", "-"),
        ("r3k2r/8/8/8/8/8/8/R4K1R w KQkq - 0 1", "kq"),
        ("r3k3/8/8/8/8/8/8/R3K2R b KQkq - 0 1", "KQq"),
        (START, "KQkq"),
    ],
)
def test_castling_rights_whose_king_or_rook_left_home_are_dropped(fen, kept):
    assert parse_fen(fen).castling_rights == kept


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), plies=st.integers(0, 90), rights=st.sets(st.sampled_from("KQkq")))
def test_any_castling_field_gives_the_oracles_fen_after_every_legal_move(seed, plies, rights):
    fields = playout(seed, plies).fen.split()
    fields[2] = "".join(c for c in "KQkq" if c in rights) or "-"
    state = parse_fen(" ".join(fields))
    position = o_parse(state.fen)
    ours = {m.uci: apply_move(state, m).fen for m in legal_moves(state)}
    assert ours == {uci: o_fen(o_apply_uci(position, uci)) for uci in o_legal_moves(position)}
