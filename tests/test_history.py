"""The SAN history the game loop keeps for PGN prompts, and the legal list move
extraction shares with the game loop, checked against replays of the moves
alone."""

import random
import re
from collections import Counter

import pytest

import chessarena.arena as arena
import chessarena.players as players
from chessarena.arena import GameConfig, LlmPlayer, RandomPlayer, play_game
from chessarena.core import BoardState, MoveToken, apply_move, legal_moves, parse_fen
from chessarena.players import (
    PLAY_MODES,
    ChatResponse,
    PlayerSpec,
    build_prompt,
    extract_move,
    san_history,
)

_FEN_RE = re.compile(r"The current FEN: (.*)")


class RecordingRandomPlayer(RandomPlayer):
    def __init__(self, spec):
        super().__init__(spec)
        self.views = []

    def choose(self, view):
        self.views.append(view)
        return super().choose(view)


class RandomLegalTransport:
    """Answers every prompt with a seeded draw over the legal moves of the
    prompt's FEN, and records the messages of each call."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.calls = []

    def complete(self, messages):
        self.calls.append([m.as_dict() for m in messages])
        fen = _FEN_RE.search(messages[1].content).group(1)
        moves = legal_moves(parse_fen(fen))
        return ChatResponse(text=f"```{moves[self.rng.randrange(len(moves))].uci}```")


def _features(moves, sans) -> set:
    found = set()
    board = BoardState.start()
    for uci, san in zip(moves, sans):
        move = MoveToken.from_uci(uci)
        if board.piece_at(move.from_index).kind == "p" and board.ep == move.to_index:
            found.add("en passant")
        if san.startswith("O-O"):
            found.add("castling")
        if "=" in san:
            found.add("promotion")
        if san.endswith("+"):
            found.add("check")
        if san.endswith("#"):
            found.add("mate")
        board = apply_move(board, move)
    return found


def test_game_loop_sans_equal_a_replay_at_every_ply():
    found = set()
    for seed in (5, 25):  # castling in one game; en passant, promotion and mate in the other
        white = RecordingRandomPlayer(PlayerSpec(id="w", kind="random", history_format="pgn"))
        black = RecordingRandomPlayer(PlayerSpec(id="b", kind="random"))
        record = play_game(white, black, GameConfig(ply_cap=400), seed=seed)
        replayed = san_history([MoveToken.from_uci(uci) for uci in record.moves])
        views = white.views + black.views
        assert len(views) == len(record.moves)
        for view in views:
            ply = len(view.moves_played)
            assert view.sans == tuple(replayed[:ply])
            assert [mv.uci for mv in view.moves_played] == record.moves[:ply]
        for view in views[::50]:
            assert list(view.sans) == san_history(view.moves_played)
        found |= _features(record.moves, replayed)
    assert found == {"castling", "en passant", "promotion", "check", "mate"}


def test_pgn_prompts_from_the_game_equal_prompts_rebuilt_from_the_moves():
    white_spec = PlayerSpec(id="w", play_mode="standard", history_format="pgn", history_window=400)
    black_spec = PlayerSpec(id="b", play_mode="blitz", history_format="pgn", provide_legal_moves=False)
    white_transport, black_transport = RandomLegalTransport(5), RandomLegalTransport(6)
    record = play_game(
        LlmPlayer(white_spec, white_transport), LlmPlayer(black_spec, black_transport),
        GameConfig(ply_cap=240), seed=2,
    )
    assert len(record.plies) == 240  # prompts at ply 200 and later are compared too
    assert all(len(p.attempts) == 1 for p in record.plies)
    calls = {"w": iter(white_transport.calls), "b": iter(black_transport.calls)}
    board = BoardState.start()
    moves = [MoveToken.from_uci(uci) for uci in record.moves]
    for ply, uci in enumerate(record.moves):
        spec = white_spec if ply % 2 == 0 else black_spec
        legal = legal_moves(board) if spec.provide_legal_moves else None
        rebuilt = build_prompt(spec, board, moves[:ply], legal, board.side_to_move)
        assert next(calls[spec.id]) == [m.as_dict() for m in rebuilt], ply
        board = apply_move(board, MoveToken.from_uci(uci))


@pytest.mark.parametrize("history_format", ["pgn", "uci_list"])
def test_game_makes_at_most_one_san_per_ply_and_prompts_replay_nothing(monkeypatch, history_format):
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(arena, "move_to_san")
    for name in ("move_to_san", "apply_move", "parse_move"):
        count(players, name)
    spec = PlayerSpec(id="llm", play_mode="standard", history_format=history_format)
    record = play_game(
        LlmPlayer(spec, RandomLegalTransport(4)), RandomPlayer(PlayerSpec(id="r", kind="random")),
        GameConfig(ply_cap=60), seed=4,
    )
    assert len(record.plies) == 60
    if history_format == "pgn":
        assert 0 < counts["move_to_san"] <= len(record.plies)
    else:
        assert counts["move_to_san"] == 0
    # No replay while prompts are built.
    assert counts["apply_move"] == 0
    assert counts["parse_move"] == 30  # one per model reply


def test_san_extraction_uses_the_legal_list_it_is_handed(monkeypatch):
    import chessarena.core.moves as moves

    cases = [
        (BoardState.start(), ["Nf3", "e4", "d4", "Qh5", "O-O", "Nf3xz"]),
        (parse_fen("rnbqkbnr/ppp1pppp/8/3p4/4P3/8/PPPP1PPP/RNBQKBNR w KQkq - 0 2"), ["exd5"]),
        (parse_fen("8/4P1k1/8/8/8/8/6K1/8 w - - 0 1"), ["e8=Q", "e8=Q+", "e8"]),
        (parse_fen("r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1"), ["O-O", "O-O-O", "0-0"]),
        (parse_fen("1k6/8/8/8/8/8/1K6/R6R w - - 0 1"), ["Rad1", "Rhd1", "Rd1", "R1d1"]),
    ]
    jobs = [(board, f"```{san}```", mode) for board, sans in cases for san in sans for mode in PLAY_MODES[:3]]
    expected = [extract_move(raw, mode, parse_fen(board.fen)) for board, raw, mode in jobs]
    assert {a.outcome for a in expected} == {"ok", "illegal_move", "parsing_error"}
    for board, _sans in cases:
        legal_moves(board)  # as the game loop's status check does before the player moves
    calls = []
    original = moves._raw_legal_moves
    monkeypatch.setattr(moves, "_raw_legal_moves", lambda state: calls.append(state) or original(state))
    got = [extract_move(raw, mode, board) for board, raw, mode in jobs]
    assert got == expected
    assert not calls
