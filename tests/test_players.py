import json
import random

import pytest

from chessarena.core import BoardState, MoveToken, apply_move, legal_moves, parse_fen
from chessarena.players import (
    BLINDFOLD,
    BLITZ,
    BULLET,
    ChatMessage,
    FORBIDDEN_THINKING,
    HISTORY_FORMATS,
    ILLEGAL_MOVE,
    MoveAttempt,
    OK,
    PARSING_ERROR,
    PLAY_MODES,
    PlayerSpec,
    STANDARD,
    build_blindfold_conversation,
    build_prompt,
    correction_message,
    extract_move,
    random_player_move,
    render_history,
    replay_blindfold,
    request_move,
    system_prompt,
)

from conftest import (
    GOLDEN_DIR,
    FlakyTransport,
    ScriptedTransport,
    playout_with_moves,
)


def fixture_conversation(mode: str, legal_flag: bool, fmt: str):
    board, moves = fixture_board()
    spec = PlayerSpec(id="fixture", play_mode=mode, provide_legal_moves=legal_flag, history_format=fmt)
    legal = legal_moves(board) if legal_flag else None
    if mode == BLINDFOLD:
        return build_blindfold_conversation(spec, moves, legal, board.side_to_move)
    return build_prompt(spec, board, moves, legal, board.side_to_move)


def fixture_board():
    board = BoardState.start()
    moves = []
    for uci in "e2e4 e7e5 g1f3 b8c6 f1b5 a7a6 b5a4 g8f6 e1g1 f6e4 d2d4 b7b5".split():
        mv = MoveToken.from_uci(uci)
        moves.append(mv)
        board = apply_move(board, mv)
    return board, moves


@pytest.mark.parametrize("mode", PLAY_MODES)
@pytest.mark.parametrize("legal_flag", [True, False])
@pytest.mark.parametrize("fmt", HISTORY_FORMATS)
def test_prompts_match_golden_fixtures(mode, legal_flag, fmt):
    name = f"{mode}_{'legal' if legal_flag else 'nolegal'}_{fmt}.json"
    expected = (GOLDEN_DIR / "prompts" / name).read_text()
    messages = fixture_conversation(mode, legal_flag, fmt)
    rendered = json.dumps([m.as_dict() for m in messages], indent=2, ensure_ascii=False) + "\n"
    assert rendered == expected


def test_corrections_match_golden_fixture():
    expected = json.loads((GOLDEN_DIR / "corrections.json").read_text())
    for key, text in expected.items():
        outcome, mode = key.split(":")
        assert correction_message(outcome, mode) == text


def test_system_prompt_mode_differences():
    blitz = system_prompt(BLITZ, "w")
    standard = system_prompt(STANDARD, "w")
    bullet = system_prompt(BULLET, "w")
    blind = system_prompt(BLINDFOLD, "w")
    assert blitz == standard
    assert "directly without using any other words" in bullet
    assert "I will not accept your answer if there are any other words" in bullet
    assert "You can think and reason" not in bullet
    assert "reconstruct the game" in blind
    assert system_prompt(BLITZ, "b").splitlines()[0].endswith("You are playing as Black.")


def test_user_message_layout():
    board, moves = fixture_board()
    spec = PlayerSpec(id="p", play_mode=BLITZ, provide_legal_moves=True)
    messages = build_prompt(spec, board, moves, legal_moves(board), "w")
    lines = messages[1].content.splitlines()
    assert lines[0] == f"The current FEN: {board.fen}"
    assert lines[1].startswith("Legal moves in UCI notation: ") and lines[1].endswith(".")
    assert lines[2].startswith("Move history in UCI notation: ")
    assert lines[-1] == "What is the best move?"
    ucis = lines[1][len("Legal moves in UCI notation: ") : -1].split(" ")
    assert ucis == sorted(ucis)
    assert len(lines[2][len("Move history in UCI notation: ") : -1].split(" ")) == 10


def test_build_prompt_legal_flag_must_match():
    board, moves = fixture_board()
    spec = PlayerSpec(id="p", provide_legal_moves=True)
    with pytest.raises(ValueError, match="required"):
        build_prompt(spec, board, moves, None, "w")
    spec = PlayerSpec(id="p", provide_legal_moves=False)
    with pytest.raises(ValueError, match="provide_legal_moves is off"):
        build_prompt(spec, board, moves, legal_moves(board), "w")
    with pytest.raises(ValueError, match="blindfold"):
        build_prompt(PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=False), board, moves, None, "w")


def test_render_history_formats():
    _board, moves = fixture_board()
    uci = render_history(moves, "uci_list", 10)
    assert uci == (
        "Move history in UCI notation: g1f3 b8c6 f1b5 a7a6 b5a4 g8f6 e1g1 f6e4 d2d4 b7b5."
    )
    pgn = render_history(moves, "pgn", 10)
    assert pgn == (
        "Move history in PGN notation: 2. Nf3 Nc6 3. Bb5 a6 4. Ba4 Nf6 5. O-O Nxe4 6. d4 b5."
    )
    assert render_history(moves, "none", 10) is None
    assert render_history([], "uci_list", 10) is None
    assert render_history(moves[:2], "pgn", 10) == "Move history in PGN notation: 1. e4 e5."
    assert render_history(moves[:3], "pgn", 2) == "Move history in PGN notation: 1... e5 2. Nf3."


def test_blindfold_white_first_move_is_bare_announcement():
    spec = PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=False)
    messages = build_blindfold_conversation(spec, [], None, "w")
    assert [m.role for m in messages] == ["system", "user"]
    assert messages[1].content == "This is the beginning of the game."


def test_blindfold_structure_after_two_plies():
    spec = PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=False)
    moves = [MoveToken.from_uci("e2e4"), MoveToken.from_uci("e7e5")]
    messages = build_blindfold_conversation(spec, moves, None, "w")
    assert [m.role for m in messages] == ["system", "user", "assistant", "user"]
    assert messages[2].content == "```\ne2e4\n```"
    assert messages[3].content.startswith("Your opponent's last move is e7e5.")
    assert messages[3].content.endswith("What is the best move?")


def test_blindfold_black_perspective():
    spec = PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=False)
    moves = [MoveToken.from_uci("e2e4")]
    messages = build_blindfold_conversation(spec, moves, None, "b")
    assert [m.role for m in messages] == ["system", "user"]
    assert "This is the beginning" not in messages[1].content
    assert messages[1].content.startswith("Your opponent's last move is e2e4.")


def test_blindfold_turn_parity_enforced():
    spec = PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=False)
    with pytest.raises(ValueError, match="turn"):
        build_blindfold_conversation(spec, [MoveToken.from_uci("e2e4")], None, "w")
    with pytest.raises(ValueError, match="turn"):
        build_blindfold_conversation(spec, [], None, "b")


@pytest.mark.parametrize("color", ["w", "b"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_blindfold_replay_reproduces_live_board(color, seed):
    board, moves = playout_with_moves(seed, 24 if color == "w" else 25)
    spec = PlayerSpec(id="p", play_mode=BLINDFOLD, provide_legal_moves=True)
    messages = build_blindfold_conversation(spec, moves, legal_moves(board), color)
    replayed = BoardState.start()
    for uci in replay_blindfold(messages):
        replayed = apply_move(replayed, MoveToken.from_uci(uci))
    assert replayed.fen == board.fen


def test_bullet_corpus_classification():
    corpus = json.loads((GOLDEN_DIR / "bullet_corpus.json").read_text())
    assert len(corpus) == 30
    board = BoardState.start()
    for case in corpus:
        attempt = extract_move(case["response"], BULLET, board)
        assert attempt.outcome == case["expected"], case["response"]
        if "move" in case:
            assert attempt.move.uci == case["move"]


def test_bullet_reasoning_field_is_policed():
    board = BoardState.start()
    attempt = extract_move("e2e4", BULLET, board, reasoning="let me think about the center")
    assert attempt.outcome == FORBIDDEN_THINKING
    attempt = extract_move("e2e4", BLITZ, board, reasoning="long hidden analysis")
    assert attempt.outcome == OK


def test_extraction_order_answer_then_fence_then_token():
    board = BoardState.start()
    both = "Plan: ```d2d4``` then <answer>```\ne2e4\n```</answer>"
    assert extract_move(both, BLITZ, board).move.uci == "e2e4"
    fence_only = "I pick ```d2d4``` for the center. Also e7e5 someday."
    assert extract_move(fence_only, BLITZ, board).move.uci == "d2d4"
    token_only = "thinking g1f3 then e2e4"
    assert extract_move(token_only, BLITZ, board).move.uci == "e2e4"
    assert extract_move("no move here at all", BLITZ, board).outcome == PARSING_ERROR


def test_extraction_never_raises_on_noise():
    board = BoardState.start()
    for raw in ["", "```", "``````", "<answer></answer>", "<answer>```x", "\x00\x01", "🤔", "```\n```"]:
        attempt = extract_move(raw, BLITZ, board)
        assert attempt.outcome in (PARSING_ERROR, ILLEGAL_MOVE)


from hypothesis import given, settings, strategies as st


@settings(max_examples=300, deadline=None)
@given(raw=st.text(max_size=300), mode=st.sampled_from(PLAY_MODES[:3]))
def test_extraction_totality_property(raw, mode):
    attempt = extract_move(raw, mode, BoardState.start())
    assert attempt.outcome in (OK, PARSING_ERROR, ILLEGAL_MOVE, FORBIDDEN_THINKING)
    if mode != "bullet":
        assert attempt.outcome != FORBIDDEN_THINKING
    if attempt.outcome == OK:
        assert attempt.move is not None


def test_move_attempt_validation():
    with pytest.raises(ValueError):
        MoveAttempt("x", "weird_outcome")
    with pytest.raises(ValueError):
        MoveAttempt("x", OK)  # ok needs a move
    with pytest.raises(ValueError):
        MoveAttempt("x", PARSING_ERROR, attempt_index=6)


def make_spec(mode=BLITZ, legal=True):
    return PlayerSpec(id="llm", kind="llm_api", play_mode=mode, provide_legal_moves=legal)


def start_messages(spec):
    board = BoardState.start()
    legal = legal_moves(board) if spec.provide_legal_moves else None
    return build_prompt(spec, board, [], legal, "w"), board


def test_request_move_first_try():
    spec = make_spec()
    messages, board = start_messages(spec)
    transport = ScriptedTransport(["<answer>```\ne2e4\n```</answer>"])
    move, attempts, transcript = request_move(spec, messages, board, transport)
    assert move.uci == "e2e4"
    assert len(attempts) == 1 and attempts[0].outcome == OK
    assert [m.role for m in transcript] == ["system", "user", "assistant"]


def test_request_move_retries_then_succeeds():
    spec = make_spec()
    messages, board = start_messages(spec)
    transport = ScriptedTransport(["gibberish", "<answer>```\ne2e5\n```</answer>", "```g1f3```"])
    move, attempts, transcript = request_move(spec, messages, board, transport)
    assert move.uci == "g1f3"
    assert [a.outcome for a in attempts] == [PARSING_ERROR, ILLEGAL_MOVE, OK]
    assert [a.attempt_index for a in attempts] == [1, 2, 3]
    corrections = [m for m in transcript if m.role == "user"][1:]
    assert corrections[0].content == correction_message(PARSING_ERROR, BLITZ)
    assert corrections[1].content == correction_message(ILLEGAL_MOVE, BLITZ)
    # Later attempts see the growing conversation.
    assert len(transport.calls[1]) == 4
    assert len(transport.calls[2]) == 6


def test_request_move_forfeits_after_five_failures():
    spec = make_spec()
    messages, board = start_messages(spec)
    transport = ScriptedTransport(["junk"] * 5)
    move, attempts, _transcript = request_move(spec, messages, board, transport)
    assert move is None
    assert len(attempts) == 5
    assert all(a.outcome == PARSING_ERROR for a in attempts)
    assert [a.attempt_index for a in attempts] == [1, 2, 3, 4, 5]


def test_request_move_transport_retry_is_transparent():
    spec = make_spec()
    messages, board = start_messages(spec)
    transport = FlakyTransport(1, ScriptedTransport(["e2e4"]))
    sleeps = []
    move, attempts, _ = request_move(spec, messages, board, transport, sleep=sleeps.append)
    assert move.uci == "e2e4"
    assert len(attempts) == 1
    assert sleeps == [1.0]


def test_request_move_double_transport_failure_costs_an_attempt():
    spec = make_spec()
    messages, board = start_messages(spec)
    transport = FlakyTransport(2, ScriptedTransport(["e2e4"]))
    move, attempts, transcript = request_move(spec, messages, board, transport, sleep=lambda _s: None)
    assert move.uci == "e2e4"
    assert [a.outcome for a in attempts] == [PARSING_ERROR, OK]
    assert "transport failure" in attempts[0].error
    failed_turns = transcript[len(messages):len(messages) + 2]
    assert failed_turns == [
        ChatMessage("assistant", ""),
        ChatMessage("user", correction_message(PARSING_ERROR, spec.play_mode)),
    ]


def test_bullet_forbidden_then_clean():
    spec = make_spec(mode=BULLET)
    messages, board = start_messages(spec)
    transport = ScriptedTransport(["I think e2e4", "e2e4"])
    move, attempts, transcript = request_move(spec, messages, board, transport)
    assert move.uci == "e2e4"
    assert attempts[0].outcome == FORBIDDEN_THINKING
    correction = [m for m in transcript if m.role == "user"][1].content
    assert correction == correction_message(FORBIDDEN_THINKING, BULLET)
    assert "Only output your move content" in correction


def test_random_player_determinism():
    board = BoardState.start()
    a = [random_player_move(board, random.Random(5)).uci for _ in range(10)]
    b = [random_player_move(board, random.Random(5)).uci for _ in range(10)]
    assert a == b


def test_random_player_chi_squared():
    board = BoardState.start()
    rng = random.Random(424242)
    counts = {m.uci: 0 for m in legal_moves(board)}
    n = 10_000
    for _ in range(n):
        counts[random_player_move(board, rng).uci] += 1
    expected = n / 20
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 36.19  # df=19 critical value at alpha=0.01


def test_random_player_always_legal_on_corpus():
    rng = random.Random(9)
    for seed in range(100):
        board = playout_with_moves(seed, seed % 60)[0]
        moves = {m.uci for m in legal_moves(board)}
        if not moves:
            continue
        assert random_player_move(board, rng).uci in moves


def test_random_player_single_move():
    board = parse_fen("k7/8/8/8/8/8/5PP1/r5K1 w - - 0 1")
    assert random_player_move(board, random.Random(0)).uci == "g1h2"


def test_http_transport_against_local_stub(monkeypatch):
    import http.server
    import threading

    from chessarena.players import HttpChatTransport, TransportError

    seen = {}

    class Stub(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen["body"] = body
            seen["auth"] = self.headers.get("Authorization")
            payload = {
                "choices": [
                    {"message": {"content": "```e2e4```", "reasoning_content": "center first"}}
                ],
                "usage": {"prompt_tokens": 42, "completion_tokens": 5},
            }
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("TESTPROVIDER_API_KEY", "sekrit")
        spec = PlayerSpec(
            id="llm",
            kind="llm_api",
            endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
            model="test-model",
            provider="testprovider",
            temperature=0.2,
        )
        transport = HttpChatTransport(spec)
        response = transport.complete([ChatMessage("system", "s"), ChatMessage("user", "u")])
        assert response.text == "```e2e4```"
        assert response.reasoning == "center first"
        assert response.usage == {"prompt_tokens": 42, "completion_tokens": 5}
        assert seen["auth"] == "Bearer sekrit"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.2
        assert seen["body"]["top_p"] == 1.0
        assert seen["body"]["max_tokens"] == 4096
        assert seen["body"]["messages"] == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]
    finally:
        server.shutdown()

    dead_spec = PlayerSpec(id="llm", kind="llm_api", endpoint="http://127.0.0.1:1/nope")
    with pytest.raises(TransportError):
        HttpChatTransport(dead_spec, timeout=2).complete([ChatMessage("user", "u")])


@pytest.mark.parametrize(
    "payload",
    [
        {"choices": [{"message": "hi"}]},
        {"choices": [{"message": None}]},
        {"choices": [{"message": {"content": ["e2e4"]}}]},
        {"choices": [{"message": {"content": "e2e4", "reasoning_content": {"steps": 3}}}]},
        {"choices": [{"message": {"content": "e2e4", "reasoning": ["think"]}}]},
        {"choices": []},
        {"choices": {"0": {}}},
        [],
    ],
)
def test_http_transport_malformed_payload_is_transport_error(monkeypatch, payload):
    import io
    import urllib.request

    from chessarena.players import HttpChatTransport, TransportError

    monkeypatch.setattr(
        urllib.request, "urlopen", lambda request, timeout: io.BytesIO(json.dumps(payload).encode())
    )
    spec = PlayerSpec(id="llm", kind="llm_api", endpoint="http://127.0.0.1:9/v1/chat/completions")
    with pytest.raises(TransportError, match="malformed completion payload"):
        HttpChatTransport(spec).complete([ChatMessage("user", "u")])


def test_cli_import_leaves_the_http_stack_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import chessarena.cli, sys; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_http_transport_requires_endpoint():
    from chessarena.players import HttpChatTransport

    with pytest.raises(ValueError, match="endpoint"):
        HttpChatTransport(PlayerSpec(id="x", kind="llm_api"))


def test_player_spec_validation_and_defaults():
    with pytest.raises(ValueError):
        PlayerSpec(id="x", kind="cyborg")
    with pytest.raises(ValueError):
        PlayerSpec(id="x", play_mode="rapid")
    with pytest.raises(ValueError):
        PlayerSpec(id="x", history_format="fen_list")
    with pytest.raises(ValueError):
        PlayerSpec(id="x", temperature=-0.1)
    spec = PlayerSpec(id="x")
    assert spec.temperature == 0.2 and spec.top_p == 1.0
    assert spec.max_tokens == 4096
    assert PlayerSpec(id="x", thinking=True).max_tokens == 16384
    assert PlayerSpec(id="x", max_new_tokens=512).max_tokens == 512
    assert PlayerSpec(id="x", provider="openai").key_env == "OPENAI_API_KEY"
    assert PlayerSpec(id="x", api_key_env="MY_KEY").key_env == "MY_KEY"
