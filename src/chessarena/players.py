"""Player abstraction: play-mode prompt construction, response extraction,
the retry/forfeit protocol, plus engine and random baselines.

The four play modes share one system-prompt skeleton; bullet swaps the
closing clause for the no-thinking rule and blindfold adds the
reconstruct-from-history notice. Prompt rendering is deterministic and
golden-fixture pinned, so change the templates only together with the
fixtures.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
from dataclasses import dataclass, field as dc_field, replace

from .core import (
    BoardState,
    MoveParseError,
    MoveToken,
    UnmatchedSanError,
    WHITE,
    apply_move,
    legal_moves,
    move_to_san,
    parse_move,
)

BULLET = "bullet"
BLITZ = "blitz"
STANDARD = "standard"
BLINDFOLD = "blindfold"
PLAY_MODES = (BULLET, BLITZ, STANDARD, BLINDFOLD)

LLM_API = "llm_api"
UCI_ENGINE = "uci_engine"
RANDOM = "random"
PLAYER_KINDS = (LLM_API, UCI_ENGINE, RANDOM)

HISTORY_UCI = "uci_list"
HISTORY_PGN = "pgn"
HISTORY_NONE = "none"
HISTORY_FORMATS = (HISTORY_UCI, HISTORY_PGN, HISTORY_NONE)

OK = "ok"
PARSING_ERROR = "parsing_error"
ILLEGAL_MOVE = "illegal_move"
FORBIDDEN_THINKING = "forbidden_thinking"
ATTEMPT_OUTCOMES = (OK, PARSING_ERROR, ILLEGAL_MOVE, FORBIDDEN_THINKING)

MAX_ATTEMPTS = 5
DEFAULT_HISTORY_WINDOW = 10
MAX_TOKENS_PLAIN = 4096
MAX_TOKENS_THINKING = 16384


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str

    def as_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


@dataclass(frozen=True)
class PlayerSpec:
    """Static description of one arena participant."""

    id: str
    kind: str = LLM_API
    play_mode: str = BLITZ
    provide_legal_moves: bool = True
    endpoint: str = ""
    model: str = ""
    provider: str = ""
    api_key_env: str = ""
    temperature: float = 0.2
    top_p: float = 1.0
    thinking: bool = False
    max_new_tokens: int | None = None
    history_format: str = HISTORY_UCI
    history_window: int = DEFAULT_HISTORY_WINDOW
    engine_command: str = ""
    engine_options: dict = dc_field(default_factory=dict)
    engine_limits: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PLAYER_KINDS:
            raise ValueError(f"unknown player kind {self.kind!r}")
        if self.play_mode not in PLAY_MODES:
            raise ValueError(f"unknown play mode {self.play_mode!r}")
        if self.history_format not in HISTORY_FORMATS:
            raise ValueError(f"unknown history format {self.history_format!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def max_tokens(self) -> int:
        if self.max_new_tokens is not None:
            return self.max_new_tokens
        return MAX_TOKENS_THINKING if self.thinking else MAX_TOKENS_PLAIN

    @property
    def key_env(self) -> str:
        if self.api_key_env:
            return self.api_key_env
        return f"{self.provider.upper()}_API_KEY" if self.provider else ""


# ---------------------------------------------------------------------------
# Prompt templates


ANSWER_FORMAT = (
    "When you have decided on your final move, output it in UCI notation "
    "(e.g., 'e2e4', 'g8f6' , 'e7e8q') in the following format:\n"
    "<answer>\n"
    "```\n"
    "<move>\n"
    "```\n"
    "</answer>\n"
    "For example:\n"
    "```\n"
    "e2e4\n"
    "```"
)

_SYSTEM_BODY = (
    "You must thoroughly analyze the position and play with utmost caution."
    "When you have the advantage, press it relentlessly and aim for a swift checkmate."
    "Carefully evaluate every move to eliminate any chance of a counterplay or draw by your opponent.\n"
    "When at a disadvantage, strive to turn the tide and win if possible."
    "If victory is unattainable, exhaust all possible means to force a draw.\n"
    "Meticulously analyze legal moves, then select the absolute best one. "
    "You need to determine whether you are playing as Black or White."
    "Then, you need to observe the positions of your pieces and choose one of your own pieces to move; "
    "make sure that your move follows the rules of chess.\n"
    "Considering the long-term strategy and short-term tactic."
    "Analyze the position carefully."
    "You may think through the position and consider multiple candidate moves.\n"
    + ANSWER_FORMAT
    + "\n\n"
    "Reminder of chess rules: \n"
    "  - Bishops move diagonally.\n"
    "  - Rooks move horizontally or vertically.\n"
    "  - Knights jump in an L-shape.\n"
    "  - Queens combine rook and bishop movement.\n"
    "  - Kings move one square in any direction.\n"
    "  - Pawns move forward, capture diagonally, and can promote.\n"
)

_THINK_CLAUSE = (
    "You can think and reason as much as you want(step by step), "
    "but your final move must be formatted exactly as shown above."
)

_BULLET_CLAUSE = (
    "You must give me your answer directly without using any other words."
    "I will not accept your answer if there are any other words."
    "Only output your move content."
    "Your final move must be formatted exactly as shown above."
)

_BLINDFOLD_NOTICE = (
    "We have the move history of you and your opponent."
    "You must reconstruct the game and analyze the best move on the chessboard.\n"
)


def system_prompt(mode: str, color: str) -> str:
    color_word = "White" if color == WHITE else "Black"
    head = (
        "You are an expert chess player."
        "You are playing a game of chess."
        f"You are playing as {color_word}.\n"
    )
    if mode == BLINDFOLD:
        head += _BLINDFOLD_NOTICE
    tail = _BULLET_CLAUSE if mode == BULLET else _THINK_CLAUSE
    return head + _SYSTEM_BODY + "\n" + tail


def fenced(text: str) -> str:
    return f"```\n{text}\n```"


def san_history(moves) -> list:
    """SAN of every move of a game played from the initial position.

    Replays the game once; each position's legal moves are generated once and
    shared by the SAN rendering and the move check.
    """
    board = BoardState.start()
    sans = []
    for mv in moves:
        sans.append(move_to_san(board, mv))
        board = apply_move(board, mv)
    return sans


def render_history(moves, fmt: str, window: int, sans=None) -> str | None:
    """Render the most recent `window` plies, or None when there is nothing.

    PGN rendering numbers the moves from the initial position and reads
    `sans`, the SAN of every move in `moves` (`san_history(moves)` when not
    given).
    """
    if fmt == HISTORY_NONE or not moves:
        return None
    if fmt == HISTORY_UCI:
        recent = [mv.uci for mv in moves[-window:]]
        return "Move history in UCI notation: " + " ".join(recent) + "."
    if fmt != HISTORY_PGN:
        raise ValueError(f"unknown history format {fmt!r}")
    if sans is None:
        sans = san_history(moves)
    elif len(sans) != len(moves):
        raise ValueError(f"{len(sans)} SAN moves given for {len(moves)} plies")
    start = len(sans) - min(window, len(sans))
    parts = []
    for idx in range(start, len(sans)):
        number = idx // 2 + 1
        if idx % 2 == 0:
            parts.append(f"{number}. {sans[idx]}")
        elif idx == start:
            parts.append(f"{number}... {sans[idx]}")
        else:
            parts.append(sans[idx])
    return "Move history in PGN notation: " + " ".join(parts) + "."


def _legal_lines(spec: PlayerSpec, legal) -> list:
    """The legal-move line of a prompt, as a list of at most one line.
    `legal` must be given exactly when spec.provide_legal_moves is set."""
    if spec.provide_legal_moves and legal is None:
        raise ValueError(f"{spec.id}: legal moves required but not supplied")
    if not spec.provide_legal_moves and legal is not None:
        raise ValueError(f"{spec.id}: legal moves supplied but provide_legal_moves is off")
    if legal is None:
        return []
    return ["Legal moves in UCI notation: " + " ".join(mv.uci for mv in legal) + "."]


def build_prompt(spec: PlayerSpec, board: BoardState, history, legal, color: str, sans=None) -> list:
    """Single-turn prompt for bullet/blitz/standard play.

    `legal` must be provided exactly when spec.provide_legal_moves is set;
    `history` is the full game move list, rendered per the player's
    history format and window. `sans`, when given, is the SAN of every move
    in `history`, so PGN history needs no replay.
    """
    if spec.play_mode == BLINDFOLD:
        raise ValueError("blindfold prompts are conversations; use build_blindfold_conversation")
    lines = [f"The current FEN: {board.fen}", *_legal_lines(spec, legal)]
    rendered = render_history(history or [], spec.history_format, spec.history_window, sans)
    if rendered:
        lines.append(rendered)
    lines.append("What is the best move?")
    return [
        ChatMessage("system", system_prompt(spec.play_mode, color)),
        ChatMessage("user", "\n".join(lines)),
    ]


def build_blindfold_conversation(spec: PlayerSpec, moves, legal, color: str) -> list:
    """Multi-turn blindfold transcript for the player of `color` to move.

    Own past moves appear as fenced assistant turns; opponent moves as user
    turns. The final user turn carries the optional legal moves and the
    question, except for white's very first move, which is only the opening
    announcement.
    """
    own_first = color == WHITE
    if len(moves) % 2 != (0 if own_first else 1):
        raise ValueError(f"it is not {color}'s turn after {len(moves)} plies")
    messages = [ChatMessage("system", system_prompt(BLINDFOLD, color))]
    if own_first:
        messages.append(ChatMessage("user", "This is the beginning of the game."))
    tail = [*_legal_lines(spec, legal), "What is the best move?"]
    for idx, mv in enumerate(moves):
        own_turn = (idx % 2 == 0) == own_first
        if own_turn:
            messages.append(ChatMessage("assistant", fenced(mv.uci)))
        else:
            line = f"Your opponent's last move is {mv.uci}."
            if idx == len(moves) - 1:
                line = "\n".join([line] + tail)
            messages.append(ChatMessage("user", line))
    return messages


def replay_blindfold(messages) -> list:
    """Recover the game's UCI moves from a blindfold transcript."""
    own, opponent = [], []
    opp_re = re.compile(r"Your opponent's last move is ([a-h][1-8][a-h][1-8][nbrq]?)\.")
    for msg in messages:
        if msg.role == "assistant":
            own.append(msg.content.strip().strip("`").strip())
        elif msg.role == "user":
            m = opp_re.search(msg.content)
            if m:
                opponent.append(m.group(1))
    first_user = next((m for m in messages if m.role == "user"), None)
    white_is_self = first_user is not None and first_user.content.startswith(
        "This is the beginning of the game."
    )
    a, b = (own, opponent) if white_is_self else (opponent, own)
    moves = []
    for i in range(len(a) + len(b)):
        source = a if i % 2 == 0 else b
        moves.append(source[i // 2])
    return moves


# ---------------------------------------------------------------------------
# Response extraction


@dataclass(frozen=True)
class MoveAttempt:
    raw_response: str
    outcome: str
    move: MoveToken | None = None
    attempt_index: int = 1
    token_usage: dict | None = None
    reasoning: str | None = None  # provider reasoning field, kept verbatim
    error: str | None = None

    def __post_init__(self):
        if self.outcome not in ATTEMPT_OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == OK and self.move is None:
            raise ValueError("ok attempts must carry the move")
        if not 1 <= self.attempt_index <= MAX_ATTEMPTS:
            raise ValueError(f"attempt_index out of range: {self.attempt_index}")


# A language tag only counts when it ends the opening line, so inline blocks
# like ```e2e4``` keep their first letter.
_FENCE_RE = re.compile(r"```(?:[a-zA-Z]*\n)?(.*?)```", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL | re.IGNORECASE)
_UCI_TOKEN_RE = re.compile(r"\b([a-h][1-8][a-h][1-8][nbrqNBRQ]?)\b")


def extract_candidate(raw: str) -> tuple[str | None, str]:
    """Candidate move text and which extraction path produced it.

    Order: fenced block inside the last <answer> element, then the last
    fenced block anywhere, then the last UCI-shaped token.
    """
    answers = _ANSWER_RE.findall(raw)
    if answers:
        blocks = _FENCE_RE.findall(answers[-1])
        if blocks:
            return blocks[-1].strip(), "answer_block"
    blocks = _FENCE_RE.findall(raw)
    if blocks:
        return blocks[-1].strip(), "fence"
    tokens = _UCI_TOKEN_RE.findall(raw)
    if tokens:
        return tokens[-1], "uci_token"
    return None, "none"


def _strip_bullet_scaffolding(raw: str) -> str:
    """Peel the prescribed answer scaffolding (an <answer> element and/or one
    fenced block wrapping the whole reply); anything else is left in place."""
    text = raw.strip()
    m = _ANSWER_RE.fullmatch(text)
    if m:
        text = m.group(1).strip()
    m = _FENCE_RE.fullmatch(text)
    if m:
        text = m.group(1).strip()
    return text


def extract_move(
    raw: str,
    mode: str,
    board: BoardState,
    *,
    reasoning: str | None = None,
    attempt_index: int = 1,
) -> MoveAttempt:
    """Classify a raw response into exactly one attempt outcome.

    Never raises: unparseable text, well-formed-but-illegal moves and bullet
    thinking violations are all encoded outcomes.
    """
    if mode == BULLET:
        if reasoning and reasoning.strip():
            return MoveAttempt(raw, FORBIDDEN_THINKING, attempt_index=attempt_index,
                               error="reasoning field present in bullet mode")
        stripped = _strip_bullet_scaffolding(raw)
        tokens = stripped.split()
        if len(tokens) > 1:
            return MoveAttempt(raw, FORBIDDEN_THINKING, attempt_index=attempt_index,
                               error=f"{len(tokens)} tokens in bullet reply")
        candidate = tokens[0] if tokens else None
    else:
        candidate, _path = extract_candidate(raw)
    if candidate is None:
        return MoveAttempt(raw, PARSING_ERROR, attempt_index=attempt_index,
                           error="no move found in response")
    try:
        move = parse_move(candidate, board)
    except UnmatchedSanError as exc:
        return MoveAttempt(raw, ILLEGAL_MOVE, attempt_index=attempt_index, error=str(exc))
    except MoveParseError as exc:
        return MoveAttempt(raw, PARSING_ERROR, attempt_index=attempt_index, error=str(exc))
    if move not in legal_moves(board):
        return MoveAttempt(raw, ILLEGAL_MOVE, attempt_index=attempt_index,
                           error=f"{move.uci} is not legal here")
    return MoveAttempt(raw, OK, move=move, attempt_index=attempt_index)


_FAILURE_SENTENCES = {
    PARSING_ERROR: "Your previous reply could not be parsed into a move.",
    ILLEGAL_MOVE: "Your previous move is illegal in the current position.",
    FORBIDDEN_THINKING: (
        "Your previous reply contained words other than the move itself, "
        "which is not allowed in this mode."
    ),
}


def correction_message(outcome: str, mode: str) -> str:
    """Fixed corrective instruction for a failed attempt (fixture-pinned)."""
    text = _FAILURE_SENTENCES[outcome] + "\n" + ANSWER_FORMAT
    if mode == BULLET:
        text += "\nOnly output your move content, without any other words."
    return text


# ---------------------------------------------------------------------------
# Transports and the retry protocol


@dataclass(frozen=True)
class ChatResponse:
    text: str
    reasoning: str | None = None
    usage: dict | None = None


class TransportError(Exception):
    """Network/provider failure while requesting a completion."""


class HttpChatTransport:
    """Minimal JSON chat-completions client over urllib.

    Request body: {model, messages, temperature, top_p, max_tokens}. The
    reply text is the first choice's message content; a reasoning field is
    reported separately when the provider returns one.
    """

    def __init__(self, spec: PlayerSpec, timeout: float = 120.0):
        if not spec.endpoint:
            raise ValueError(f"{spec.id}: llm_api player needs an endpoint")
        self.spec = spec
        self.timeout = timeout

    def complete(self, messages) -> ChatResponse:
        spec = self.spec
        body = {
            "model": spec.model,
            "messages": [m.as_dict() for m in messages],
            "temperature": spec.temperature,
            "top_p": spec.top_p,
            "max_tokens": spec.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        key_env = spec.key_env
        if key_env and os.environ.get(key_env):
            headers["Authorization"] = f"Bearer {os.environ[key_env]}"
        import urllib.request  # on first use: the HTTP stack is costly to import

        request = urllib.request.Request(
            spec.endpoint, data=json.dumps(body).encode(), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode())
        except (OSError, json.JSONDecodeError) as exc:  # URLError is an OSError
            raise TransportError(str(exc)) from exc
        try:
            message = payload["choices"][0]["message"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if not isinstance(message, dict):
            raise TransportError(f"malformed completion payload: message is {type(message).__name__}")
        text = message.get("content")
        reasoning = message.get("reasoning_content") or message.get("reasoning")
        if not all(value is None or isinstance(value, str) for value in (text, reasoning)):
            raise TransportError("malformed completion payload: content and reasoning must be strings")
        return ChatResponse(text=text or "", reasoning=reasoning, usage=payload.get("usage"))


def request_move(
    spec: PlayerSpec,
    messages: list,
    board: BoardState,
    transport,
    *,
    max_attempts: int = MAX_ATTEMPTS,
    backoff: float = 1.0,
    sleep=time.sleep,
) -> tuple[MoveToken | None, list, list]:
    """Run the retry protocol for an LLM player.

    Returns (move or None on forfeit, attempts, final transcript). Each
    failed attempt appends the raw reply and a corrective user message; a
    transport error is retried once automatically, then scored as a failed
    attempt.
    """
    transcript = list(messages)
    attempts = []
    for index in range(1, max_attempts + 1):
        try:
            try:
                response = transport.complete(transcript)
            except TransportError:
                sleep(backoff)
                response = transport.complete(transcript)
        except TransportError as exc:
            text = ""
            attempt = MoveAttempt(text, PARSING_ERROR, attempt_index=index,
                                  error=f"transport failure: {exc}")
        else:
            text = response.text
            attempt = extract_move(text, spec.play_mode, board, reasoning=response.reasoning,
                                   attempt_index=index)
            if response.usage is not None or response.reasoning is not None:
                attempt = replace(attempt, token_usage=response.usage, reasoning=response.reasoning)
        attempts.append(attempt)
        transcript.append(ChatMessage("assistant", text))
        if attempt.outcome == OK:
            return attempt.move, attempts, transcript
        transcript.append(ChatMessage("user", correction_message(attempt.outcome, spec.play_mode)))
    return None, attempts, transcript


def random_player_move(board: BoardState, rng: random.Random) -> MoveToken:
    """Uniform draw over the (lexicographically ordered) legal moves."""
    moves = legal_moves(board)
    if not moves:
        raise ValueError("no legal moves to draw from")
    return moves[rng.randrange(len(moves))]
