"""Offline stand-in for an LLM chat-completions endpoint.

The reply is a pure function of (player id, workload seed, request
messages): no state is kept between calls, so the transport is thread-safe
and two runs that send the same requests in another order, or from several
threads, get the same replies and play the same games.

The model reads only the prompt's "Legal moves" line, never the rules
kernel. Without that line it guesses well-formed moves, most of them
illegal. Reply kinds are mixed at fixed seeded rates, so the retry protocol
runs on about one move in seven and a forfeit happens now and then.
`TransportError` is never raised: `request_move` sleeps a real 1 s backoff
after each one, which would swamp the measured run.

The rates below are chosen, not measured: they are set so that every reply
path of the extraction and retry code runs often enough to be timed, while
most moves still succeed at the first attempt. They model no particular
model or provider.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from chessarena.players import BULLET, ChatResponse

LEGAL_PREFIX = "Legal moves in UCI notation: "

# Reply kinds and their weights, per thousand calls.
PLAIN_MIX = (("answer", 560), ("reasoned", 200), ("fence", 100), ("garbage", 60), ("illegal", 80))
BULLET_MIX = (
    ("answer", 500),
    ("fence", 350),
    ("chatter", 50),
    ("reasoning_field", 30),
    ("garbage", 30),
    ("illegal", 40),
)

# A model not shown the legal moves names a common opening move most of the
# time: right for White's first blindfold move, which comes without a legal
# move line, and almost always wrong later on.
OPENING_MOVES = ("e2e4", "d2d4", "g1f3", "c2c4", "b1c3", "f2f4", "e2e3", "g2g3")
OPENING_SHARE = 0.8
SQUARES = tuple(f + r for r in "12345678" for f in "abcdefgh")

GARBAGE = "I would rather not commit to anything in this position."


def _answer(move: str) -> str:
    return f"<answer>\n```\n{move}\n```\n</answer>"


def _legal_moves_line(messages) -> list | None:
    """UCI moves of the last "Legal moves" line in the request, if any."""
    for message in reversed(messages):
        for line in message.content.splitlines():
            if line.startswith(LEGAL_PREFIX):
                return line[len(LEGAL_PREFIX):].rstrip(".").split()
    return None


def _random_uci(rng: random.Random) -> str:
    frm, to = rng.sample(SQUARES, 2)
    return frm + to


class FakeChatTransport:
    """Chat transport with a fixed latency and a seeded, stateless reply."""

    def __init__(self, player_id: str, mode: str, seed: int, latency_s: float, thinking=False):
        self.player_id = player_id
        self.mode = mode
        self.seed = seed
        self.latency_s = latency_s
        self.thinking = thinking

    def complete(self, messages) -> ChatResponse:
        request = json.dumps([[m.role, m.content] for m in messages])
        digest = hashlib.sha256(f"{self.player_id}|{self.seed}|{request}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        legal = _legal_moves_line(messages)
        kind = self._kind(rng)
        if legal:
            move = rng.choice(legal)
        elif rng.random() < OPENING_SHARE:
            move = rng.choice(OPENING_MOVES)
        else:
            move = _random_uci(rng)
        reasoning = None
        if kind == "answer":
            text = _answer(move)
        elif kind == "reasoned":
            text = f"Candidates are {_random_uci(rng)} and {move}; {move} keeps the balance.\n"
            text += _answer(move)
            if self.thinking:
                reasoning = f"Weighing {move} against the alternatives."
        elif kind == "fence":
            text = f"```\n{move}\n```"
        elif kind == "garbage":
            text = GARBAGE
        elif kind == "illegal":
            taken = set(legal or ())
            bad = _random_uci(rng)
            while bad in taken:
                bad = _random_uci(rng)
            text = _answer(bad)
        elif kind == "chatter":
            text = f"I play {move}"
        else:  # reasoning_field
            text = move
            reasoning = "Quick look: this is the natural move."
        prompt_tokens = sum(len(m.content) for m in messages) // 4
        completion_tokens = len(text) // 4 + 1
        usage = {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
            "total_tokens": prompt_tokens + completion_tokens,
        }
        time.sleep(self.latency_s)
        return ChatResponse(text=text, reasoning=reasoning, usage=usage)

    def _kind(self, rng: random.Random) -> str:
        mix = BULLET_MIX if self.mode == BULLET else PLAIN_MIX
        pick = rng.randrange(1000)
        for kind, weight in mix:
            if pick < weight:
                return kind
            pick -= weight
        raise AssertionError("reply mix weights must sum to 1000")
