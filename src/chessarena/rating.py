"""Glicko-1 per-game rating updates and convergence-optimal opponent sampling.

Ratings update after every game. Pairing prefers opponents whose rating is
close and whose deviation is already small, which maximizes the information
both players gain and therefore the rate at which deviations shrink.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

Q = math.log(10) / 400


@dataclass(frozen=True)
class RatingConfig:
    init_r: float = 1500.0
    init_rd: float = 350.0
    min_rd: float = 50.0
    display_rd_threshold: float = 100.0

    def __post_init__(self):
        if not 0 < self.min_rd < self.init_rd:
            raise ValueError("need 0 < min_rd < init_rd")


@dataclass(frozen=True)
class RatingState:
    r: float
    rd: float
    games_played: int = 0

    @classmethod
    def fresh(cls, cfg: RatingConfig) -> "RatingState":
        return cls(cfg.init_r, cfg.init_rd, 0)


@dataclass(frozen=True)
class MatchOutcome:
    """Game score from one player's perspective: 1 win, 0.5 draw, 0 loss."""

    s: float

    def __post_init__(self):
        if self.s not in (0.0, 0.5, 1.0):
            raise ValueError(f"score must be 0, 0.5 or 1, got {self.s}")

    @property
    def reversed(self) -> "MatchOutcome":
        return MatchOutcome(1.0 - self.s)


WIN = MatchOutcome(1.0)
DRAW = MatchOutcome(0.5)
LOSS = MatchOutcome(0.0)


@dataclass
class PoolEntry:
    id: str
    rating: RatingState
    mode: str | None = None
    legal_moves: bool = True


def g(rd: float) -> float:
    """Attenuation factor for opponent uncertainty; g(0) = 1, decreasing."""
    return 1.0 / math.sqrt(1.0 + 3.0 * Q * Q * rd * rd / (math.pi * math.pi))


def expected_score(r: float, r_o: float, rd_o: float) -> float:
    return 1.0 / (1.0 + 10.0 ** (-g(rd_o) * (r - r_o) / 400.0))


def d_squared(r: float, r_o: float, rd_o: float) -> float:
    e = expected_score(r, r_o, rd_o)
    gf = g(rd_o)
    return 1.0 / (Q * Q * gf * gf * e * (1.0 - e))


def update_rating(
    me: RatingState, opp: RatingState, outcome: MatchOutcome, cfg: RatingConfig | None = None
) -> RatingState:
    """One post-game update; both players of a game must be updated from the
    opponent's pre-game state, which keeps the pair order-independent."""
    cfg = cfg or RatingConfig()
    e = expected_score(me.r, opp.r, opp.rd)
    d2 = d_squared(me.r, opp.r, opp.rd)
    denom = 1.0 / (me.rd * me.rd) + 1.0 / d2
    new_r = me.r + (Q / denom) * g(opp.rd) * (outcome.s - e)
    new_rd = max(cfg.min_rd, math.sqrt(1.0 / denom))
    return RatingState(new_r, new_rd, me.games_played + 1)


def update_pair(
    a: RatingState, b: RatingState, outcome_a: MatchOutcome, cfg: RatingConfig | None = None
) -> tuple[RatingState, RatingState]:
    """Update both sides of one game from pre-game snapshots."""
    return (
        update_rating(a, b, outcome_a, cfg),
        update_rating(b, a, outcome_a.reversed, cfg),
    )


def pairing_score(a: RatingState, b: RatingState) -> float:
    """Matching score: E_a(1-E_a) * (g(rd_a)^2 + g(rd_b)^2), maximized by
    near-equal ratings and small deviations on both sides."""
    e = expected_score(a.r, b.r, b.rd)
    ga, gb = g(a.rd), g(b.rd)
    return e * (1.0 - e) * (ga * ga + gb * gb)


def sample_opponent(pool: list, requester: PoolEntry) -> PoolEntry:
    """Best-scoring opponent; ties broken by lower rd, then id."""
    candidates = [p for p in pool if p.id != requester.id]
    if not candidates:
        raise LookupError("no opponent in the pool")
    return min(
        candidates,
        key=lambda p: (-pairing_score(requester.rating, p.rating), p.rating.rd, p.id),
    )


def select_initiator(
    pool: list, *, player_id: str | None = None, rng: random.Random | None = None
) -> PoolEntry:
    """Specified startup returns the named player; random startup draws
    uniformly from the given RNG (seed it for reproducible runs)."""
    if not pool:
        raise LookupError("empty pool")
    if player_id is not None:
        for entry in pool:
            if entry.id == player_id:
                return entry
        raise LookupError(f"no player {player_id!r} in the pool")
    if rng is None:
        raise ValueError("random startup requires an rng")
    return pool[rng.randrange(len(pool))]


def pool_to_json(pool: list) -> str:
    """Deterministic pool document: entries sorted by id, fixed field order."""
    rows = [
        {
            "id": p.id,
            "r": p.rating.r,
            "rd": p.rating.rd,
            "games": p.rating.games_played,
            "mode": p.mode,
            "legal_moves_flag": p.legal_moves,
        }
        for p in sorted(pool, key=lambda p: p.id)
    ]
    return json.dumps(rows, indent=2) + "\n"


# Required fields of a pool document entry and the JSON types they take.
_POOL_FIELDS = {"id": str, "r": (int, float), "rd": (int, float), "games": int}


def pool_from_json(text: str) -> list:
    """Parse a `pool_to_json` document; one of the wrong shape or types
    raises ValueError naming the entry."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError(f"expected a JSON list of entries, got {type(rows).__name__}")
    pool = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"entry {i}: expected a JSON object, got {type(row).__name__}")
        for key, kind in _POOL_FIELDS.items():
            if key not in row:
                raise ValueError(f"entry {i}: missing field {key!r}")
            if isinstance(row[key], bool) or not isinstance(row[key], kind):
                raise ValueError(f"entry {i}: field {key!r} has type {type(row[key]).__name__}")
        mode, flag = row.get("mode"), row.get("legal_moves_flag", True)
        if not (mode is None or isinstance(mode, str)) or not isinstance(flag, bool):
            raise ValueError(f"entry {i}: 'mode' must be a string or null, 'legal_moves_flag' a boolean")
        pool.append(PoolEntry(row["id"], RatingState(row["r"], row["rd"], row["games"]), mode, flag))
    return pool
