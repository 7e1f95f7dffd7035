"""Match orchestration: the game loop, rating-coupled match and tournament
runners, JSONL persistence with idempotent resume, engine annotation, the
leaderboard, and secondary per-player metrics.

Game ids are content-addressed (players, seed, index), so re-running a
crashed tournament recomputes nothing that already finished and never
duplicates a game.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .core import (
    BLACK,
    BoardState,
    FORFEIT,
    MoveToken,
    PositionHistory,
    Termination,
    WHITE,
    apply_move,
    game_status,
    legal_moves,
)
from .core.status import DEFAULT_PLY_CAP
from .engine import AnalysisCache, EngineError, analyze_all_moves, best_move, start_engine, write_atomic
from .players import (
    HttpChatTransport,
    LLM_API,
    MAX_ATTEMPTS,
    MoveAttempt,
    OK,
    PlayerSpec,
    RANDOM,
    TransportError,
    UCI_ENGINE,
    build_blindfold_conversation,
    build_prompt,
    random_player_move,
    request_move,
)
from .rating import (
    MatchOutcome,
    PoolEntry,
    RatingConfig,
    pool_from_json,
    pool_to_json,
    sample_opponent,
    select_initiator,
    update_pair,
)

INTERVAL_Z = 1.96


@dataclass(frozen=True)
class GameConfig:
    ply_cap: int = DEFAULT_PLY_CAP
    rating: RatingConfig = dc_field(default_factory=RatingConfig)


@dataclass(frozen=True)
class GameView:
    """What a player sees when asked to move."""

    board: BoardState
    moves_played: tuple
    legal: list | None
    color: str
    rng: random.Random


@dataclass(frozen=True)
class PlyChoice:
    move: MoveToken | None  # None means forfeit
    attempts: tuple
    prompt_digest: str | None = None


@dataclass
class PlyRecord:
    ply: int
    fen_before: str
    color: str
    attempts: tuple
    move: str | None
    prompt_digest: str | None = None
    q: float | None = None
    in_top3: bool | None = None


@dataclass
class GameRecord:
    game_id: str
    white_id: str
    black_id: str
    seed: int
    plies: list
    termination: Termination | None
    result_white: float | None
    started_at: float
    finished_at: float
    aborted: bool = False
    error: str | None = None

    def result_for(self, player_id: str) -> float | None:
        if self.result_white is None:
            return None
        if player_id == self.white_id:
            return self.result_white
        if player_id == self.black_id:
            return 1.0 - self.result_white
        raise KeyError(f"{player_id} did not play game {self.game_id}")

    @property
    def moves(self) -> list:
        return [p.move for p in self.plies if p.move]


@dataclass(frozen=True)
class MatchRequest:
    a_id: str
    b_id: str
    n_games: int

    def __post_init__(self):
        if self.a_id == self.b_id:
            raise ValueError("a match needs two distinct players")
        if self.n_games <= 0 or self.n_games % 2 != 0:
            raise ValueError(f"n_games must be a positive even number, got {self.n_games}")


@dataclass(frozen=True)
class LeaderboardEntry:
    rank: int
    id: str
    mode: str | None
    legal_moves: bool
    r: float
    rd: float
    interval: tuple
    games: int


@dataclass(frozen=True)
class SecondaryMetrics:
    wins: int
    losses: int
    draws: int
    parsing_err_rate: float
    illegal_move_rate: float
    forbidden_rate: float
    legal_move_rate: float
    top_move_rate: float | None


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def game_id_for(white_id: str, black_id: str, seed: int, index: int) -> str:
    return hashlib.sha1(f"{white_id}|{black_id}|{seed}|{index}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Runtime players


class Player:
    def __init__(self, spec: PlayerSpec):
        self.spec = spec

    def choose(self, view: GameView) -> PlyChoice:
        raise NotImplementedError


class RandomPlayer(Player):
    def choose(self, view: GameView) -> PlyChoice:
        move = random_player_move(view.board, view.rng)
        attempt = MoveAttempt(move.uci, OK, move=move)
        return PlyChoice(move, (attempt,))


class EnginePlayer(Player):
    def __init__(self, spec: PlayerSpec, handle):
        super().__init__(spec)
        self.handle = handle

    def choose(self, view: GameView) -> PlyChoice:
        limits = self.spec.engine_limits or {"depth": 4}
        move = best_move(self.handle, view.board.fen, limits)
        attempt = MoveAttempt(f"bestmove {move.uci}", OK, move=move)
        return PlyChoice(move, (attempt,))


class LlmPlayer(Player):
    def __init__(self, spec: PlayerSpec, transport, max_attempts: int = MAX_ATTEMPTS):
        super().__init__(spec)
        self.transport = transport
        self.max_attempts = max_attempts

    def choose(self, view: GameView) -> PlyChoice:
        if self.spec.play_mode == "blindfold":
            messages = build_blindfold_conversation(
                self.spec, view.moves_played, view.legal, view.color
            )
        else:
            messages = build_prompt(
                self.spec, view.board, view.moves_played, view.legal, view.color
            )
        digest = hashlib.sha256(
            json.dumps([m.as_dict() for m in messages], sort_keys=True).encode()
        ).hexdigest()
        move, attempts, _transcript = request_move(
            self.spec, messages, view.board, self.transport, max_attempts=self.max_attempts
        )
        return PlyChoice(move, tuple(attempts), prompt_digest=digest)


def make_player(
    spec: PlayerSpec, *, transport=None, handle=None, max_attempts: int = MAX_ATTEMPTS
) -> Player:
    """The runtime player for `spec`. Engine players search on `handle`; an
    LLM player without a `transport` talks HTTP to the spec's endpoint and
    gets `max_attempts` tries per move."""
    if spec.kind == RANDOM:
        return RandomPlayer(spec)
    if spec.kind == UCI_ENGINE:
        return EnginePlayer(spec, handle)
    if spec.kind == LLM_API:
        return LlmPlayer(spec, transport or HttpChatTransport(spec), max_attempts)
    raise ValueError(f"unknown kind {spec.kind!r}")


class PlayerRegistry:
    """Builds and owns runtime players (and their engine processes)."""

    def __init__(self, specs, transports: dict | None = None):
        self.specs = {spec.id: spec for spec in specs}
        if len(self.specs) != len(specs):
            raise ValueError("player ids must be unique")
        self._transports = transports or {}
        self._players: dict = {}
        self._handles: list = []

    def player(self, player_id: str) -> Player:
        if player_id not in self._players:
            spec = self.specs[player_id]
            handle = None
            if spec.kind == UCI_ENGINE:
                handle = start_engine(spec.engine_command, spec.engine_options)
                self._handles.append(handle)
            self._players[player_id] = make_player(
                spec, transport=self._transports.get(player_id), handle=handle
            )
        return self._players[player_id]

    def close(self) -> None:
        for handle in self._handles:
            handle.quit()
        self._handles.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Game loop


def play_game(
    white: Player,
    black: Player,
    cfg: GameConfig,
    seed: int,
    game_id: str | None = None,
) -> GameRecord:
    """Play one full game from the initial position.

    Fatal engine/transport errors abort the game (recorded, excluded from
    ratings); forfeits and rule terminations end it normally.
    """
    if white.spec.id == black.spec.id:
        raise ValueError("a game needs two distinct players")
    game_id = game_id or game_id_for(white.spec.id, black.spec.id, seed, 0)
    rng = random.Random(seed)
    board = BoardState.start()
    history = PositionHistory.start(board)
    moves_played: list = []
    plies: list = []
    started = time.time()
    termination: Termination | None = None
    aborted = False
    error = None

    status = game_status(board, history, cfg.ply_cap)
    while status is None:
        mover = white if board.turn > 0 else black
        color = WHITE if board.turn > 0 else BLACK
        legal = legal_moves(board) if mover.spec.provide_legal_moves else None
        view = GameView(board, tuple(moves_played), legal, color, rng)
        try:
            choice = mover.choose(view)
        except (EngineError, TransportError) as exc:
            aborted = True
            error = f"{mover.spec.id}: {exc}"
            break
        plies.append(
            PlyRecord(
                ply=len(plies),
                fen_before=board.fen,
                color=color,
                attempts=choice.attempts,
                move=choice.move.uci if choice.move else None,
                prompt_digest=choice.prompt_digest,
            )
        )
        if choice.move is None:
            winner = BLACK if color == WHITE else WHITE
            termination = Termination(FORFEIT, winner)
            break
        board = apply_move(board, choice.move)
        moves_played.append(choice.move)
        history = history.push(board)
        status = game_status(board, history, cfg.ply_cap)
    if termination is None and not aborted:
        termination = status
    return GameRecord(
        game_id=game_id,
        white_id=white.spec.id,
        black_id=black.spec.id,
        seed=seed,
        plies=plies,
        termination=termination,
        result_white=None if aborted else termination.score_for_white,
        started_at=started,
        finished_at=time.time(),
        aborted=aborted,
        error=error,
    )


def annotate_record(record: GameRecord, handle, depth: int, cache: AnalysisCache | None = None) -> None:
    """Post-game oracle annotation: per-ply Q and top-3 membership."""
    engine_id = getattr(handle, "name", "engine")
    for ply in record.plies:
        if ply.move is None:
            continue
        table = cache.get(engine_id, ply.fen_before, depth) if cache else None
        if table is None:
            table = analyze_all_moves(handle, ply.fen_before, depth)
            if cache:
                cache.put(engine_id, table)
        ply.q = table.q_for(ply.move)
        ply.in_top3 = table.is_top(ply.move)


# ---------------------------------------------------------------------------
# Persistence


def _attempt_to_dict(a: MoveAttempt) -> dict:
    return {
        "raw_response": a.raw_response,
        "outcome": a.outcome,
        "move": a.move.uci if a.move else None,
        "attempt_index": a.attempt_index,
        "token_usage": a.token_usage,
        "reasoning": a.reasoning,
        "error": a.error,
    }


def _attempt_from_dict(d: dict) -> MoveAttempt:
    return MoveAttempt(
        raw_response=d["raw_response"],
        outcome=d["outcome"],
        move=MoveToken.from_uci(d["move"]) if d.get("move") else None,
        attempt_index=d.get("attempt_index", 1),
        token_usage=d.get("token_usage"),
        reasoning=d.get("reasoning"),
        error=d.get("error"),
    )


class RunDir:
    """On-disk layout of one run: pool.json, games/*.jsonl, leaderboard.*"""

    def __init__(self, root):
        self.root = Path(root)
        self.games = self.root / "games"
        self.games.mkdir(parents=True, exist_ok=True)

    def game_path(self, game_id: str) -> Path:
        return self.games / f"{game_id}.jsonl"

    def has_game(self, game_id: str) -> bool:
        try:
            lines = self.game_path(game_id).read_text().strip().splitlines()
            return bool(lines) and json.loads(lines[-1]).get("type") == "footer"
        except (FileNotFoundError, ValueError):  # missing, or torn mid-row
            return False

    def write_game(self, record: GameRecord) -> Path:
        rows = [
            {
                "type": "header",
                "game_id": record.game_id,
                "white": record.white_id,
                "black": record.black_id,
                "seed": record.seed,
                "started_at": record.started_at,
            }
        ]
        for ply in record.plies:
            rows.append(
                {
                    "type": "ply",
                    "ply": ply.ply,
                    "fen_before": ply.fen_before,
                    "color": ply.color,
                    "prompt_digest": ply.prompt_digest,
                    "attempts": [_attempt_to_dict(a) for a in ply.attempts],
                    "move": ply.move,
                    "q": ply.q,
                    "in_top3": ply.in_top3,
                }
            )
        rows.append(
            {
                "type": "footer",
                "termination": record.termination.reason if record.termination else None,
                "winner": record.termination.winner if record.termination else None,
                "result_white": record.result_white,
                "finished_at": record.finished_at,
                "aborted": record.aborted,
                "error": record.error,
            }
        )
        path = self.game_path(record.game_id)
        write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        return path

    def read_game(self, game_id: str) -> GameRecord:
        rows = [json.loads(line) for line in self.game_path(game_id).read_text().splitlines()]
        header = rows[0]
        footer = rows[-1]
        plies = [
            PlyRecord(
                ply=r["ply"],
                fen_before=r["fen_before"],
                color=r["color"],
                attempts=tuple(_attempt_from_dict(a) for a in r["attempts"]),
                move=r["move"],
                prompt_digest=r.get("prompt_digest"),
                q=r.get("q"),
                in_top3=r.get("in_top3"),
            )
            for r in rows[1:-1]
        ]
        termination = None
        if footer["termination"]:
            termination = Termination(footer["termination"], footer.get("winner"))
        return GameRecord(
            game_id=header["game_id"],
            white_id=header["white"],
            black_id=header["black"],
            seed=header["seed"],
            plies=plies,
            termination=termination,
            result_white=footer["result_white"],
            started_at=header["started_at"],
            finished_at=footer["finished_at"],
            aborted=footer.get("aborted", False),
            error=footer.get("error"),
        )

    def game_ids(self) -> list:
        return sorted(p.stem for p in self.games.glob("*.jsonl"))

    def write_pool(self, pool) -> None:
        write_atomic(self.root / "pool.json", pool_to_json(pool))

    def read_pool(self):
        return pool_from_json((self.root / "pool.json").read_text())

    def append_round(self, entry: dict) -> None:
        with open(self.root / "rounds.jsonl", "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def reset_rounds(self) -> None:
        path = self.root / "rounds.jsonl"
        if path.exists():
            path.unlink()

    def write_leaderboard(self, entries) -> None:
        write_atomic(self.root / "leaderboard.md", render_leaderboard(entries))
        payload = [
            {
                "rank": e.rank,
                "id": e.id,
                "mode": e.mode,
                "legal_moves": e.legal_moves,
                "rating": e.r,
                "rd": e.rd,
                "interval": list(e.interval),
                "games": e.games,
            }
            for e in entries
        ]
        write_atomic(self.root / "leaderboard.json", json.dumps(payload, indent=2) + "\n")


def verify_replay(record: GameRecord) -> None:
    """Re-derive every stored FEN from the move list; raises on any drift."""
    board = BoardState.start()
    for ply in record.plies:
        if board.fen != ply.fen_before:
            raise AssertionError(
                f"game {record.game_id} ply {ply.ply}: stored {ply.fen_before}, replayed {board.fen}"
            )
        if ply.move is not None:
            board = apply_move(board, MoveToken.from_uci(ply.move))


# ---------------------------------------------------------------------------
# Matches and tournaments


def run_match(
    req: MatchRequest,
    pool: list,
    cfg: GameConfig,
    registry: PlayerRegistry,
    run_dir: RunDir | None = None,
    seed: int = 0,
) -> list:
    """Play an even number of games with alternating colors, updating both
    players' ratings from pre-game snapshots after every finished game."""
    entries = {p.id: p for p in pool}
    if req.a_id not in entries or req.b_id not in entries:
        raise KeyError("both match players must be in the pool")
    records = []
    for index in range(req.n_games):
        white_id, black_id = (req.a_id, req.b_id) if index % 2 == 0 else (req.b_id, req.a_id)
        game_seed = derive_seed(seed, f"game:{index}")
        gid = game_id_for(white_id, black_id, game_seed, index)
        if run_dir is not None and run_dir.has_game(gid):
            record = run_dir.read_game(gid)
        else:
            record = play_game(
                registry.player(white_id), registry.player(black_id), cfg, game_seed, game_id=gid
            )
            if run_dir is not None:
                run_dir.write_game(record)
        records.append(record)
        if record.aborted:
            continue
        white_entry, black_entry = entries[record.white_id], entries[record.black_id]
        white_entry.rating, black_entry.rating = update_pair(
            white_entry.rating,
            black_entry.rating,
            MatchOutcome(record.result_white),
            cfg.rating,
        )
    return records


def run_tournament(
    pool: list,
    rounds: int,
    registry: PlayerRegistry,
    cfg: GameConfig,
    games_per_match: int = 2,
    startup_id: str | None = None,
    seed: int = 0,
    run_dir: RunDir | None = None,
    stop_rd: float | None = None,
) -> list:
    """Initiator selection -> opponent sampling -> match, for each round.

    Specified startup names round 1's initiator; later rounds (and random
    startup throughout) draw uniformly from the seeded stream. With
    `stop_rd` set, a player whose deviation reaches it stops initiating
    matches (it can still be sampled as an opponent), and the tournament
    ends early once nobody needs more games.
    """
    if len(pool) < 2:
        raise ValueError("a tournament needs at least 2 players")
    rng = random.Random(seed)
    if run_dir is not None:
        run_dir.reset_rounds()
    for round_idx in range(rounds):
        candidates = pool
        if stop_rd is not None:
            candidates = [p for p in pool if p.rating.rd > stop_rd]
            if not candidates:
                break
        chosen_id = startup_id if (round_idx == 0 and startup_id) else None
        initiator = select_initiator(candidates, player_id=chosen_id, rng=rng)
        opponent = sample_opponent(pool, initiator)
        req = MatchRequest(initiator.id, opponent.id, games_per_match)
        match_seed = derive_seed(seed, f"round:{round_idx}:{initiator.id}:{opponent.id}")
        records = run_match(req, pool, cfg, registry, run_dir=run_dir, seed=match_seed)
        if run_dir is not None:
            run_dir.append_round(
                {
                    "round": round_idx,
                    "initiator": initiator.id,
                    "opponent": opponent.id,
                    "games": [r.game_id for r in records],
                    "results_white": [r.result_white for r in records],
                }
            )
            run_dir.write_pool(pool)
    if run_dir is not None:
        run_dir.write_pool(pool)
        run_dir.write_leaderboard(compute_leaderboard(pool, cfg.rating))
    return pool


# ---------------------------------------------------------------------------
# Leaderboard and metrics


def compute_leaderboard(pool, rating_cfg: RatingConfig | None = None) -> list:
    """Players with reliable ratings (rd <= threshold), best first."""
    cfg = rating_cfg or RatingConfig()
    listed = [p for p in pool if p.rating.rd <= cfg.display_rd_threshold]
    listed.sort(key=lambda p: (-p.rating.r, p.rating.rd, p.id))
    entries = []
    for rank, p in enumerate(listed, start=1):
        lo = round(p.rating.r - INTERVAL_Z * p.rating.rd)
        hi = round(p.rating.r + INTERVAL_Z * p.rating.rd)
        entries.append(
            LeaderboardEntry(
                rank=rank,
                id=p.id,
                mode=p.mode,
                legal_moves=p.legal_moves,
                r=p.rating.r,
                rd=p.rating.rd,
                interval=(lo, hi),
                games=p.rating.games_played,
            )
        )
    return entries


def render_leaderboard(entries) -> str:
    header = "| Rank | Model | Mode | Legal Moves | Rating | RD | Interval | Games |"
    rule = "|---|---|---|---|---|---|---|---|"
    lines = [header, rule]
    for e in entries:
        lines.append(
            f"| {e.rank} | {e.id} | {e.mode or '-'} | {'yes' if e.legal_moves else 'no'} "
            f"| {round(e.r)} | {round(e.rd)} | ({e.interval[0]}, {e.interval[1]}) | {e.games} |"
        )
    return "\n".join(lines) + "\n"


def compute_secondary_metrics(records, player_id: str) -> SecondaryMetrics:
    """Per-ply attempt rates over every game the player finished.

    Error rates divide by total attempts; the legal-move rate counts plies
    whose first attempt was already legal; the top-move rate is over
    annotated plies only (None when nothing is annotated).
    """
    wins = losses = draws = 0
    attempts = []
    plies = []
    for record in records:
        if record.aborted or player_id not in (record.white_id, record.black_id):
            continue
        s = record.result_for(player_id)
        if s == 1.0:
            wins += 1
        elif s == 0.0:
            losses += 1
        else:
            draws += 1
        my_color = WHITE if record.white_id == player_id else BLACK
        for ply in record.plies:
            if ply.color != my_color:
                continue
            plies.append(ply)
            attempts.extend(ply.attempts)
    n_attempts = len(attempts) or 1
    first_legal = sum(1 for p in plies if p.attempts and p.attempts[0].outcome == OK)
    annotated = [p for p in plies if p.in_top3 is not None]
    return SecondaryMetrics(
        wins=wins,
        losses=losses,
        draws=draws,
        parsing_err_rate=sum(a.outcome == "parsing_error" for a in attempts) / n_attempts,
        illegal_move_rate=sum(a.outcome == "illegal_move" for a in attempts) / n_attempts,
        forbidden_rate=sum(a.outcome == "forbidden_thinking" for a in attempts) / n_attempts,
        legal_move_rate=first_legal / (len(plies) or 1),
        top_move_rate=(sum(p.in_top3 for p in annotated) / len(annotated)) if annotated else None,
    )
