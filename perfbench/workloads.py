"""The benchmark's workloads.

Each workload is a closed loop run by one caller that waits for every reply
before it sends the next request. `setup` builds what a run needs;
`iteration(k)` runs one fixed pipeline on inputs derived from the workload
seed and `k`, times each phase, checks the outputs and, for k = 0, returns
the material of the correctness fingerprint. The runner repeats iterations
until the run time is spent.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import chessarena.arena as arena
import chessarena.engine as engine
import chessarena.evals as evals
from chessarena.core import START_FEN, apply_move, legal_moves, parse_fen
from chessarena.players import LLM_API, PlayerSpec, RANDOM, UCI_ENGINE, random_player_move
from chessarena.rating import PoolEntry, RatingConfig, RatingState

from fake_model import FakeChatTransport

TOYFISH = f"{sys.executable} -m chessarena.toy_engine"
GAMES_PER_MATCH = 2
RESUME_PASSES = 3

# arena_random
RANDOM_PLAYERS = 24
RANDOM_ROUNDS = 12

# arena_llm
LLM_ROUNDS = 4
LLM_PLY_CAP = 80
# Real endpoints answer in hundreds of milliseconds to seconds; a
# latency that long would leave the arena's own work lost in the wait. At
# 2 ms the wait is still most of a model move, and `time.sleep` overshoots it
# by about 65 us (median; 2 cores, Linux), a few percent.
MODEL_LATENCY_S = 0.002
EVAL_ITEMS = 24
EVAL_WORKERS = 2
ITEM_DEPTH = 12

# engine_oracle
ORACLE_GAMES = 8
# Uncapped toyfish-vs-random games vary in length with a CV of 0.76 (a tail
# of 350-ply games where the engine finds no mate); at 100 plies it is 0.32.
ORACLE_PLY_CAP = 100
# From depth 3 toyfish scans for mates in two after every checking move, so
# the cost of a move depends on the checks the position offers; at depth 2 it
# does not. Annotation and puzzles keep the configured depth of 12.
ENGINE_PLAY_DEPTH = 2
ANNOTATE_DEPTH = 12
ANNOTATED_GAMES = 2  # of each iteration's games, by game id
WARM_PASSES = 3
PUZZLE_DEPTH = 12
PUZZLES_PER_ITERATION = 20  # iteration k solves slice k of the corpus, wrapping


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


class PhaseLog:
    """Seconds and work counts per phase, summed over iterations, and the
    rate of every resume pass."""

    def __init__(self):
        self.seconds: dict = {}
        self.counts: dict = {}
        self.resume_rates: list = []  # games/s of each resume pass

    def reset(self) -> None:
        self.__init__()

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def add(self, phase: str, seconds: float, **counts) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        bucket = self.counts.setdefault(phase, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + value


class Workload:
    name = ""
    why = ""
    subject = ""  # player kind whose `choose` latency the run reports

    def __init__(self, root: Path, work: Path, seed: int, log: PhaseLog):
        self.root = root
        self.work = work
        self.seed = seed
        self.log = log
        self.rating = RatingConfig()
        self.cfg = arena.GameConfig(rating=self.rating)
        self.attempted = 0
        self.failed = 0
        self.setup_notes: dict = {}

    # Set-up is repeated; `setup` must release what an earlier call built.
    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, k: int, quiet) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared pieces -------------------------------------------------------

    def time_imports(self) -> float:
        """Wall time of a fresh interpreter importing the whole package."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chessarena.cli"], check=True)
        return time.perf_counter() - t0

    def start_engine(self):
        t0 = time.perf_counter()
        handle = engine.start_engine(TOYFISH)
        self.setup_notes.setdefault("start_engine_s", []).append(time.perf_counter() - t0)
        return handle

    def fresh_pool(self, specs) -> list:
        return [
            PoolEntry(
                id=s.id,
                rating=RatingState.fresh(self.rating),
                mode=s.play_mode if s.kind == LLM_API else None,
                legal_moves=s.provide_legal_moves,
            )
            for s in specs
        ]

    def sub_seed(self, k: int) -> int:
        return arena.derive_seed(self.seed, f"iteration:{k}")

    def run_dir(self, k: int):
        path = self.work / f"iteration-{k}"
        if path.exists():
            shutil.rmtree(path)
        return arena.RunDir(path)

    def read_games(self, run_dir, quiet) -> list:
        with quiet():
            return [run_dir.read_game(gid) for gid in run_dir.game_ids()]

    def account_games(self, records, phase: str, seconds: float) -> None:
        plies = sum(len(r.moves) for r in records)
        aborted = sum(r.aborted for r in records)
        self.attempted += len(records)
        self.failed += aborted
        self.log.add(phase, seconds, games=len(records), plies=plies)

    def resume(self, run_dir, replay, quiet, k: int) -> None:
        """Replay the pass on its own run dir: every game must be a hit, so
        no game file is rewritten (a replayed game has new timestamps), and
        the pool and leaderboard files must come out byte-identical."""
        paths = [run_dir.root / name for name in self.run_files(run_dir)]
        paths += [run_dir.game_path(gid) for gid in run_dir.game_ids()]
        before = {path: path.read_bytes() for path in paths}
        n_games = len(run_dir.game_ids())
        for _ in range(RESUME_PASSES):
            t0 = time.perf_counter()
            replay()
            seconds = time.perf_counter() - t0
            self.log.add("resume", seconds, games=n_games)
            self.log.resume_rates.append(n_games / seconds)
            self.attempted += n_games
        check(len(run_dir.game_ids()) == n_games, f"iteration {k}: resume pass played new games")
        for path, data in before.items():
            check(path.read_bytes() == data, f"iteration {k}: resume rewrote {path.name}")

    def run_files(self, run_dir) -> list:
        return [name for name in ("pool.json", "leaderboard.json") if (run_dir.root / name).exists()]

    def game_lines(self, records) -> list:
        lines = []
        for r in sorted(records, key=lambda r: r.game_id):
            term = r.termination
            lines.append(
                f"{r.game_id} {' '.join(r.moves)} "
                f"{term.reason if term else None}:{term.winner if term else None} {r.result_white}"
            )
        return lines

    def games_fingerprint(self, run_dir, records, quiet) -> dict:
        with quiet():
            for r in records:
                arena.verify_replay(r)
        out = {"games": sha("\n".join(self.game_lines(records)))}
        for name in self.run_files(run_dir):
            out[name] = sha((run_dir.root / name).read_bytes())
        return out


# ---------------------------------------------------------------------------


class ArenaRandom(Workload):
    name = "arena_random"
    subject = RANDOM
    why = (
        "Rated tournament of bundled random players plus a resume pass: the rules kernel does "
        "the work and persistence is hit on both its write and read paths; no model, no engine."
    )

    def setup(self) -> None:
        self.close()
        self.setup_notes.setdefault("import_s", []).append(self.time_imports())
        self.specs = [PlayerSpec(id=f"random-{i:02d}", kind=RANDOM) for i in range(RANDOM_PLAYERS)]
        self.registry = arena.PlayerRegistry(self.specs)
        self.work.mkdir(parents=True, exist_ok=True)
        arena.RunDir(self.work / "setup-probe")

    def close(self) -> None:
        if getattr(self, "registry", None) is not None:
            self.registry.close()
            self.registry = None

    def tournament(self, sub: int, run_dir) -> None:
        arena.run_tournament(
            self.fresh_pool(self.specs), RANDOM_ROUNDS, self.registry, self.cfg,
            games_per_match=GAMES_PER_MATCH, seed=sub, run_dir=run_dir,
        )

    def iteration(self, k: int, quiet) -> dict:
        sub = self.sub_seed(k)
        run_dir = self.run_dir(k)
        t0 = time.perf_counter()
        self.tournament(sub, run_dir)
        played = time.perf_counter() - t0
        records = self.read_games(run_dir, quiet)
        self.account_games(records, "play", played)
        check(len(records) == RANDOM_ROUNDS * GAMES_PER_MATCH, f"iteration {k}: game count")
        self.resume(run_dir, lambda: self.tournament(sub, run_dir), quiet, k)
        fingerprint = self.games_fingerprint(run_dir, records, quiet) if k == 0 else None
        shutil.rmtree(run_dir.root)
        return fingerprint


# ---------------------------------------------------------------------------


def llm_roster() -> list:
    """Model players in the play styles of configs/example.json."""
    common = {"kind": LLM_API, "model": "fake-model", "provider": "fake"}
    return [
        PlayerSpec(id="blitz-uci", play_mode="blitz", history_format="uci_list", **common),
        PlayerSpec(id="standard-pgn", play_mode="standard", thinking=True, history_format="pgn", **common),
        PlayerSpec(id="bullet-none", play_mode="bullet", history_format="none", **common),
        PlayerSpec(id="blind-legal", play_mode="blindfold", provide_legal_moves=True, **common),
        PlayerSpec(id="blind-nolegal", play_mode="blindfold", provide_legal_moves=False, **common),
    ]


class ArenaLlm(Workload):
    name = "arena_llm"
    subject = LLM_API
    why = (
        "Rated tournament of model players on a fake transport with fixed latency, then a "
        "move-selection eval: prompt building, extraction and retries do the work."
    )

    # The player shown no legal moves guesses, almost always wrongly, so its
    # games end by forfeit within a few plies, and whether the pairing rule
    # meets it again depends on those few plies. In the tournament it made
    # games/s swing two- to threefold between seeds; it plays the
    # move-selection phase only.

    def setup(self) -> None:
        self.close()
        self.setup_notes.setdefault("import_s", []).append(self.time_imports())
        self.cfg = arena.GameConfig(ply_cap=LLM_PLY_CAP, rating=self.rating)
        self.specs = llm_roster()
        self.transports = {
            s.id: FakeChatTransport(s.id, s.play_mode, self.seed, MODEL_LATENCY_S, thinking=s.thinking)
            for s in self.specs
        }
        self.registry = arena.PlayerRegistry(self.specs, transports=self.transports)
        self.entrants = [s for s in self.specs if s.provide_legal_moves]
        handle = self.start_engine()
        try:
            positions = self.item_positions()
            tables = [engine.analyze_all_moves(handle, fen, ITEM_DEPTH) for fen, _ in positions]
        finally:
            handle.quit()
        self.items = {
            s.id: [
                evals.MoveSelectionItem(fen, history, s.play_mode, s.provide_legal_moves, table)
                for (fen, history), table in zip(positions, tables)
            ]
            for s in self.specs
        }
        self.work.mkdir(parents=True, exist_ok=True)
        arena.RunDir(self.work / "setup-probe")

    def item_positions(self) -> list:
        """Positions reached by seeded random play from the start, with the
        UCI history that led there."""
        positions = []
        for j in range(EVAL_ITEMS):
            rng = random.Random(arena.derive_seed(self.seed, f"item:{j}"))
            board = parse_fen(START_FEN)
            history = []
            for _ in range(rng.randrange(2, 60)):
                move = random_player_move(board, rng)
                after = apply_move(board, move)
                if not legal_moves(after):
                    break
                board = after
                history.append(move.uci)
            positions.append((board.fen, tuple(history)))
        return positions

    def close(self) -> None:
        if getattr(self, "registry", None) is not None:
            self.registry.close()
            self.registry = None

    def tournament(self, sub: int, run_dir) -> None:
        arena.run_tournament(
            self.fresh_pool(self.entrants), LLM_ROUNDS, self.registry, self.cfg,
            games_per_match=GAMES_PER_MATCH, seed=sub, run_dir=run_dir,
        )

    def iteration(self, k: int, quiet) -> dict:
        # The workload seed decides every model reply, hence every game. The
        # tournament seed, which draws the initiators, depends on `k` only: a
        # PGN-history ply costs several times another, so schedules drawn
        # from the workload seed swung plies/s by a third between seeds.
        schedule = arena.derive_seed(0, f"schedule:{k}")
        run_dir = self.run_dir(k)
        t0 = time.perf_counter()
        self.tournament(schedule, run_dir)
        played = time.perf_counter() - t0
        records = self.read_games(run_dir, quiet)
        self.account_games(records, "play", played)
        self.resume(run_dir, lambda: self.tournament(schedule, run_dir), quiet, k)

        scores = {}
        t0 = time.perf_counter()
        for spec in self.specs:
            scores[spec.id] = evals.run_move_selection(
                spec, self.items[spec.id], transport=self.transports[spec.id], workers=EVAL_WORKERS
            )
        n_items = sum(len(v) for v in self.items.values())
        self.log.add("eval", time.perf_counter() - t0, items=n_items)
        # The fake transport never raises TransportError, so no item is
        # excluded for a transport failure.
        self.attempted += n_items
        fingerprint = None
        if k == 0:
            fingerprint = self.games_fingerprint(run_dir, records, quiet)
            fingerprint["move_selection"] = sha(
                json.dumps(
                    {sid: [s["lr"], s["tr"], s["mar"], s["zero_awr_items"]] for sid, s in scores.items()},
                    sort_keys=True,
                )
            )
        shutil.rmtree(run_dir.root)
        return fingerprint


# ---------------------------------------------------------------------------


class EngineOracle(Workload):
    name = "engine_oracle"
    subject = UCI_ENGINE
    why = (
        "Toyfish-vs-random matches, oracle annotation with a cold then warm cache, and slices of the "
        "puzzle corpus: the UCI bridge, the analysis cache and the engine process do the work."
    )

    def setup(self) -> None:
        self.close()
        self.setup_notes.setdefault("import_s", []).append(self.time_imports())
        self.specs = [
            PlayerSpec(id="toyfish", kind=UCI_ENGINE, engine_command=TOYFISH,
                       engine_limits={"depth": ENGINE_PLAY_DEPTH}),
            PlayerSpec(id="random", kind=RANDOM),
        ]
        self.cfg = arena.GameConfig(ply_cap=ORACLE_PLY_CAP, rating=self.rating)
        self.solver = PlayerSpec(id="toyfish-solver", kind=UCI_ENGINE, engine_command=TOYFISH,
                                 engine_limits={"depth": PUZZLE_DEPTH})
        self.registry = arena.PlayerRegistry(self.specs)
        t0 = time.perf_counter()
        self.registry.player("toyfish")
        self.setup_notes.setdefault("start_engine_s", []).append(time.perf_counter() - t0)
        self.oracle = self.start_engine()
        t0 = time.perf_counter()
        self.puzzles = evals.load_lichess_puzzles(self.root / "tests" / "data" / "puzzles_small.csv")
        self.setup_notes.setdefault("load_puzzles_s", []).append(time.perf_counter() - t0)
        self.work.mkdir(parents=True, exist_ok=True)
        arena.RunDir(self.work / "setup-probe")

    def close(self) -> None:
        if getattr(self, "registry", None) is not None:
            self.registry.close()
            self.registry = None
        if getattr(self, "oracle", None) is not None:
            self.oracle.quit()
            self.oracle = None

    def match(self, sub: int, run_dir) -> None:
        req = arena.MatchRequest("toyfish", "random", ORACLE_GAMES)
        arena.run_match(req, self.fresh_pool(self.specs), self.cfg, self.registry, run_dir=run_dir, seed=sub)

    def iteration(self, k: int, quiet) -> dict:
        """Play a match, annotate some of its games, solve a puzzle slice."""
        sub = self.sub_seed(k)
        run_dir = self.run_dir(k)
        t0 = time.perf_counter()
        self.match(sub, run_dir)
        played = time.perf_counter() - t0
        records = self.read_games(run_dir, quiet)
        self.account_games(records, "play", played)
        self.resume(run_dir, lambda: self.match(sub, run_dir), quiet, k)
        annotated = sorted(records, key=lambda r: r.game_id)[:ANNOTATED_GAMES]
        annotation = self.annotate(run_dir, annotated, k)
        puzzles = self.solve_puzzles(k)
        fingerprint = None
        if k == 0:
            fingerprint = self.games_fingerprint(run_dir, records, quiet)
            fingerprint.update(annotation=annotation, puzzles=puzzles)
        shutil.rmtree(run_dir.root)
        return fingerprint

    def annotate(self, run_dir, records, k: int) -> str:
        """A cold pass on an empty cache, then warm passes that must agree."""
        plies = sum(len(r.moves) for r in records)
        cache = engine.AnalysisCache(run_dir.root / "analysis")
        t0 = time.perf_counter()
        for record in records:
            arena.annotate_record(record, self.oracle, ANNOTATE_DEPTH, cache)
        cold_s = time.perf_counter() - t0
        written = sum(f.stat().st_size for f in cache.root.iterdir())
        self.log.add("annotate_cold", cold_s, plies=plies, cache_bytes=written)
        self.attempted += plies
        cold = [(p.q, p.in_top3) for r in records for p in r.plies]
        for _ in range(WARM_PASSES):
            for record in records:
                for ply in record.plies:
                    ply.q = ply.in_top3 = None
            t0 = time.perf_counter()
            for record in records:
                arena.annotate_record(record, self.oracle, ANNOTATE_DEPTH, cache)
            self.log.add("annotate_warm", time.perf_counter() - t0, plies=plies)
            self.attempted += plies
            warm = [(p.q, p.in_top3) for r in records for p in r.plies]
            check(warm == cold, f"iteration {k}: warm annotation differs from cold")
        return sha(json.dumps(cold))

    def solve_puzzles(self, k: int) -> str:
        """Solve slice k of the corpus; toyfish at depth 12 solves every
        bundled puzzle."""
        start = k * PUZZLES_PER_ITERATION % len(self.puzzles)
        batch = (self.puzzles + self.puzzles)[start:start + PUZZLES_PER_ITERATION]
        handle = self.registry.player("toyfish").handle
        t0 = time.perf_counter()
        outcomes = evals.run_puzzles(self.solver, batch, handle=handle)
        self.log.add("puzzles", time.perf_counter() - t0, puzzles=len(outcomes))
        self.attempted += len(batch)
        unsolved = [o.puzzle_id for o in outcomes if not o.solved]
        check(not unsolved, f"iteration {k}: unsolved puzzles {unsolved}")
        return sha(json.dumps([[o.puzzle_id, o.solved, list(o.predictions), o.failed_at] for o in outcomes]))


WORKLOADS = {cls.name: cls for cls in (ArenaRandom, ArenaLlm, EngineOracle)}
