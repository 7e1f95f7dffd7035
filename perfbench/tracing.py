"""Spans around the calls into each layer of chessarena, recorded from the
benchmark's own files.

`Tracer.install` replaces public functions in the namespace of the module
that calls them (for example `chessarena.arena.legal_moves`) and public
methods on their classes (for example `RunDir.write_game`) with wrappers that
record one span per call: name, start, end, parent span and game id. Spans
are kept in flat arrays in memory and written out when the run ends. No
private name is wrapped and no file under `src/` is touched.

A span's layer is the first part of its name. Its self time is its
duration minus the part of it that its child spans cover. Worker threads that
start with no open span take the innermost open span of the main thread as
parent, so the children of one span may overlap; the time they overlap is
reported as `overlap_s`. Benchmark time is the traced wall time outside every
span plus the "bench.*" spans, which time the tracer's own counting, so

    sum of layer self times + benchmark time - overlap_s == traced wall time.
"""

from __future__ import annotations

import json
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import chessarena.arena as arena
import chessarena.engine as engine
import chessarena.evals as evals
import chessarena.players as players
from chessarena.core import BoardState, PositionHistory
from chessarena.players import LLM_API, RANDOM, UCI_ENGINE

from fake_model import FakeChatTransport

# chessarena's modules, and the fake model that stands in for the endpoint.
LAYERS = ("core", "rating", "players", "engine", "arena", "evals", "model")

NO_GAME = -1

# (class, method, span name) of `Player.choose` for each player kind.
CHOOSE_SPANS = {
    RANDOM: (arena.RandomPlayer, "choose", "arena.choose.random"),
    UCI_ENGINE: (arena.EnginePlayer, "choose", "arena.choose.engine"),
    LLM_API: (arena.LlmPlayer, "choose", "arena.choose.llm"),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self._name_ids: dict = {}
        self.name_idx = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.games = array("l")
        self.threads = array("Q")
        self.game_names: list = []
        self.notes: dict = {}  # counters taken from arguments and results
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._local.game = NO_GAME
        self._patches: list = []
        self.recording = True

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        """Index of a span name; called with the lock held."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self._name_ids[name]

    def note(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.notes[key] = self.notes.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.game = NO_GAME
        return stack

    def span(self, name: str, fn, args, kwargs, game=None):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        previous_game = self._local.game
        if game is not None:
            self._local.game = self._game_id(game)
        with self._lock:
            idx = len(self.starts)
            self.name_idx.append(self._name_id(name))
            self.parents.append(parent)
            self.games.append(self._local.game)
            self.threads.append(threading.get_ident())
            self.ends.append(0.0)
            self.starts.append(perf_counter())
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            stack.pop()
            self._local.game = previous_game

    def _game_id(self, game: str) -> int:
        with self._lock:
            self.game_names.append(game)
            return len(self.game_names) - 1

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not spans."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, *, game=None, after=None) -> None:
        """Record a span around every call of `owner.attr`.

        `name` is the span name, or a function of the call's arguments that
        returns it; `game` returns the game id a call belongs to; `after`
        sees the arguments and the result, to count what a call produced.
        """
        if attr.startswith("_"):
            raise ValueError(f"private names are not wrapped: {attr}")
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            gid = game(*args, **kwargs) if game else None
            result = tracer.span(span_name, original, args, kwargs, gid)
            if after is not None and tracer.recording:
                tracer.span("bench.count", after, (tracer, result) + args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_property(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        tracer = self
        getter = original.fget
        setattr(cls, attr, property(lambda obj: tracer.span(name, getter, (obj,), {})))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        wrap = self.wrap
        # core, at each module that calls it
        for module in (arena, players, engine, evals):
            if "legal_moves" in module.__dict__:
                wrap(module, "legal_moves", "core.legal_moves")
        for module in (arena, players, evals):
            wrap(module, "apply_move", "core.apply_move")
        for module in (engine, evals):
            wrap(module, "parse_fen", "core.parse_fen")
        wrap(arena, "game_status", "core.game_status")
        wrap(players, "move_to_san", "core.move_to_san")
        wrap(players, "parse_move", "core.parse_move")
        wrap(PositionHistory, "push", "core.history_push")
        self.wrap_property(BoardState, "fen", "core.fen")
        # rating, as the arena calls it
        wrap(arena, "update_pair", "rating.update_pair")
        wrap(arena, "sample_opponent", "rating.sample_opponent", after=_note_pool_size)
        wrap(arena, "select_initiator", "rating.select_initiator")
        wrap(arena, "pool_to_json", "rating.pool_to_json")
        # players, as the arena and the evals call them
        for module in (arena, evals):
            wrap(module, "build_prompt", _prompt_span, after=_note_prompt)
            wrap(module, "build_blindfold_conversation", "players.build_blindfold", after=_note_prompt)
            wrap(module, "random_player_move", "players.random_player_move")
        wrap(arena, "request_move", "players.request_move", after=_note_attempts)
        wrap(players, "extract_move", "players.extract_move")
        wrap(evals, "extract_move", "players.extract_move")
        wrap(FakeChatTransport, "complete", "model.complete")
        # engine
        for module in (arena, evals):
            wrap(module, "best_move", "engine.best_move")
        wrap(arena, "analyze_all_moves", "engine.analyze_all_moves")
        wrap(engine.AnalysisCache, "get", "engine.cache_get", after=_note_cache_get)
        wrap(engine.AnalysisCache, "put", "engine.cache_put")
        wrap(engine.EngineHandle, "read_line", "engine.read_line")
        # arena
        for spec in CHOOSE_SPANS.values():
            wrap(*spec)
        wrap(arena, "play_game", "arena.play_game", game=_game_of_call)
        wrap(arena, "run_match", "arena.run_match")
        wrap(arena, "run_tournament", "arena.run_tournament")
        wrap(arena, "annotate_record", "arena.annotate_record", game=_game_of_record)
        wrap(arena, "compute_leaderboard", "arena.compute_leaderboard")
        for method in ("has_game", "read_game", "write_pool", "append_round", "write_leaderboard"):
            wrap(arena.RunDir, method, f"arena.{method}")
        wrap(arena.RunDir, "write_game", "arena.write_game", after=_note_game_bytes)
        # evals
        wrap(evals, "run_move_selection", "evals.run_move_selection")
        wrap(evals, "run_puzzles", "evals.run_puzzles")
        wrap(evals, "run_puzzle", "evals.run_puzzle")
        wrap(evals, "predict_move", "evals.predict_move")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def analyse(self, wall_s: float, keep_durations=()) -> dict:
        """Per-name call counts and durations, layer self times, overlap.

        Single durations are kept only for the names in `keep_durations`."""
        n = len(self.starts)
        starts, ends, parents, threads = self.starts, self.ends, self.parents, self.threads
        # Children on the parent's own thread run one after another; only a
        # parent with children on other threads needs the union of intervals.
        covered = array("d", bytes(8 * n))
        mixed = {parents[i] for i in range(n) if parents[i] >= 0 and threads[i] != threads[parents[i]]}
        intervals: dict = {p: [] for p in mixed}
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            if p in mixed:
                intervals[p].append((starts[i], ends[i]))
            else:
                covered[p] += ends[i] - starts[i]
        overlap = 0.0
        for p, spans in intervals.items():
            spans.sort()
            total = union = 0.0
            cur_s, cur_e = spans[0]
            for s, e in spans:
                total += e - s
                if s > cur_e:
                    union += cur_e - cur_s
                    cur_s, cur_e = s, e
                elif e > cur_e:
                    cur_e = e
            union += cur_e - cur_s
            covered[p] = union
            overlap += total - union
        per_name: dict = {}
        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        roots = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            nid = self.name_idx[i]
            name = self.names[nid]
            entry = per_name.get(name)
            if entry is None:
                entry = per_name[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durs": []}
            own = dur - covered[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += own
            if name in keep_durations:
                entry["durs"].append(dur)
            layer_self[self.layer_of[nid]] += own
            if parents[i] < 0:
                roots += dur
        return {
            "per_name": per_name,
            "layer_self_s": layer_self,
            "bench_s": wall_s - roots + layer_self.pop("bench"),
            "overlap_s": overlap,
            "wall_s": wall_s,
            "spans": n,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line: [name, start, end, parent index,
        game id]; times are perf_counter seconds."""
        names, games = self.names, self.game_names
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                g = self.games[i]
                row = [names[self.name_idx[i]], self.starts[i], self.ends[i], self.parents[i],
                       games[g] if g >= 0 else None]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _prompt_span(spec, *args, **kwargs) -> str:
    return f"players.build_prompt.{spec.history_format}"


def _note_prompt(tracer, messages, *args, **kwargs) -> None:
    tracer.note("prompt_bytes", sum(len(m.content.encode()) for m in messages))
    tracer.note("prompts")


def _note_attempts(tracer, result, *args, **kwargs) -> None:
    _move, attempts, _transcript = result
    tracer.note("attempts", len(attempts))
    tracer.note("first_attempt_ok", attempts[0].outcome == players.OK)


def _note_pool_size(tracer, result, pool, *args, **kwargs) -> None:
    tracer.note("sample_opponent_pool", len(pool))


def _note_cache_get(tracer, result, *args, **kwargs) -> None:
    tracer.note("cache_hits", result is not None)


def _note_game_bytes(tracer, path, *args, **kwargs) -> None:
    tracer.note("game_bytes", path.stat().st_size)


def _game_of_call(white, black, cfg, seed, game_id=None):
    return game_id


def _game_of_record(record, *args, **kwargs):
    return record.game_id
