"""The benchmark under `perfbench/` wraps public chessarena names by their
attribute names. Installing its tracer here makes a rename or removal of any
of them fail the test suite, not only a benchmark run."""

import sys
from pathlib import Path

import chessarena.arena as arena

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_tracer_installs_over_every_bound_name():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    original = arena.RandomPlayer.__dict__["choose"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert arena.RandomPlayer.__dict__["choose"] is not original
    finally:
        tracer.uninstall()
    assert arena.RandomPlayer.__dict__["choose"] is original
