"""Competitive chess arena for automated players: rules kernel, Glicko
ratings with convergence-optimal pairing, UCI engine analysis, play-mode
prompting, match orchestration, and fine-grained evaluation tasks."""

__version__ = "0.1.0"


class UserError(ValueError):
    """An input the operator gave is at fault: a config, a flag, or a file
    that does not parse. Raised where the fault is found; the CLI prints it
    and exits 1."""

    @classmethod
    def at(cls, path, line: int, exc: Exception) -> "UserError":
        """The error for line `line` of the file at `path`, which raised `exc`."""
        return cls(f"{path}:{line}: {type(exc).__name__}: {exc}")
