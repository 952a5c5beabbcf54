"""Records shared by the harness and the workloads."""

from typing import Callable, NamedTuple


class Job(NamedTuple):
    """One user-level query: ``fn()`` runs it and returns its output."""

    label: str
    fn: Callable


class Failed(NamedTuple):
    """The output of a job that raised."""

    error: str
    message: str
