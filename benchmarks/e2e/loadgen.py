"""Closed-loop HTTP load generator and the statistics it reports.

Callers of the query service are sessions that wait for each reply, so
the loop is closed: every client owns one persistent HTTP/1.1
connection and sends its next operation only after the previous one
completed.  Operations come from one shared dispenser, which is what
keeps two clients from having the same query in flight together (with
``cache_ttl_s=0`` single-flight would coalesce them and hide work).

The connection is left exactly as ``http.client`` opens it: no socket
option is set, because the keep-alive idle the server's two small
writes cause (README, Findings 1) is a cost real sessions pay.
"""

from __future__ import annotations

import http.client
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Mark", "Metric", "Sample", "get", "median_of", "percentile",
           "quiet_of", "run_closed_loop"]

Metric = Tuple[float, str, int]  # value, unit, sample count


@dataclass
class Sample:
    """One executed operation, kept for verification after the clock stops."""

    op: object
    start: float
    end: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Mark(NamedTuple):
    """The wall and the process's CPU clock, read together."""

    wall: float
    cpu: float


def percentile(values: Sequence[float], share: float) -> float:
    """The *share* quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_of(values: Sequence[float], unit: str = "ms") -> Metric:
    """A reported median with its unit and sample count."""
    return statistics.median(values), unit, len(values)


#: the quantile of a run's rounds that is reported: the lower quartile
QUIET_SHARE = 0.25


def quiet_of(values: Sequence[float], unit: str = "ms") -> Metric:
    """The lower quartile of per-round timings, with unit and count.

    A neighbour on a shared machine nearly always adds time to a round,
    so the quiet rounds show the program and the others the neighbour;
    the lower quartile stays on the quiet ones until three rounds in four
    are disturbed, where a median gives way at two in four.
    """
    return percentile(values, QUIET_SHARE), unit, len(values)


def get(
    connection: http.client.HTTPConnection, path: str
) -> Tuple[float, float, int, bytes]:
    """One GET on *connection*: (start, end, status, body)."""
    start = time.perf_counter()
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    return start, time.perf_counter(), response.status, body


def run_closed_loop(
    connect: Callable[[], http.client.HTTPConnection],
    ops: Iterator[object],
    clients: int,
    seconds: float,
    execute: Callable[[http.client.HTTPConnection, object], Sample],
    round_len: int,
) -> Tuple[List[Sample], List[Mark]]:
    """Drive whole rounds of *round_len* operations from the endless
    stream *ops* through *clients* sessions until *seconds* have passed.

    Returns the samples in dispatch order and the clock readings taken as
    the first operation of each round was handed out, plus one after the
    last operation completed: round ``r`` is ``samples[r * round_len:
    (r + 1) * round_len]`` and lasted from ``marks[r]`` to ``marks[r + 1]``.
    A round is started only before the deadline and always completed, so
    every round has the same mix of operations.
    """
    lock = threading.Lock()
    slots: List[Optional[Sample]] = []
    marks: List[Mark] = []
    errors: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def take() -> Optional[Tuple[int, object]]:
        with lock:
            if len(slots) % round_len == 0:
                if time.perf_counter() >= deadline:
                    return None
                marks.append(Mark(time.perf_counter(), time.process_time()))
            slots.append(None)
            return len(slots) - 1, next(ops)

    def client() -> None:
        connection = connect()
        try:
            while True:
                taken = take()
                if taken is None:
                    return
                index, op = taken
                slots[index] = execute(connection, op)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, name=f"e2e-client-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    marks.append(Mark(time.perf_counter(), time.process_time()))
    if errors:
        raise errors[0]
    return [s for s in slots if s is not None], marks
