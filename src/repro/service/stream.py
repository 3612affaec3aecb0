"""Crash-safe SSE fan-out: per-job event rings with monotonic ids.

PR 5's SSE streamer generated frames independently per connection: a
dropped TCP connection lost its place in the stream, and every watcher
re-derived state transitions on its own.  This module makes the event
*history* a first-class, shared object:

* every job owns one bounded :class:`EventRing`;
* events (window samples, state changes, the terminal summary) are
  published into the ring exactly once, with monotonically increasing
  integer ids — publication is idempotent because the ring tracks
  per-source high-water marks, so any number of concurrently polling
  watchers can drive it without duplicating frames;
* each SSE connection is a cursor over the ring.  Frames carry an
  ``id:`` field, so a client that reconnects with the standard
  ``Last-Event-ID`` header replays exactly the missed window — across
  connection drops and even across watchers (N watchers of one running
  job read one ring: the fan-out mirror of the queue's N-submissions →
  1-simulation coalescing);
* the ring is bounded (``maxlen``).  A reconnect that asks for events
  older than the ring's tail gets a ``gap`` event naming how many
  frames were evicted, then the surviving window — bounded memory, no
  silent loss.

Everything here runs on the daemon's event loop (watchers are asyncio
handlers), so the ring needs no locking; the only cross-thread read is
a running job's window list, which the worker tier's collector thread
appends to as the worker streams windows over the pool pipe.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.service.jobs import Job
    from repro.sim.report import SimReport

#: Default ring capacity (events, not bytes). 512 events comfortably
#: hold the telemetry of a full streamed run at the default window.
DEFAULT_RING_EVENTS = 512


class EventRing:
    """Bounded, id-stamped event history of one job."""

    def __init__(self, maxlen: int = DEFAULT_RING_EVENTS) -> None:
        if maxlen < 1:
            raise ValueError("ring maxlen must be >= 1")
        self.maxlen = maxlen
        #: (id, event name, JSON-ready payload), oldest first.
        self._events: deque[tuple[int, str, dict]] = deque(maxlen=maxlen)
        self._next_id = 1
        #: Events evicted by the bound (for gap reporting).
        self.dropped = 0
        # Publication high-water marks (what has already been ringed).
        self._windows_published = 0
        self._last_state: Optional[str] = None
        self.terminal_published = False

    # ------------------------------------------------------------------
    def append(self, event: str, data: dict) -> int:
        """Publish one event; returns its id."""
        event_id = self._next_id
        self._next_id += 1
        if len(self._events) == self.maxlen:
            self.dropped += 1
        self._events.append((event_id, event, data))
        return event_id

    @property
    def first_id(self) -> int:
        """Id of the oldest retained event (0 when empty)."""
        return self._events[0][0] if self._events else 0

    @property
    def last_id(self) -> int:
        """Id of the newest event (0 when none were ever published)."""
        return self._next_id - 1

    def since(self, last_seen: int) -> list[tuple[int, str, dict]]:
        """Every retained event with id > ``last_seen``, oldest first."""
        return [e for e in self._events if e[0] > last_seen]

    def lost_before(self, last_seen: int) -> int:
        """Events a cursor at ``last_seen`` can no longer replay."""
        if not self._events:
            return 0
        return max(0, self.first_id - last_seen - 1)

    # ------------------------------------------------------------------
    def sync(
        self,
        job: "Job",
        execution: Optional["Job"] = None,
        load_report: Optional[Callable[[], Optional["SimReport"]]] = None,
    ) -> None:
        """Publish whatever the job has produced since the last sync.

        Idempotent and shared: every watcher calls this from its poll
        loop; the high-water marks guarantee each window sample, state
        change, and the terminal summary enter the ring exactly once,
        no matter how many watchers race (they all run on the one event
        loop, so there is no true concurrency to defend against — only
        repetition).

        ``execution`` is the job actually carrying the simulation when
        ``job`` is a coalesced follower — window samples stream from the
        primary's :attr:`~repro.service.jobs.Job.windows` while
        state/terminal events stay the follower's own.

        ``load_report`` decodes the finished job's report. It is called
        once, when the terminal event is published: the report's
        timeline completes the windows and its figures fill the
        terminal summary. A ring whose terminal event is out publishes
        nothing more.
        """
        if self.terminal_published:
            return
        report = None
        if job.terminal and load_report is not None:
            report = load_report()
        if report is not None and report.timeline is not None:
            samples = report.timeline.samples
        else:
            samples = (execution or job).windows
        # One slice: the collector thread may append to a running
        # job's list meanwhile.
        fresh = samples[self._windows_published:]
        for sample in fresh:
            self.append("window", sample.to_dict())
        self._windows_published += len(fresh)
        state = job.state.value
        if state != self._last_state:
            self._last_state = state
            self.append("state", job.to_public_dict())
        if job.terminal:
            self.terminal_published = True
            summary: dict = {
                "id": job.id,
                "state": state,
                "cached": job.cached,
                "windows": self._windows_published,
                "error": job.error,
            }
            if report is not None:
                summary["metrics"] = {
                    "ipc": report.ipc,
                    "activations": report.activations,
                    "row_energy_nj": report.row_energy_nj,
                    "coverage": report.coverage,
                    "elapsed_mem_cycles": report.elapsed_mem_cycles,
                }
            self.append(state, summary)


def sse_frame(event_id: int, event: str, data_json: str) -> bytes:
    """One wire-format SSE frame with its replayable id."""
    return (
        f"id: {event_id}\nevent: {event}\ndata: {data_json}\n\n"
    ).encode("utf-8")


__all__ = ["DEFAULT_RING_EVENTS", "EventRing", "sse_frame"]
