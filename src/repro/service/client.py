"""Client for the simulation-service daemon (stdlib ``http.client``).

:class:`ServiceClient` speaks the small JSON protocol of
:mod:`repro.service.server`: submit :class:`~repro.sim.spec.SimSpec`
jobs, poll status, block until done, iterate the SSE telemetry stream,
and read service stats. It backs the ``repro-harness submit|status|watch``
subcommands and is the programmatic surface sweep scripts use::

    from repro.service import ServiceClient
    from repro.sim.spec import SimSpec

    client = ServiceClient(port=8732)
    job = client.submit("SCP", spec=SimSpec(scheduler=dyn_dms()),
                        scale=0.25)
    report = client.wait_for_report(job["id"])

Every call opens a fresh connection (the daemon is ``Connection:
close``), so a client object is cheap, stateless, and thread-safe to
share across a submitting thread pool.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Callable, Iterator, Optional
from urllib.parse import quote

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    ServiceBusyError,
    ServiceError,
)
from repro.sim.report import SimReport
from repro.sim.spec import SimSpec

#: Hard ceiling on one busy-retry sleep, jitter included.
MAX_RETRY_SLEEP = 30.0


class ServiceClient:
    """Thin JSON/HTTP client for one daemon endpoint.

    ``rng`` drives the retry jitter (an injectable
    :class:`random.Random` keeps tests deterministic).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8732,
        *,
        timeout: float = 60.0,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    def _busy_delay(self, retry_after: float) -> float:
        """The server's Retry-After hint, jittered and capped.

        Full jitter in ``[hint/2, hint]`` decorrelates a fleet of
        clients that were all refused in the same overload burst —
        without it they would re-dogpile the daemon exactly in step.
        The cap keeps a pathological hint from stalling a sweep for
        minutes.
        """
        hint = max(0.0, float(retry_after))
        jittered = hint / 2.0 + self.rng.random() * (hint / 2.0)
        return min(jittered, MAX_RETRY_SLEEP)

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> tuple[int, dict, dict]:
        """One round trip; returns (status, response headers, JSON body)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                document = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                document = {"error": raw.decode("utf-8", "replace")}
            return (
                response.status,
                dict(response.getheaders()),
                document,
            )
        finally:
            conn.close()

    @staticmethod
    def _retry_after_of(headers: dict, doc: dict, default: float) -> float:
        try:
            return float(
                doc.get("retry_after")
                or headers.get("Retry-After", default)
            )
        except (TypeError, ValueError):
            return default

    @classmethod
    def _raise_for(cls, status: int, headers: dict, doc: dict) -> None:
        message = doc.get("error", f"HTTP {status}")
        if status == 429 or status == 503:
            raise ServiceBusyError(
                message,
                retry_after=cls._retry_after_of(headers, doc, 1.0),
            )
        if status == 422:
            raise CircuitOpenError(
                message,
                retry_after=cls._retry_after_of(headers, doc, 60.0),
                last_error=(doc.get("breaker") or {}).get("last_error"),
            )
        if status == 400:
            raise ConfigError(message)
        if status >= 400:
            raise ServiceError(f"{message} (HTTP {status})")

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The daemon's liveness document."""
        status, headers, doc = self._request("GET", "/v1/healthz")
        self._raise_for(status, headers, doc)
        return doc

    def stats(self) -> dict:
        """Service counters, queue occupancy, and cache snapshot."""
        status, headers, doc = self._request("GET", "/v1/stats")
        self._raise_for(status, headers, doc)
        return doc

    # ------------------------------------------------------------------
    def experiments(self, **filters: Any) -> list[dict]:
        """Warehouse experiment rows, optionally filtered.

        Keyword filters (``app=``, ``scheme=``, ``device=``, ``ecc=``,
        ``seed=``) become query-string parameters; the server rejects
        unknown ones with 400 (:class:`~repro.errors.ConfigError` here).
        """
        pairs = [
            f"{quote(name)}={quote(str(value))}"
            for name, value in sorted(filters.items())
            if value is not None
        ]
        path = "/v1/experiments"
        if pairs:
            path += "?" + "&".join(pairs)
        status, headers, doc = self._request("GET", path)
        self._raise_for(status, headers, doc)
        return doc.get("experiments", [])

    def experiment(self, content_key: str) -> dict:
        """One flattened experiment row (full report blob included)."""
        status, headers, doc = self._request(
            "GET", f"/v1/experiments/{content_key}"
        )
        self._raise_for(status, headers, doc)
        return doc

    def experiments_summary(self) -> dict:
        """The warehouse aggregate summary — the exact
        ``ExperimentResults.summary()`` document the CLI render uses."""
        status, headers, doc = self._request(
            "GET", "/v1/experiments/summary"
        )
        self._raise_for(status, headers, doc)
        return doc

    # ------------------------------------------------------------------
    def submit(
        self,
        app: str,
        *,
        spec: Optional[SimSpec | dict] = None,
        scale: float = 1.0,
        seed: int = 7,
        priority: int = 0,
        retry_busy: int = 0,
    ) -> dict:
        """Submit one job; returns the server's job document.

        ``retry_busy`` re-submits up to N times on 429/503, sleeping a
        *jittered* fraction of the server's ``Retry-After`` hint between
        tries (capped at :data:`MAX_RETRY_SLEEP`) — the polite way to
        drive a sweep into a bounded queue without every refused
        client re-dogpiling the daemon in step.
        """
        if spec is None:
            spec_doc: dict = {}
        elif isinstance(spec, SimSpec):
            spec_doc = spec.to_dict()
        else:
            spec_doc = spec
        payload = {
            "app": app,
            "scale": scale,
            "seed": seed,
            "priority": priority,
            "spec": spec_doc,
        }
        attempts_left = max(0, retry_busy)
        while True:
            status, headers, doc = self._request(
                "POST", "/v1/jobs", payload
            )
            if status in (429, 503) and attempts_left > 0:
                attempts_left -= 1
                self._sleep(self._busy_delay(
                    self._retry_after_of(headers, doc, 1.0)
                ))
                continue
            self._raise_for(status, headers, doc)
            job = doc.get("job", {})
            job["outcome"] = doc.get("outcome")
            return job

    def job(self, job_id: str) -> dict:
        """Current status document of one job (result included when done)."""
        status, headers, doc = self._request("GET", f"/v1/jobs/{job_id}")
        self._raise_for(status, headers, doc)
        return doc

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job."""
        status, headers, doc = self._request(
            "POST", f"/v1/jobs/{job_id}/cancel"
        )
        self._raise_for(status, headers, doc)
        return doc

    def shutdown(self, *, drain: bool = True) -> dict:
        """Ask the daemon to stop (draining queued jobs first by default)."""
        status, headers, doc = self._request(
            "POST", "/v1/shutdown", {"drain": drain}
        )
        self._raise_for(status, headers, doc)
        return doc

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        *,
        poll_seconds: float = 0.1,
        timeout: float = 600.0,
    ) -> dict:
        """Block until the job is terminal; returns the final document."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc.get("state") in ("done", "failed", "cancelled"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc.get('state')!r} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_seconds)

    def wait_for_report(
        self,
        job_id: str,
        *,
        poll_seconds: float = 0.1,
        timeout: float = 600.0,
    ) -> SimReport:
        """Like :meth:`wait` but decodes the result into a SimReport.

        Raises :class:`~repro.errors.ServiceError` when the job failed
        or was cancelled (the failure record rides in the message).
        """
        doc = self.wait(
            job_id, poll_seconds=poll_seconds, timeout=timeout
        )
        if doc.get("state") != "done":
            error = doc.get("error") or {}
            raise ServiceError(
                f"job {job_id} {doc.get('state')}: "
                f"{error.get('error_type', '?')}: "
                f"{error.get('message', '')}"
            )
        result = doc.get("result")
        if result is None:
            raise ServiceError(
                f"job {job_id} is done but its result is no longer "
                "cached on the server"
            )
        return SimReport.from_dict(result)

    # ------------------------------------------------------------------
    def events(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        last_event_id: Optional[int] = None,
    ) -> Iterator[tuple[str, Any]]:
        """Iterate the job's SSE stream as ``(event, data)`` pairs.

        The stream ends when the server closes it (after the terminal
        event); ``data`` is JSON-decoded when possible, and id-stamped
        frames get their id attached as ``data["event_id"]`` (dict
        payloads only).  Pass ``last_event_id`` — the highest
        ``event_id`` seen before a dropped connection — to reconnect
        and replay exactly the missed window (the standard SSE
        ``Last-Event-ID`` header; see :meth:`watch` for the loop that
        does this automatically).
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            headers = {}
            if last_event_id is not None:
                headers["Last-Event-ID"] = str(last_event_id)
            conn.request(
                "GET", f"/v1/jobs/{job_id}/events", headers=headers
            )
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    doc = {"error": raw.decode("utf-8", "replace")}
                self._raise_for(response.status, {}, doc)
            event = "message"
            event_id: Optional[int] = None
            data_lines: list[str] = []
            for raw_line in response:
                line = raw_line.decode("utf-8").rstrip("\r\n")
                if line == "":
                    if data_lines:
                        data = "\n".join(data_lines)
                        try:
                            payload = json.loads(data)
                        except json.JSONDecodeError:
                            payload = data
                        if event_id is not None \
                                and isinstance(payload, dict):
                            payload["event_id"] = event_id
                        yield event, payload
                    event = "message"
                    event_id = None
                    data_lines = []
                elif line.startswith("id:"):
                    try:
                        event_id = int(line[len("id:"):].strip())
                    except ValueError:
                        event_id = None
                elif line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
        finally:
            conn.close()

    def watch(
        self,
        job_id: str,
        *,
        timeout: float = 600.0,
        max_reconnects: int = 10,
    ) -> Iterator[tuple[str, Any]]:
        """Like :meth:`events` but survives dropped connections.

        Tracks the stream's event ids and, when the TCP connection dies
        mid-run, reconnects with ``Last-Event-ID`` so the iteration
        resumes exactly where it stopped — no duplicated and no lost
        frames (unless the server's bounded ring evicted them, which
        surfaces as a ``gap`` event).  The server closes a stream only
        after the job's terminal frame, so a stream that ends before it
        counts as dropped too.
        """
        last_id: Optional[int] = None
        finished = False
        reconnects = 0
        while not finished:
            try:
                for event, data in self.events(
                    job_id, timeout=timeout, last_event_id=last_id
                ):
                    if isinstance(data, dict) \
                            and "event_id" in data:
                        last_id = data["event_id"]
                    yield event, data
                    if event in ("done", "failed", "cancelled"):
                        finished = True
                if not finished:
                    raise ConnectionError(
                        "event stream ended before the job finished"
                    )
            except (ConnectionError, http.client.HTTPException, OSError):
                if finished:
                    return
                if reconnects >= max_reconnects:
                    raise
                reconnects += 1
