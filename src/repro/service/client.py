"""A stdlib client for the validation daemon.

:class:`ServiceClient` wraps ``http.client`` with the service's JSON
contract, one connection per call (``Connection: close``), and a
retry loop that knows the daemon's three transient states:

* **429** (admission queue full) sleeps for the server's
  ``Retry-After`` hint — the daemon knows its own backlog better than
  any client-side guess;
* **503** (draining) and **connection errors** (daemon restarting, or
  not up yet) back off exponentially with jitter — ``backoff_base``
  doubled per attempt, capped at 2 s, multiplied by a random factor in
  [0.5, 1.0) so a fleet of pollers doesn't reconnect in lockstep.
  The jitter comes from the client's *own* ``random.Random`` instance
  (seedable via ``backoff_seed``), never the process-global generator:
  retry timing stays deterministic in tests (including forked
  test processes) and a client can't perturb application-level seeding;
* everything stops at ``max_retries`` attempts *or* ``max_elapsed``
  seconds, whichever comes first — then the last connection error
  re-raises as-is (callers already handle ``OSError``) and 429/503
  surface as :class:`ServiceUnavailable`.

This is what lets a job poller ride out a SIGTERM → restart cycle of
the daemon instead of failing its first poll into the gap.
"""

from __future__ import annotations

import http.client
import json
import random
import time

from repro.service.protocol import JudgeRequest, ValidateOptions, ValidateRequest


class ServiceError(RuntimeError):
    """Non-2xx response from the daemon."""

    def __init__(self, status: int, message: str, body: dict | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body or {}


class ServiceUnavailable(ServiceError):
    """429 after exhausting retries, or 503 while draining."""


class ServiceClient:
    """Talk to one running daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8347,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        max_elapsed: float = 15.0,
        backoff_seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.max_elapsed = max_elapsed
        # a private RNG: `random.Random(None)` still self-seeds from the
        # OS, so production jitter stays independent across processes,
        # while an explicit seed makes the backoff sequence replayable
        self._backoff_rng = random.Random(backoff_seed)

    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def validate(
        self,
        sources: dict[str, str],
        flavor: str = "acc",
        judge: str = "direct",
        early_exit: bool = True,
        backend: str = "closure",
    ) -> dict:
        """Validate named sources; returns the verdict payload."""
        request = ValidateRequest(
            files=tuple(sources.items()),
            options=ValidateOptions(
                flavor=flavor, judge=judge, early_exit=early_exit, backend=backend
            ),
        )
        return self._request("POST", "/v1/validate", request.to_dict())

    def judge(
        self,
        name: str,
        source: str,
        flavor: str = "acc",
        judge: str = "direct",
        backend: str = "closure",
        report: dict | None = None,
    ) -> dict:
        request = JudgeRequest(
            name=name, source=source, flavor=flavor, judge=judge,
            backend=backend, report=report,
        )
        return self._request("POST", "/v1/judge", request.to_dict())

    # -- durable jobs --------------------------------------------------

    def submit_job(self, kind: str, spec: dict) -> dict:
        """Submit a campaign/experiment job; returns its journal record."""
        return self._request("POST", "/v1/jobs", {"kind": kind, "spec": spec})

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job_artifacts(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}/artifacts")

    def wait_for_job(self, job_id: str, timeout: float = 600.0,
                     poll: float = 0.25) -> dict:
        """Poll until the job reaches a terminal state (done/failed).

        ``checkpointed`` is *not* terminal — it means the daemon
        stopped (or is restarting) with the job resumable, so the wait
        keeps polling; the connection-error retry in :meth:`_request`
        rides out the restart gap itself.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.get("state") in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.get('state')!r} after {timeout}s"
                )
            time.sleep(poll)

    # ------------------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        attempts = 0
        started = time.monotonic()

        def may_retry() -> bool:
            return (
                attempts < self.max_retries
                and time.monotonic() - started < self.max_elapsed
            )

        while True:
            try:
                status, headers, payload = self._roundtrip(method, path, body)
            except (OSError, http.client.HTTPException):
                # includes ConnectionError and socket timeouts: the
                # daemon is down, restarting, or mid-accept — ride it
                # out, then re-raise the last failure unchanged
                if not may_retry():
                    raise
                attempts += 1
                time.sleep(self._backoff(attempts))
                continue
            if status == 429 and may_retry():
                attempts += 1
                time.sleep(_retry_after(headers, payload))
                continue
            if status == 503 and may_retry():
                attempts += 1
                time.sleep(self._backoff(attempts))
                continue
            if 200 <= status < 300:
                return payload
            message = payload.get("error", "") if isinstance(payload, dict) else ""
            if status in (429, 503):
                raise ServiceUnavailable(status, message or "service unavailable", payload)
            raise ServiceError(status, message or "request failed", payload)

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with jitter for attempt N (1-based)."""
        ceiling = min(2.0, self.backoff_base * (2 ** (attempt - 1)))
        return ceiling * (0.5 + self._backoff_rng.random() / 2)

    def _roundtrip(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, dict, dict]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            encoded = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"Connection": "close"}
            if encoded is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                payload = {"error": raw.decode("utf-8", "replace")}
            return response.status, dict(response.headers), payload
        finally:
            connection.close()


def _retry_after(headers: dict, payload: dict) -> float:
    """The server's backoff hint (header first, body fallback)."""
    for source in (headers.get("Retry-After"), payload.get("retry_after")):
        try:
            if source is not None:
                return max(0.05, float(source))
        except (TypeError, ValueError):
            continue
    return 0.5
