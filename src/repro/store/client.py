"""Retrying multi-endpoint HTTP client for the campaign service.

The ROADMAP's remote-store client: several serve nodes share one cache,
and the client treats the service's failure vocabulary as a protocol,
not as exceptions to crash on.  Stdlib ``urllib`` only.

* every request carries a **connect/read timeout**;
* a client may hold **several endpoints** (a list of serve nodes over
  one store).  Within a retry round the endpoints are tried in order:
  a connection failure or retryable HTTP error **fails over** to the
  next endpoint immediately (no backoff inside a round), so a
  SIGKILLed node costs one connect attempt, not a request failure;
* each endpoint has a tiny **circuit breaker**: ``cb_threshold``
  consecutive failures open it for ``cb_cooldown`` seconds, during
  which it is skipped entirely; when every endpoint is open they are
  all probed anyway (half-open) rather than failing without trying;
* transient failures -- connection refused/reset, request timeouts,
  and any response whose structured body says ``"retryable": true``
  (503 overload, 504 deadline, 5xx) -- are retried across rounds with
  **exponential backoff plus deterministic-injectable jitter**;
* a 503's **``Retry-After``** header is honored (capped) instead of the
  computed backoff, so a draining or saturated server paces its own
  retry traffic;
* terminal failures raise :class:`RemoteStoreError` carrying the HTTP
  status and the parsed structured body, immediately -- a 400 is the
  same answer from every replica, so no failover can fix it.

``sleep``, ``rand`` and ``clock`` are injectable so tests drive the
retry schedule and breaker cool-downs without wall-clock waits.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Sequence

from ..core.errors import CampaignError

DEFAULT_TIMEOUT_S = 10.0
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_S = 0.25
DEFAULT_BACKOFF_CAP_S = 8.0
DEFAULT_JITTER = 0.25
DEFAULT_RETRY_AFTER_CAP_S = 30.0

#: consecutive endpoint failures before its circuit opens
DEFAULT_CB_THRESHOLD = 3
#: seconds an open endpoint is skipped before being probed again
DEFAULT_CB_COOLDOWN_S = 10.0


class RemoteStoreError(CampaignError):
    """A service request failed past all retries (or terminally)."""

    def __init__(self, message: str, status: int | None = None, payload: Any = None):
        super().__init__(message)
        self.status = status
        self.payload = payload


class _Retryable(Exception):
    """Internal: one endpoint attempt failed in a retryable way."""

    def __init__(self, detail: str, retry_after: str | None = None,
                 status: int | None = None, payload: Any = None):
        super().__init__(detail)
        self.detail = detail
        self.retry_after = retry_after
        self.status = status
        self.payload = payload


class StoreClient:
    """Retrying JSON client over one or more serve-node endpoints."""

    def __init__(
        self,
        endpoints: str | Sequence[str],
        timeout: float = DEFAULT_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = DEFAULT_BACKOFF_S,
        backoff_cap: float = DEFAULT_BACKOFF_CAP_S,
        jitter: float = DEFAULT_JITTER,
        retry_after_cap: float = DEFAULT_RETRY_AFTER_CAP_S,
        cb_threshold: int = DEFAULT_CB_THRESHOLD,
        cb_cooldown: float = DEFAULT_CB_COOLDOWN_S,
        sleep: Callable[[float], None] = time.sleep,
        rand: Callable[[], float] = random.random,
        clock: Callable[[], float] = time.monotonic,
    ):
        if isinstance(endpoints, str):
            endpoints = [endpoints]
        if not endpoints:
            raise CampaignError("StoreClient needs at least one endpoint")
        self.endpoints = [e.rstrip("/") for e in endpoints]
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.retry_after_cap = retry_after_cap
        self.cb_threshold = cb_threshold
        self.cb_cooldown = cb_cooldown
        self._sleep = sleep
        self._rand = rand
        self._clock = clock
        self._lock = threading.Lock()
        self._fails = {e: 0 for e in self.endpoints}  # consecutive failures
        self._open_until = {e: 0.0 for e in self.endpoints}
        # ---- telemetry (read by tests and callers)
        self.attempts = 0  # lifetime HTTP attempts
        self.failovers = 0  # answers served by a non-first endpoint

    @property
    def base_url(self) -> str:
        """The first (preferred) endpoint, for single-node callers."""
        return self.endpoints[0]

    # ------------------------------------------------------------ breakers
    def _note_ok(self, endpoint: str) -> None:
        with self._lock:
            self._fails[endpoint] = 0
            self._open_until[endpoint] = 0.0

    def _note_fail(self, endpoint: str) -> None:
        with self._lock:
            self._fails[endpoint] += 1
            if self._fails[endpoint] >= self.cb_threshold:
                self._open_until[endpoint] = self._clock() + self.cb_cooldown

    def _available(self) -> list[str]:
        """Endpoints whose circuit is closed; all of them when every
        circuit is open (half-open probing beats certain failure)."""
        now = self._clock()
        with self._lock:
            closed = [e for e in self.endpoints if self._open_until[e] <= now]
        return closed or list(self.endpoints)

    def endpoint_state(self) -> dict[str, dict]:
        now = self._clock()
        with self._lock:
            return {
                e: {
                    "consecutive_failures": self._fails[e],
                    "open": self._open_until[e] > now,
                    "retry_in_s": max(0.0, self._open_until[e] - now),
                }
                for e in self.endpoints
            }

    # ------------------------------------------------------------ plumbing
    def _delay(self, attempt: int, retry_after: str | None) -> float:
        if retry_after is not None:
            try:
                return min(float(retry_after), self.retry_after_cap)
            except ValueError:
                pass
        base = min(self.backoff * 2**attempt, self.backoff_cap)
        return base * (1.0 + self.jitter * self._rand())

    def _try_endpoint(self, endpoint: str, path: str, method: str,
                      body: bytes | None, content_type: str) -> Any:
        """One HTTP attempt against one endpoint.

        Returns the parsed payload; raises :class:`_Retryable` for
        failures another endpoint or a later round may fix, and
        :class:`RemoteStoreError` for terminal ones.
        """
        url = f"{endpoint}/{path.lstrip('/')}"
        with self._lock:
            self.attempts += 1
        req = urllib.request.Request(url, data=body, method=method)
        if body is not None:
            req.add_header("Content-Type", content_type)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                out = json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                payload = {"error": "OpaqueError", "message": raw[:200].decode(
                    "utf-8", errors="replace"), "retryable": exc.code >= 500}
            detail = f"HTTP {exc.code}: {payload.get('message', '')}"
            if not bool(payload.get("retryable", exc.code >= 500)):
                # terminal: every replica would answer the same -- no
                # failover, no retry, and the endpoint is not at fault
                raise RemoteStoreError(
                    f"{method} {url} failed: {detail}",
                    status=exc.code, payload=payload,
                ) from None
            self._note_fail(endpoint)
            raise _Retryable(
                detail, retry_after=exc.headers.get("Retry-After"),
                status=exc.code, payload=payload,
            ) from None
        except (urllib.error.URLError, socket.timeout, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            self._note_fail(endpoint)
            raise _Retryable(f"{type(exc).__name__}: {reason}") from None
        self._note_ok(endpoint)
        return out

    def request(self, path: str, method: str = "GET", body: bytes | None = None,
                content_type: str = "text/plain") -> Any:
        """One JSON request with failover + retries; parsed payload."""
        last: _Retryable | None = None
        connection_only = True
        for attempt in range(self.max_retries + 1):
            for pos, endpoint in enumerate(self._available()):
                try:
                    out = self._try_endpoint(endpoint, path, method, body, content_type)
                except _Retryable as exc:
                    last = exc
                    connection_only = connection_only and exc.status is None
                    continue
                if pos > 0:
                    with self._lock:
                        self.failovers += 1
                return out
            if attempt >= self.max_retries:
                break
            self._sleep(self._delay(attempt, last.retry_after if last else None))
        assert last is not None
        where = self.endpoints[0] if len(self.endpoints) == 1 else (
            f"all {len(self.endpoints)} endpoints"
        )
        if connection_only:
            raise RemoteStoreError(
                f"{method} {where}/{path.lstrip('/')} unreachable after "
                f"{self.max_retries + 1} attempts: {last.detail}"
            )
        raise RemoteStoreError(
            f"{method} {where}/{path.lstrip('/')} failed: {last.detail}",
            status=last.status, payload=last.payload,
        )

    # --------------------------------------------------------- convenience
    def healthz(self) -> dict:
        return self.request("healthz")

    def readyz(self) -> dict:
        return self.request("readyz")

    def stats(self) -> dict:
        return self.request("stats")

    def campaigns(self) -> list[dict]:
        return self.request("campaigns")

    def campaign(self, design: str, threshold: float | None = None,
                 verdict: str | None = None) -> dict:
        return self.request(f"campaigns/{design}{_query(threshold, verdict)}")

    def faults(self, design: str, threshold: float | None = None,
               verdict: str | None = None) -> list[dict]:
        return self.request(f"campaigns/{design}/faults{_query(threshold, verdict)}")

    def validate_design(self, text: str, fmt: str = "bench") -> dict:
        return self.request(
            f"designs/validate?format={fmt}",
            method="POST",
            body=text.encode("utf-8"),
        )


def _query(threshold: float | None, verdict: str | None) -> str:
    params = []
    if threshold is not None:
        params.append(f"threshold={threshold}")
    if verdict is not None:
        params.append(f"verdict={verdict}")
    return "?" + "&".join(params) if params else ""
