"""Stdlib HTTP client for the compilation service.

Used between fabric nodes, as the base of
:class:`~repro.fabric.client.FabricClient`, and by the service tests; no
dependencies beyond ``http.client``.  Connections are **kept alive** and
reused across requests (one pool per thread, so a multi-threaded soak driver
never shares a socket), with ``TCP_NODELAY`` set so small JSON requests
don't stall on Nagle/delayed-ACK.  Transient connection resets — the
server recycling an idle keep-alive socket, a node restarting — are
retried with jittered exponential backoff before surfacing as
:class:`ServiceError`.

All methods raise :class:`ServiceError` on transport failures or
non-2xx responses, with two refinements:

* 202 is "result not ready yet" (returned, not raised);
* 429 raises :class:`ServiceOverloadError` carrying the server's
  ``Retry-After`` hint — load shedding is an explicit signal to the
  caller, never silently retried.

Redirects (307 from a fabric node that doesn't own a job) are followed
transparently, which makes this plain client work against a sharded
fabric front end; :class:`repro.fabric.client.FabricClient` avoids the
extra hop by routing on the ring directly.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.jobs import JobSpec

_REDIRECT_CODES = (301, 302, 307, 308)
_MAX_REDIRECTS = 4


class ServiceError(Exception):
    """Transport or protocol failure talking to the service."""


class ServiceOverloadError(ServiceError):
    """The server shed the request (HTTP 429).

    Attributes:
        retry_after: the server's suggested backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClient:
    """Talks JSON to a fabric node (:class:`~repro.fabric.node.FabricNode`).

    Args:
        url: base URL, e.g. ``http://127.0.0.1:8642``.
        timeout: per-request socket timeout in seconds.
        retries: extra attempts after a connection reset/refusal.
        backoff: base retry delay; doubles per attempt, with jitter.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._pool = threading.local()  # netloc -> HTTPConnection, per thread

    # -- transport ---------------------------------------------------------

    def _connections(self) -> Dict[str, http.client.HTTPConnection]:
        pool = getattr(self._pool, "conns", None)
        if pool is None:
            pool = self._pool.conns = {}
        return pool

    def _connection(self, netloc: str) -> http.client.HTTPConnection:
        pool = self._connections()
        conn = pool.get(netloc)
        if conn is None:
            conn = http.client.HTTPConnection(netloc, timeout=self.timeout)
            conn.connect()
            try:
                conn.sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                pass
            pool[netloc] = conn
        return conn

    def _drop(self, netloc: str) -> None:
        conn = self._connections().pop(netloc, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _roundtrip(
        self, netloc: str, method: str, path: str, data: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = self._connection(netloc)
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        resp_headers = {k.lower(): v for k, v in resp.getheaders()}
        if resp.will_close:
            self._drop(netloc)
        return resp.status, resp_headers, raw

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        base: Optional[str] = None,
        _hops: int = 0,
    ) -> Dict[str, Any]:
        base = (base or self.url).rstrip("/")
        netloc = urllib.parse.urlsplit(base).netloc
        method = "GET" if body is None else "POST"
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        status = headers = raw = None
        for attempt in range(self.retries + 1):
            try:
                status, headers, raw = self._roundtrip(
                    netloc, method, path, data
                )
                break
            except (OSError, http.client.HTTPException) as exc:
                # Connection reset/refused, stale keep-alive socket, or a
                # half-written response: drop the pooled connection and
                # retry with jittered backoff.
                self._drop(netloc)
                if attempt >= self.retries:
                    raise ServiceError(
                        "cannot reach %s: %s" % (base, exc)
                    )
                time.sleep(
                    self.backoff
                    * (2 ** attempt)
                    * (0.5 + random.random())
                )
        if status in _REDIRECT_CODES and _hops < _MAX_REDIRECTS:
            location = headers.get("location")
            if location:
                split = urllib.parse.urlsplit(location)
                new_base = "%s://%s" % (
                    split.scheme or "http",
                    split.netloc or netloc,
                )
                new_path = split.path + (
                    "?" + split.query if split.query else ""
                )
                return self._request(
                    new_path, body=body, base=new_base, _hops=_hops + 1
                )
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            payload = {}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        payload["_http_status"] = status
        if status == 202:  # result not ready: not an error
            return payload
        if status == 429:
            try:
                retry_after = float(headers.get("retry-after", "1"))
            except ValueError:
                retry_after = 1.0
            raise ServiceOverloadError(
                "%s shed %s (retry after %.1fs)"
                % (base, path, retry_after),
                retry_after=retry_after,
            )
        if not 200 <= (status or 0) < 300:
            raise ServiceError(
                "HTTP %s on %s: %s"
                % (status, path, payload.get("error", ""))
            )
        return payload

    def close(self) -> None:
        """Close this thread's pooled connections."""
        for netloc in list(self._connections()):
            self._drop(netloc)

    # -- endpoints ---------------------------------------------------------

    def health(self) -> bool:
        return bool(self._request("/healthz").get("ok"))

    def metrics(self) -> Dict[str, Any]:
        return self._request("/v1/metrics")

    def submit(self, specs: Sequence[JobSpec]) -> List[str]:
        body = {"jobs": [spec.to_dict() for spec in specs]}
        return self._request("/v1/submit", body)["ids"]

    def _job_request(self, job_id: str, path: str) -> Dict[str, Any]:
        """GET a per-job route (a routing hook for subclasses)."""
        return self._request(path)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._job_request(job_id, "/v1/jobs/%s" % job_id)

    def result(
        self,
        job_id: str,
        wait: bool = True,
        poll: float = 0.1,
        timeout: Optional[float] = 120.0,
    ) -> Dict[str, Any]:
        """The job's result wrapper; polls until done when ``wait``.

        Returns the server's ``/result`` payload: ``{"state": "done",
        "from_store": ..., "result": {...}}``.  Raises ServiceError if
        the job failed or the wait timed out.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            payload = self._job_request(
                job_id, "/v1/jobs/%s/result" % job_id
            )
            if payload.get("_http_status") != 202:
                if payload.get("state") != "done":
                    raise ServiceError(
                        "job %s %s: %s"
                        % (job_id, payload.get("state"), payload.get("error"))
                    )
                return payload
            if not wait:
                return payload
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError("timed out waiting for job %s" % job_id)
            time.sleep(poll)

    def shutdown(self) -> None:
        self._request("/v1/shutdown", body={})

    # -- convenience -------------------------------------------------------

    def run_batch(
        self,
        specs: Sequence[JobSpec],
        poll: float = 0.1,
        timeout: Optional[float] = 300.0,
    ) -> List[Dict[str, Any]]:
        """Submit a batch and wait for every result (in submit order)."""
        ids = self.submit(specs)
        return [
            self.result(job_id, poll=poll, timeout=timeout) for job_id in ids
        ]
