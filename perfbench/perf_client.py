"""Keep-alive HTTP client and the closed-loop load generator.

Real clients keep their connection open between requests, so every client
here holds one persistent ``http.client`` connection and times each request
from just before the send until the whole body has been read.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import urlsplit

REQUEST_TIMEOUT_S = 60.0


class Client:
    """One persistent HTTP/1.1 connection to a server."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S
        )

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self._conn.close()

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes, float]:
        """``(status, body, seconds)`` for one request on the open connection."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
        return response.status, data, elapsed

    def post_json(self, path: str, doc: Any) -> tuple[int, bytes, float]:
        return self.request("POST", path, json.dumps(doc).encode("utf-8"))

    def get_json(self, path: str) -> tuple[int, Any]:
        status, data, _ = self.request("GET", path)
        return status, json.loads(data.decode("utf-8"))

    def get_text(self, path: str) -> tuple[int, str]:
        status, data, _ = self.request("GET", path)
        return status, data.decode("utf-8")


@dataclass
class Sample:
    """One timed request: which job it ran and what came back."""

    job: Any
    status: int
    body: bytes
    seconds: float
    error: str | None = None


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    wall_seconds: float = 0.0


def closed_loop(
    targets: list[list[str]],
    jobs: list[list[Any]],
    send: Callable[[list[Client], Any], tuple[int, bytes, float]],
    seconds: float,
    min_requests: int = 0,
) -> LoopResult:
    """Run one closed-loop client thread per entry of ``targets``.

    Client ``i`` holds one keep-alive connection to each URL in
    ``targets[i]``, cycles through ``jobs[i]`` and sends its next request
    only after the previous reply has arrived.  The loop keeps going past
    the deadline until ``min_requests`` requests have completed in total, so
    a slow workload still yields its fixed evaluation prefix.  Throughput is
    completed requests over ``wall_seconds``.
    """
    result = LoopResult()
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def worker(urls: list[str], client_jobs: list[Any]) -> None:
        clients = [Client(url) for url in urls]
        index = 0
        try:
            while True:
                with lock:
                    done = len(result.samples)
                if time.perf_counter() >= deadline and done >= min_requests:
                    return
                job = client_jobs[index % len(client_jobs)]
                index += 1
                try:
                    status, body, elapsed = send(clients, job)
                    sample = Sample(job, status, body, elapsed)
                except (OSError, http.client.HTTPException) as exc:
                    sample = Sample(job, 0, b"", 0.0, error=repr(exc))
                    for client in clients:
                        client.close()  # reconnects on the next request
                with lock:
                    result.samples.append(sample)
        finally:
            for client in clients:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(urls, client_jobs), daemon=True)
        for urls, client_jobs in zip(targets, jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - started
    return result
