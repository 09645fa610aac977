"""Start, probe and stop ``repager serve`` / ``repager route`` child processes.

Servers run exactly as a user starts them: ``python -m repro.repager.cli``
with the package on ``PYTHONPATH``.  Each child logs to a file in the run's
work directory; its URL is read from the line the CLI prints once it is
listening, which happens only after warm-up (serve) or bootstrap (route).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from perf_client import Client

_URL_LINE = re.compile(r" on (http://[0-9.]+:[0-9]+) \(")

#: Upper bound on one server start (cold warm-up of the 8k corpus takes ~4 s).
START_TIMEOUT_S = 120.0


class FleetError(RuntimeError):
    """A child process failed to start, become ready or stop."""


@dataclass
class Process:
    label: str
    popen: subprocess.Popen
    log_path: Path
    url: str = ""

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child (peak resident set), in MiB."""
        status = Path(f"/proc/{self.popen.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise FleetError(f"{self.label}: no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


class Fleet:
    """Every child process of one benchmark run; :meth:`stop_all` ends them."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.processes: list[Process] = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = str(root / "src")
        # Eviction snapshots go to tempfile's directory: keep them in the run.
        self._env["TMPDIR"] = str(workdir)
        self._count = 0

    def spawn(self, label: str, cli_args: list[str]) -> Process:
        self._count += 1
        log_path = self.workdir / f"{self._count:02d}-{label}.log"
        with log_path.open("wb") as log:
            popen = subprocess.Popen(
                [sys.executable, "-m", "repro.repager.cli", *cli_args],
                cwd=self.root,
                env=self._env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        process = Process(label, popen, log_path)
        self.processes.append(process)
        return process

    def wait_listening(self, process: Process) -> str:
        """Block until the child prints its URL; returns it."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _URL_LINE.search(process.log_path.read_text(errors="replace"))
            if match is not None:
                process.url = match.group(1)
                return process.url
            if process.popen.poll() is not None:
                raise FleetError(
                    f"{process.label} exited with {process.popen.returncode}:\n"
                    + process.log_tail()
                )
            time.sleep(0.005)
        raise FleetError(f"{process.label} did not start:\n" + process.log_tail())

    def stop(self, process: Process) -> None:
        """SIGINT (the CLI's orderly shutdown), then SIGKILL after 10 s."""
        if process.popen.poll() is None:
            process.popen.send_signal(signal.SIGINT)
            try:
                process.popen.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.popen.kill()
                process.popen.wait()
        if process in self.processes:
            self.processes.remove(process)

    def stop_all(self) -> None:
        for process in list(reversed(self.processes)):
            self.stop(process)


def serve_args(
    corpora: dict[str, Path], default: str, *extra: str
) -> list[str]:
    args = ["serve", "--port", "0", "--default-corpus", default, *extra]
    for name, directory in corpora.items():
        args += ["--corpus", f"{name}={directory}"]
    return args


def replica_ready(url: str, corpora: list[str]) -> bool:
    """Aggregate ``/healthz``: every corpus warmed, or evicted by the limit."""
    with Client(url) as client:
        status, doc = client.get_json("/healthz")
    if status != 200:
        return False
    resident = doc.get("corpora", {})
    evicted = set(doc.get("evicted_corpora", ()))
    return all(
        name in evicted or resident.get(name, {}).get("warmed") for name in corpora
    )


def router_ready(url: str, corpora: list[str]) -> dict[str, str] | None:
    """The router's placements once every corpus is placed on a warm replica."""
    with Client(url) as client:
        status, doc = client.get_json("/healthz")
    if status != 200 or doc.get("status") != "ok":
        return None
    placements = doc.get("placements", {})
    if sorted(placements) != sorted(corpora):
        return None
    for name, replica in placements.items():
        if not replica_ready(replica, [name]):
            return None
    return placements
