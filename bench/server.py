"""Life cycle of one ``serve`` subprocess: boot, readiness, peak RSS, shutdown."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

_BANNER = re.compile(r"serving corpus .* on http://([0-9.]+):(\d+)")

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class ServerDied(RuntimeError):
    """The server process exited while the benchmark still needed it."""


class Server:
    """A running ``python -m repro.cli serve`` process.

    Server stdout (one access-log line per request) goes to a file in the
    run's temporary directory, never to a pipe: nobody drains a pipe during
    the load phases, and once its buffer fills the server blocks on the
    access log.

    ``spans_out`` starts the server through :mod:`bench.traced_serve`, which
    records timing spans and writes them to that file on shutdown.
    """

    def __init__(
        self,
        repo: Path,
        snapshot: Path,
        flags: Sequence[str],
        log_path: Path,
        spans_out: Optional[Path] = None,
    ) -> None:
        serve_args: List[str] = [
            "serve", "--snapshot", str(snapshot), "--port", "0", *flags,
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [
                sys.executable, "-m", "bench.traced_serve",
                "--spans-out", str(spans_out), "--", *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), str(repo)])
        # `serve` stops cleanly only on SIGINT.  A shell that starts this
        # process in the background ignores SIGINT, and an ignored signal
        # stays ignored in every child: handle it here, so the child starts
        # with the default disposition.
        if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
            signal.signal(signal.SIGINT, signal.default_int_handler)
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=repo, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.port = 0
        self.setup_seconds = 0.0

    @property
    def pid(self) -> int:
        return self.process.pid

    def check_alive(self) -> None:
        code = self.process.poll()
        if code is not None:
            raise ServerDied(f"server exited with code {code}; log tail:\n{self.log_tail()}")

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_ready(self, probe_path: str) -> float:
        """Wait for the banner, then for a ``200`` from ``probe_path``.

        Returns the set-up time: spawn to the first ``200``.
        """
        deadline = self.started + BOOT_TIMEOUT
        while not self.port:
            self.check_alive()
            match = _BANNER.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                self.port = int(match.group(2))
                break
            if time.perf_counter() > deadline:
                raise ServerDied(f"no serve banner within {BOOT_TIMEOUT:.0f} s")
            time.sleep(0.005)
        while True:
            self.check_alive()
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                try:
                    connection.request("GET", probe_path)
                    response = connection.getresponse()
                    response.read()
                    status = response.status
                finally:
                    connection.close()
            except OSError:
                status = 0
            if status == 200:
                self.setup_seconds = time.perf_counter() - self.started
                return self.setup_seconds
            if time.perf_counter() > deadline:
                raise ServerDied(f"{probe_path} did not answer 200 within {BOOT_TIMEOUT:.0f} s")
            time.sleep(0.005)

    def memory_mb(self, field: str) -> float:
        """``field`` (``VmRSS``, ``VmHWM``) of the server process, read from outside."""
        status = Path(f"/proc/{self.pid}/status").read_text(encoding="utf-8")
        match = re.search(rf"^{field}:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise ServerDied(f"{field} missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self, kill: bool = False) -> int:
        """Interrupt the server (clean ``KeyboardInterrupt`` shutdown) and reap it.

        ``kill`` skips the clean shutdown, for servers booted only to time set-up.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL if kill else signal.SIGINT)
                try:
                    self.process.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            return self.process.returncode
        finally:
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
