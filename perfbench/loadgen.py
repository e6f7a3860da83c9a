"""The serve daemon as a subprocess, and an open-loop load generator.

The generator is one thread multiplexing a few pipelined NDJSON
connections with ``selectors``: each frame is written when its
scheduled time comes, whether or not earlier replies have arrived, and
each reply's latency is measured from the frame's *intended* send time,
so a stall in the daemon is charged to every request it delays.  How
late the generator itself ran is recorded per request.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import ROOT, program_env


class DaemonError(RuntimeError):
    pass


def _connect(sock_path: str, deadline: float, proc) -> socket.socket:
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(sock_path)
            return sock
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            if proc.poll() is not None:
                raise DaemonError(f"daemon exited with {proc.returncode} "
                                  "before listening")
            if time.perf_counter() > deadline:
                raise DaemonError("daemon did not listen in time")
            time.sleep(0.01)


class Connection:
    """One blocking-at-handshake, then pipelined, daemon connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.hello = self.read_frame()

    def read_frame(self) -> dict:
        while b"\n" not in self.inbuf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise DaemonError("daemon closed the connection")
            self.inbuf += chunk
        line, _, rest = bytes(self.inbuf).partition(b"\n")
        self.inbuf = bytearray(rest)
        return json.loads(line)

    def request(self, frame: dict) -> dict:
        """Blocking request/reply (set-up, warm query, stats)."""
        self.sock.sendall(json.dumps(frame).encode() + b"\n")
        reply = self.read_frame()
        if reply.get("id") != frame["id"]:
            raise DaemonError(f"reply {reply.get('id')!r} for {frame['id']!r}")
        return reply

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """``bfhrf serve start`` over a store, on a unix socket in the checkout."""

    def __init__(self, store_dir: Path, sock_path: Path, log_path: Path,
                 extra_args: list[str]):
        self.sock_path = str(sock_path.relative_to(ROOT))
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start",
             str(store_dir), "--addr", f"unix://{self.sock_path}",
             *extra_args],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def connect(self, timeout: float = 60.0) -> Connection:
        sock = _connect(self.sock_path, time.perf_counter() + timeout,
                        self.proc)
        sock.settimeout(timeout)
        return Connection(sock)

    def stop(self) -> None:
        """Ask for a drain over the socket; kill if it does not exit."""
        if self.proc.poll() is None:
            try:
                conn = self.connect(timeout=10.0)
                conn.request({"id": "stop", "op": "shutdown"})
                conn.close()
            except (OSError, DaemonError, ValueError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    index: int
    intended: float
    sent: float = 0.0
    replied: float | None = None
    reply: dict | None = field(default=None, repr=False)
    latency_ref: float = 0.0   # latency in reference-machine seconds

    @property
    def latency(self) -> float:
        return self.replied - self.intended

    @property
    def rtt(self) -> float:
        return self.replied - self.sent


def run_open_loop(conns: list[Connection], frames: list[bytes], schedule,
                  stretch: float,
                  drain_s: float) -> tuple[list[Outcome], float, float]:
    """Send ``frames[i]`` at ``schedule[i].due * stretch`` on its connection.

    Returns the per-request outcomes (``replied`` is None for requests
    still unanswered ``drain_s`` after the last send), the load's start
    (time zero of the schedule) and the time of the last reply.  Frames
    carry their schedule index as the request id.
    """
    sel = selectors.DefaultSelector()
    for i, conn in enumerate(conns):
        conn.sock.setblocking(False)
        sel.register(conn.sock, selectors.EVENT_READ, i)
    outcomes = [Outcome(i, a.due * stretch) for i, a in enumerate(schedule)]
    start = time.perf_counter() + 0.05
    for outcome in outcomes:
        outcome.intended += start
    pending = 0
    nxt = 0
    last_reply = start
    deadline = None
    try:
        while nxt < len(frames) or pending:
            now = time.perf_counter()
            while nxt < len(frames) and outcomes[nxt].intended <= now:
                conns[schedule[nxt].conn].outbuf += frames[nxt]
                outcomes[nxt].sent = now
                pending += 1
                nxt += 1
            for i, conn in enumerate(conns):
                if conn.outbuf:
                    try:
                        sent = conn.sock.send(conn.outbuf)
                        del conn.outbuf[:sent]
                    except BlockingIOError:
                        pass
                sel.modify(conn.sock, selectors.EVENT_READ
                           | (selectors.EVENT_WRITE if conn.outbuf else 0), i)
            if nxt == len(frames):
                if deadline is None:
                    deadline = now + drain_s
                if now > deadline:
                    break
            wait = 0.05 if nxt == len(frames) else \
                max(0.0, min(0.05, outcomes[nxt].intended - now))
            for key, mask in sel.select(wait):
                if not mask & selectors.EVENT_READ:
                    continue
                conn = conns[key.data]
                try:
                    chunk = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise DaemonError("daemon closed a load connection")
                conn.inbuf += chunk
                if b"\n" not in chunk:
                    continue
                stamp = time.perf_counter()
                *lines, rest = bytes(conn.inbuf).split(b"\n")
                conn.inbuf = bytearray(rest)
                for line in lines:
                    reply = json.loads(line)
                    rid = reply.get("id")
                    if not isinstance(rid, int) or not 0 <= rid < len(outcomes):
                        raise DaemonError(f"reply for unknown request {rid!r}")
                    outcome = outcomes[rid]
                    outcome.replied, outcome.reply = stamp, reply
                    pending -= 1
                    last_reply = stamp
    finally:
        for conn in conns:
            sel.unregister(conn.sock)
            conn.sock.setblocking(True)
        sel.close()
    return outcomes, start, last_reply
