"""Multi-process serving: a supervisor forking N daemon workers.

One :class:`ServeSupervisor` turns the single-process
:class:`~repro.serve.daemon.ServeDaemon` into a worker pool behind the
*same* endpoints (``bfhrf serve start --procs N``):

* **TCP endpoints** are bound independently by every worker with
  ``SO_REUSEPORT`` (the worker config sets
  :attr:`~repro.serve.daemon.ServeConfig.reuse_port`), so the kernel
  load-balances incoming connections across workers and a crashed
  worker's listener disappears without taking the port down.
* **Unix endpoints** cannot be double-bound, so the supervisor binds
  each path once, marks the listening socket inheritable, and every
  forked worker accepts on the inherited socket — the kernel again
  spreads accepts across the workers blocked on it.  The socket (and
  the path) live in the supervisor, which is why a SIGKILLed worker
  never leaves a dead unix listener behind.

Each worker is a full daemon: it opens the store read-only itself,
tails the journal independently, and applies its own admission control.
Workers therefore share nothing but listening sockets — a worker crash
loses only its in-flight connections, and clients reconnect into the
survivors within one backoff budget.

A worker whose supervisor disappears (even by SIGKILL, which leaves no
chance to signal the pool) notices on its next journal-tail tick that
its parent pid changed, drains and exits — the pool never outlives its
supervisor by more than one ``tail_interval_s`` plus the drain.

Supervision policy: a worker that exits **cleanly** (status 0) did so
because a client asked the daemon to shut down — the supervisor treats
that as a request to stop the whole pool and SIGTERMs the rest.  A
worker that dies any other way (signal, nonzero exit) is respawned
after a short backoff; workers that keep dying within
:data:`MIN_WORKER_UPTIME_S` of spawning trip a crash-loop guard after
:data:`MAX_CRASH_STRIKES` consecutive strikes, tearing the pool down
with a loud :class:`~repro.util.errors.ServeError` instead of spinning.

Requires :func:`os.fork`; TCP endpoints additionally require
``SO_REUSEPORT`` when ``n_procs > 1`` (both are present on Linux and
macOS).  An ephemeral ``tcp://host:0`` endpoint is rejected for
``n_procs > 1`` — each worker would bind a different port.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.serve.daemon import ServeConfig, ServeDaemon, prepare_socket_path
from repro.serve.endpoint import Endpoint
from repro.util.errors import ServeError

__all__ = ["ServeSupervisor", "MIN_WORKER_UPTIME_S", "MAX_CRASH_STRIKES"]

# A worker dying sooner than this after spawn counts as a crash-loop
# strike; living longer resets the strike count.
MIN_WORKER_UPTIME_S = 1.0
MAX_CRASH_STRIKES = 5

_LISTEN_BACKLOG = 128


class ServeSupervisor:
    """Fork-and-respawn supervision for a pool of serve daemons."""

    def __init__(self, store_dir: str | os.PathLike, config: ServeConfig,
                 *, n_procs: int,
                 log: Callable[[str], None] | None = None):
        if not hasattr(os, "fork"):
            raise ServeError(
                "multi-process serving requires os.fork (POSIX only)")
        if n_procs < 1:
            raise ServeError(f"--procs must be >= 1, got {n_procs}")
        tcp_endpoints = [ep for ep in config.endpoints if ep.kind == "tcp"]
        if tcp_endpoints and n_procs > 1:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise ServeError(
                    "multi-process TCP serving requires SO_REUSEPORT, "
                    "which this platform lacks")
            for ep in tcp_endpoints:
                if ep.port == 0:
                    raise ServeError(
                        f"{ep}: an ephemeral port cannot be shared across "
                        "workers — each would bind its own; pick a port")
        self.store_dir = os.fspath(store_dir)
        self.config = config
        self.n_procs = n_procs
        self.respawns = 0
        self._log = log
        # Workers double-bind TCP endpoints, so they need SO_REUSEPORT on.
        self._worker_config = (replace(config, reuse_port=True)
                               if tcp_endpoints else config)
        self._prebound: dict[Endpoint, socket.socket] = {}
        self._owned_paths: list[Path] = []
        self._children: dict[int, float] = {}   # pid -> spawn time
        self._stopping = False

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # -- listener setup ------------------------------------------------------

    def _prebind_unix(self) -> None:
        """Bind every unix endpoint once; workers inherit the sockets."""
        for ep in self.config.endpoints:
            if ep.kind != "unix":
                continue
            path = Path(ep.path)
            prepare_socket_path(path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(ep.path)
                sock.listen(_LISTEN_BACKLOG)
                os.chmod(path, self.config.socket_mode)
                sock.set_inheritable(True)
            except BaseException:
                sock.close()
                with contextlib.suppress(OSError):
                    path.unlink()
                raise
            self._prebound[ep] = sock
            self._owned_paths.append(path)

    def _cleanup_listeners(self) -> None:
        for sock in self._prebound.values():
            with contextlib.suppress(OSError):
                sock.close()
        self._prebound.clear()
        for path in self._owned_paths:
            with contextlib.suppress(OSError):
                path.unlink()
        self._owned_paths.clear()

    # -- worker lifecycle ----------------------------------------------------

    def _spawn_worker(self) -> int:
        supervisor_pid = os.getpid()
        pid = os.fork()
        if pid == 0:
            # Worker process: shed the supervisor's handlers (the daemon
            # installs its own graceful-drain ones) and serve forever.
            status = 0
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                daemon = ServeDaemon(self.store_dir, self._worker_config,
                                     prebound_sockets=self._prebound,
                                     parent_pid=supervisor_pid)
                daemon.run()
            except BaseException:
                traceback.print_exc()
                status = 1
            finally:
                # Never fall back into the supervisor's stack frames.
                os._exit(status)
        self._children[pid] = time.monotonic()
        return pid

    def _signal_children(self, sig: int) -> None:
        for pid in list(self._children):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)

    def _begin_stop(self) -> None:
        if not self._stopping:
            self._stopping = True
            self._signal_children(signal.SIGTERM)

    # -- main loop -----------------------------------------------------------

    def run(self, *, on_ready: Callable[[], None] | None = None) -> None:
        """Bind, fork ``n_procs`` workers, and supervise until stopped.

        Returns after a clean stop (signal, or a worker honouring a
        client ``shutdown`` request); raises :class:`ServeError` if the
        pool crash-loops.
        """
        self._stopping = False
        self._prebind_unix()
        installed: list[tuple[int, object]] = []
        in_main_thread = (threading.current_thread()
                         is threading.main_thread())
        crash_error: ServeError | None = None
        try:
            for _ in range(self.n_procs):
                self._spawn_worker()
            self._say(f"supervisor pid {os.getpid()}: {self.n_procs} "
                      f"worker(s) on "
                      f"{', '.join(str(ep) for ep in self.config.endpoints)}")
            if in_main_thread:
                def _on_signal(signum, frame):
                    self._begin_stop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    installed.append((sig, signal.signal(sig, _on_signal)))
            if on_ready is not None:
                on_ready()
            strikes = 0
            while self._children:
                try:
                    pid, status = os.waitpid(-1, 0)
                except ChildProcessError:
                    self._children.clear()
                    break
                spawned_at = self._children.pop(pid, None)
                if spawned_at is None:
                    continue  # not ours (shouldn't happen)
                if self._stopping:
                    continue  # expected exits during teardown
                if os.waitstatus_to_exitcode(status) == 0:
                    # A clean exit means a client asked the daemon to
                    # shut down; honour it pool-wide.
                    self._say(f"worker {pid} shut down on request; "
                              "stopping the pool")
                    self._begin_stop()
                    continue
                uptime = time.monotonic() - spawned_at
                if uptime < MIN_WORKER_UPTIME_S:
                    strikes += 1
                else:
                    strikes = 0
                if strikes >= MAX_CRASH_STRIKES:
                    crash_error = ServeError(
                        f"worker crash-loop: {strikes} consecutive workers "
                        f"died within {MIN_WORKER_UPTIME_S}s of spawning")
                    self._begin_stop()
                    continue
                time.sleep(min(0.05 * (2 ** strikes), 1.0))
                if self._stopping:
                    continue  # a stop raced the backoff sleep
                new_pid = self._spawn_worker()
                self.respawns += 1
                self._say(f"worker {pid} died (status {status}); "
                          f"respawned as {new_pid}")
        finally:
            self._begin_stop()
            while self._children:
                try:
                    pid, _ = os.waitpid(-1, 0)
                except ChildProcessError:
                    break
                self._children.pop(pid, None)
            for sig, previous in installed:
                with contextlib.suppress(Exception):
                    signal.signal(sig, previous)
            self._cleanup_listeners()
        if crash_error is not None:
            raise crash_error
        self._say("supervisor stopped")
