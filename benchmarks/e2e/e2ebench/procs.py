"""Child processes and scratch directories of one benchmark run.

Everything the run starts or creates is owned by an object here whose
``close`` undoes it, so a failing check or a Ctrl-C leaves no server
child and no scratch directory behind.  The run ends by asserting
exactly that (:meth:`Children.assert_reaped`).
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"

__all__ = ["HERE", "ROOT", "SRC", "Children", "Server", "WorkDir",
           "child_env", "one_cpu", "vm_hwm_mib"]


def child_env() -> dict[str, str]:
    """Environment for ``python`` children: the parent's plus ``src``."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


@contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process, and with it every child it starts, to one CPU.

    A request to the server is a chain of thread hand-offs (client ->
    connection thread -> engine -> WAL committer -> back).  On this
    2-vCPU VM a hand-off to a thread on the *other* CPU costs ~55 us more
    than one on the same CPU (a `lookup` round trip: 33 us against
    89 us), and where the kernel spreads the threads changes from one
    server process to the next: ten `serve-mixed` runs left to the
    scheduler read 4.8k-6.4k requests/s, the next one 14.8k.  On one CPU
    a hand-off is always a context switch, and the numbers are the cost
    of the code.  Nothing measured here runs two things at once: every
    workload is a closed loop with one request in flight.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class WorkDir:
    """A scratch directory inside the checkout, removed on exit.

    The benchmark reads and writes only inside its checkout, so inputs,
    WAL and snapshot directories live under ``benchmarks/e2e/.work/``
    (ignored by git), never under ``/tmp`` or ``/dev/shm``.
    """

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no other run is live
        except OSError:
            pass


@dataclass
class Server:
    """One ``python -m repro serve`` child, booted and addressable."""

    proc: subprocess.Popen
    host: str
    port: int
    #: ``perf_counter`` just before the child was spawned.
    spawned_at: float


class Children:
    """Every child process of the run; ``close`` reaps them all."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        # A plain SIGTERM would skip every ``finally``; turn it into an
        # exception so children and scratch dirs are cleaned up.
        self._old_term = signal.signal(
            signal.SIGTERM, lambda signum, frame: sys.exit(143))
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.close()
        finally:
            signal.signal(signal.SIGTERM, self._old_term)

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                                **kwargs)
        self._procs.append(proc)
        return proc

    def run(self, argv: list[str], *, timeout: float = 120.0) -> str:
        """Run a child to completion; returns its stdout, raises on
        a non-zero exit."""
        proc = self.spawn(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc)
            raise RuntimeError(f"child {argv[:4]} exceeded {timeout}s")
        if proc.returncode != 0:
            raise RuntimeError(
                f"child {argv[:4]} exited {proc.returncode}: {err[-2000:]}")
        return out

    def start_server(self, graph_path: Path, state_dir: Path,
                     log_path: Path, extra: list[str],
                     *, boot_timeout: float = 60.0) -> Server:
        """Spawn the placement server and wait for its address line."""
        argv = [sys.executable, "-m", "repro", "serve", str(graph_path),
                "--graph-cache", "--snapshot-dir", str(state_dir), *extra]
        with open(log_path, "wb") as log:
            spawned_at = time.perf_counter()
            proc = self.spawn(argv, stdout=subprocess.PIPE, stderr=log)
        ready, _, _ = select.select([proc.stdout], [], [], boot_timeout)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            self.stop(proc)
            raise RuntimeError(
                f"server did not boot (said {line!r}); log:\n"
                + log_path.read_text(errors="replace")[-2000:])
        host, _, port = line.split()[-1].rpartition(":")
        return Server(proc, host, int(port), spawned_at)

    def stop(self, proc: subprocess.Popen, *, timeout: float = 20.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL; always waits."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdout, proc.stderr, proc.stdin):
            if pipe is not None:
                pipe.close()
        return proc.returncode

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            self.stop(proc)

    def assert_reaped(self) -> None:
        """Fail loudly if any child of this run is still alive."""
        alive = [p.pid for p in self._procs if p.returncode is None]
        if alive:
            raise RuntimeError(f"child processes outlived the run: {alive}")
