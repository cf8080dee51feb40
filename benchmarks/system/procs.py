"""Child-process ownership for the system benchmark.

Every process the benchmark starts is spawned here, in its own session
(so anything a daemon forks shares its daemon's process group),
with a parent-death signal (so a benchmark killed outright takes its
children along), and pinned to one CPU.  :meth:`Children.close`
SIGKILLs every group that is still alive, reaps what it can, waits
until no live member of any group remains, and unlinks the sockets it
was given: orphaned processes from a killed run would otherwise slow
every later run.

Why one CPU: the load generator, the daemon and the stream consumer
take turns (one closed-loop client; the stream mix runs in lockstep),
so they never need two CPUs at once.  Left free, each request crosses
between two virtual CPUs, and on a shared host how long a sleeping
virtual CPU takes to wake varies with the host's load.  On a 2-vCPU
host, eight alternating 30 s serve-small runs gave a p95 spread of 31%
unpinned and 6% pinned.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import socket
import subprocess
import time
from typing import Dict, List, Set

_PR_SET_PDEATHSIG = 1


def bench_cpu() -> Set[int]:
    """The CPU every child runs on: the highest-numbered usable one
    (interrupts favour CPU 0)."""
    return {max(os.sched_getaffinity(0))}


def _child_setup(cpus: Set[int]) -> None:  # runs in the child before exec
    os.sched_setaffinity(0, cpus)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def _processes():
    """``(pid, state, ppid, pgid)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ')'.
        state, ppid, pgid = stat[stat.rfind(")") + 2:].split()[:3]
        yield int(entry), state, int(ppid), int(pgid)


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    return [pid for pid, state, _, group in _processes()
            if group == pgid and state != "Z"]


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (any process a daemon forked)."""
    return [child for child, _, ppid, _ in _processes() if ppid == pid]


def vm_hwm_kib(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of a live process, KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def shm_segments() -> set:
    """Names of the shared-memory segments the engine creates."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


class Children:
    """Owns every child process and socket path of one benchmark run."""

    def __init__(self, root: str, env: Dict[str, str]) -> None:
        self.root = root
        self.env = env
        self.cpus = bench_cpu()
        self.procs: List[subprocess.Popen] = []
        self.sockets: List[str] = []
        #: peak RSS (KiB) of children reaped with :meth:`reap`.
        self.reaped_hwm: Dict[int, int] = {}

    def spawn(self, argv: List[str], log_path: str, **kwargs) -> subprocess.Popen:
        cpus = self.cpus
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=kwargs.pop("stdout", log),
                stderr=log,
                start_new_session=True,
                preexec_fn=lambda: _child_setup(cpus),
                **kwargs,
            )
        self.procs.append(proc)
        return proc

    def own_socket(self, path: str) -> str:
        self.sockets.append(path)
        return path

    def reap(self, proc: subprocess.Popen, timeout: float) -> int:
        """Wait for ``proc`` to exit and record its peak RSS.

        ``wait4`` hands back the child's rusage, whose ``ru_maxrss`` is
        the same high-water mark ``VmHWM`` reports while it lives.
        """
        deadline = time.monotonic() + timeout
        while proc.returncode is None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.reaped_hwm[proc.pid] = usage.ru_maxrss
                break
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"pid {proc.pid} ({proc.args[:4]}) did not exit "
                    f"within {timeout:.0f}s"
                )
            time.sleep(0.01)
        return proc.returncode

    def kill_group(self, proc: subprocess.Popen, timeout: float = 10.0) -> None:
        """SIGKILL ``proc``'s whole group and wait until it is gone."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            try:
                self.reap(proc, timeout)
            except (TimeoutError, ChildProcessError):
                pass
        deadline = time.monotonic() + timeout
        while group_members(proc.pid) and time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)

    def close(self) -> List[int]:
        """Kill whatever is left; returns pids that had to be killed."""
        killed = []
        for proc in self.procs:
            live = group_members(proc.pid)
            if proc.returncode is None or live:
                killed.extend(live or [proc.pid])
                self.kill_group(proc)
        for path in self.sockets:
            try:
                os.unlink(path)
            except OSError:
                pass
        return killed


def request(path: str, req: dict, timeout: float = 120.0) -> dict:
    """One JSON request over a daemon's Unix socket (one per connection)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall((json.dumps(req) + "\n").encode())
        buf = bytearray()
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(bytes(buf))


def first_request(
    path: str, req: dict, proc: subprocess.Popen, timeout: float = 60.0
) -> dict:
    """Send ``req`` as soon as the daemon behind ``path`` listens.

    Retrying the real request (rather than probing with an empty
    connection, which the daemon counts as a transport error) keeps
    the time from spawn to first answer exact to the retry interval.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return request(path, req)
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if proc.poll() is not None:
            raise RuntimeError(
                f"{proc.args[:4]} exited with {proc.returncode} before "
                f"listening on {path}"
            )
        if time.monotonic() >= deadline:
            raise TimeoutError(f"nothing listening on {path}")
        time.sleep(0.005)
