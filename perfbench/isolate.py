"""Run one benchmark item in a child process, under limits the library cannot see.

Each item gets a fresh child: a fork that calls into the library, or a fork
that execs the command-line program.  The child runs under a wall-time limit
and an address-space cap (RLIMIT_AS); the parent kills it outright if it is
still alive past the limit plus a grace period, and reads its peak RSS from
wait4.  Forking per item also means no item can profit from caches that an
earlier item left behind in the parent.
"""
from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
from dataclasses import dataclass

GRACE_S = 2.0  # time a forked child gets after its limit to report and exit


class ItemTimeout(Exception):
    """Raised inside a forked child when its wall-time limit expires."""


@dataclass
class Child:
    status: int  # exit code, negative for a signal (os.waitstatus_to_exitcode)
    output: bytes
    maxrss_kb: int
    wall: float  # spawn to reap, seen from the parent
    killed: bool


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _await(pid: int, fd: int, t0: float, deadline: float) -> Child:
    chunks, killed = [], False
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 and not killed:
            os.kill(pid, signal.SIGKILL)
            killed = True
        ready, _, _ = select.select([fd], [], [], 1.0 if killed else left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Child(os.waitstatus_to_exitcode(status), b"".join(chunks), usage.ru_maxrss, wall, killed)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def call_forked(call, report, limit_s: float, cap_bytes: int, prepare=None) -> tuple[dict, Child]:
    """Run call() in a forked child and return (reply, child).

    The child runs prepare() if given, then times call() alone.  The reply
    holds "outcome" ("ok", "timeout", "memory" or the name of the exception
    raised), "wall" in seconds, and whatever report(outcome, value) adds;
    report runs after the clock stops.  A child that dies before replying
    yields outcome "killed" or "died".
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(r)
        try:
            resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
            if prepare is not None:
                prepare()
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            value = None
            start = time.perf_counter()
            try:
                value = call()
                outcome = "ok"
            except ItemTimeout:
                outcome = "timeout"
            except MemoryError:
                outcome = "memory"
            except Exception as e:  # any library failure is an outcome, not a crash
                outcome = type(e).__name__
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            reply = {"outcome": outcome, "wall": wall}
            reply.update(report(outcome, value))
            _write_all(w, json.dumps(reply).encode())
        except BaseException as e:
            _write_all(w, json.dumps({"outcome": "report-" + type(e).__name__}).encode())
        finally:
            os._exit(0)
    os.close(w)
    child = _await(pid, r, t0, t0 + limit_s + GRACE_S)
    if child.output:
        reply = json.loads(child.output)
    else:
        reply = {"outcome": "killed" if child.killed else "died"}
    return reply, child


def run_exec(argv: list[str], env: dict, limit_s: float, cap_bytes: int) -> Child:
    """Run a program with stdout and stderr captured; killed at the limit."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: exec or exit
        try:
            os.dup2(w, 1)
            os.dup2(w, 2)
            os.close(r)
            os.close(w)
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, 0)
            resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    os.close(w)
    return _await(pid, r, t0, t0 + limit_s)
