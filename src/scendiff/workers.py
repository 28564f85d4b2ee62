"""fork_map: independent items on every usable CPU, in forked worker processes."""
from __future__ import annotations

import os
import pickle
import signal
import sys


def can_fork() -> bool:
    """Whether a fork is safe here: on Linux, with this process on one OS thread. Another
    thread (an unpinned OpenBLAS starts its own at import) would be missing in a child."""
    try:
        return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _run_share(fn, share, fd: int) -> None:
    """Map a child's share, send ("ok", results), ("raise", error) or ("repr", text) for
    an error that cannot cross a pickle, and leave by os._exit whatever happens."""
    try:
        try:
            reply = ("ok", [fn(item) for item in share])
        except BaseException as e:  # the parent raises it
            reply = ("raise", e)
        try:
            blob = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
            if reply[0] == "raise":
                pickle.loads(blob)
        except Exception as e:
            blob = pickle.dumps(("repr", repr(reply[1] if reply[0] == "raise" else e)))
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
    finally:
        os._exit(0)


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], mapped in W = min(usable CPUs, len(items))
    contiguous shares: this process maps the first, and a forked child each other one,
    sending its results back as one pickle through a pipe (fn and items are inherited).
    A share stops at its first error; the earliest failing share's error is raised, as
    in a sequential run, and a child that ends without sending raises ChildProcessError.
    Every child still running is killed, and every child is reaped, before this returns
    or raises. Runs inline, in order, where W is 1 or not can_fork().
    """
    items = list(items)
    w = min(len(os.sched_getaffinity(0)), len(items)) if can_fork() else 1
    if w <= 1:
        return [fn(item) for item in items]
    bounds = [len(items) * k // w for k in range(w + 1)]
    children, reads = {}, []  # unreaped worker number -> pid; each worker's pipe
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            reads.append(os.fdopen(r, "rb"))
            pid = os.fork()
            if pid == 0:
                _run_share(fn, items[bounds[k]:bounds[k + 1]], wr)
            os.close(wr)
            children[k] = pid
        results = [fn(item) for item in items[:bounds[1]]]
        for k, f in enumerate(reads, 1):
            blob = f.read()
            status = os.waitpid(children[k], 0)[1]
            del children[k]
            try:
                kind, payload = pickle.loads(blob)
            except Exception:
                how = (f"was killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                       else f"exited with status {os.waitstatus_to_exitcode(status)}")
                raise ChildProcessError(f"worker {k} of {w} {how} before sending its "
                                        "results") from None
            if kind != "ok":
                raise payload if kind == "raise" else ChildProcessError(
                    f"worker {k} of {w} failed: {payload}")
            results += payload
        return results
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in reads:
            f.close()
