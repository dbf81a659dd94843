"""Process-level plumbing for the benchmark: environment, the Ray
session, per-op timeouts, span recording and peak-RSS sampling.

Nothing here starts a process or reads the environment at import time;
``run.py`` calls ``configure_env`` before it imports Ray.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import shutil
import signal
import statistics
import threading
import time

NUM_CPUS = 2
OBJECT_STORE_BYTES = 768 << 20
# AF_UNIX socket paths are limited to 107 bytes and Ray puts its
# sockets ~65 bytes below its temp dir, so the temp dir must be short
MAX_RAY_TEMP_LEN = 40
# keep the worker processes the warm-up started: by default the raylet
# kills idle workers above num_cpus after a second, and every op would
# pay their Python start again
SYSTEM_CONFIG = {"num_workers_soft_limit": 16,
                 "idle_worker_killing_time_threshold_ms": 3_600_000}


def configure_env(repo_root: str) -> None:
    """Environment every Ray process must start with: one polars
    thread, the allocator settings ``bench.py`` uses, and the repo root
    on ``PYTHONPATH`` so workers import ``cdx_toolkit_ray`` whatever
    the Ray driver's working directory."""
    os.environ["POLARS_MAX_THREADS"] = "1"
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(1 << 30)
    os.environ["MALLOC_TRIM_THRESHOLD_"] = "-1"
    os.environ["RAY_DEDUP_LOGS"] = "0"
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = repo_root + (os.pathsep + path if path else "")


def host_info() -> dict:
    """The CPU counts that disagree on this kind of host: the session's
    ``num_cpus``, what ``nproc`` prints (OMP_NUM_THREADS caps it), the
    scheduler affinity, and ``os.cpu_count``."""
    import subprocess

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        nproc = None
    return {"num_cpus": NUM_CPUS, "nproc": nproc,
            "sched_getaffinity": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count()}


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat:
    the share of time the hypervisor ran something else shows how much a
    slow run owes to the host."""
    with open("/proc/stat") as fd:
        jiffies = [int(x) for x in fd.readline().split()[1:9]]
    return jiffies[7], sum(jiffies)


def ray_temp_dir(repo_root: str, pid: int) -> str:
    """Where the Ray session of process ``pid`` keeps its files: under
    the checkout when the path is short enough, else under /tmp."""
    temp = os.path.join(repo_root, ".br", str(pid))
    return temp if len(temp) <= MAX_RAY_TEMP_LEN else "/tmp/pb-%d" % pid


class RaySession:
    """Starts and stops the local Ray session; remembers every process
    it saw under the Ray driver so ``stop`` can wait for all of them."""

    def __init__(self, repo_root: str):
        self.temp_dir = ray_temp_dir(repo_root, os.getpid())
        # a Ray session started without _temp_dir (by any library that
        # calls ray.init itself) lands here too
        os.environ["RAY_TMPDIR"] = self.temp_dir
        self.pids: set[int] = set()
        self.rss = PeakRss()

    def start(self) -> None:
        import ray
        import ray.data

        os.makedirs(self.temp_dir, exist_ok=True)
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 logging_level=logging.ERROR, log_to_driver=False,
                 _temp_dir=self.temp_dir, _system_config=SYSTEM_CONFIG)
        for name in ("ray", "ray.data", "ray.data._internal"):
            logging.getLogger(name).setLevel(logging.ERROR)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.sample()

    def sample(self) -> None:
        self.pids.update(self.rss.sample())

    def stop(self) -> None:
        import ray

        self.sample()
        ray.shutdown()
        wait_gone(self.pids)
        self.pids.clear()

    def cleanup(self) -> None:
        shutil.rmtree(self.temp_dir, ignore_errors=True)
        try:  # the shared parent, once no other run uses it
            os.rmdir(os.path.dirname(self.temp_dir))
        except OSError:
            pass


def _children() -> dict[int, int]:
    """pid -> ppid for every visible process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as fd:
                stat = fd.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ')'
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int) -> list[int]:
    parent = _children()
    kids: dict[int, list[int]] = {}
    for pid, ppid in parent.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _vm_hwm_kb(pid: int) -> int | None:
    try:
        with open("/proc/%d/status" % pid) as fd:
            for line in fd:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _is_worker(pid: int) -> bool:
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as fd:
            return fd.read().startswith(b"ray::")
    except OSError:
        return False


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current resident size."""
    with open("/proc/self/clear_refs", "w") as fd:
        fd.write("5")


class PeakRss:
    """Peak resident memory of the Ray driver plus its Ray worker processes,
    from each process's VmHWM in /proc (kept per pid, so a worker that
    exits keeps its last reading)."""

    def __init__(self):
        self.peak_kb: dict[int, int] = {}

    def sample(self) -> list[int]:
        me = os.getpid()
        procs = descendants(me)
        for pid in [me] + [p for p in procs if _is_worker(p)]:
            kb = _vm_hwm_kb(pid)
            if kb is not None:
                self.peak_kb[pid] = max(kb, self.peak_kb.get(pid, 0))
        return procs

    def total_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0


def wait_gone(pids, timeout: float = 20.0) -> None:
    """Wait until every pid has exited; SIGKILL what outlives the
    timeout, then wait for that too."""
    pending = set(pids)
    deadline = time.monotonic() + timeout
    while pending:
        pending = {p for p in pending if os.path.exists("/proc/%d" % p)
                   and not _is_zombie(p)}
        if not pending:
            return
        if time.monotonic() > deadline:
            for p in pending:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


def become_subreaper() -> None:
    """Make this process adopt its orphaned descendants (Linux
    PR_SET_CHILD_SUBREAPER), so it can wait for what a crashed child
    left running."""
    if ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants(timeout: float = 20.0) -> None:
    """Wait until every descendant of this process has ended (SIGKILL
    after ``timeout`` seconds), then collect the exit status of the ones
    it adopted."""
    wait_gone(descendants(os.getpid()), timeout)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return
        except ChildProcessError:
            return


def _is_zombie(pid: int) -> bool:
    try:
        with open("/proc/%d/stat" % pid) as fd:
            return fd.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a helper thread; raise ``OpTimeout`` if it has not
    returned within ``timeout`` seconds (the thread is abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise OpTimeout("op did not finish within %.0f s" % timeout)
    if "error" in box:
        raise box["error"]
    return box["value"]


class Tracer:
    """In-memory spans (name, op id, start, end, parent); ``span`` is a
    context manager timing one call into a layer."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        rec = {"name": name, "op": op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter()}
        self._stack.append(name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def record(self, name: str, op: int, seconds: float) -> None:
        """A span timed by the caller (ends now)."""
        end = time.perf_counter()
        self.spans.append({"name": name, "op": op, "parent": None,
                           "start": end - seconds, "end": end})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0
