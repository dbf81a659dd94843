"""Self-test of the benchmark itself (not of the program's speed).

    python3 perfbench/selftest.py

1. The generators' by-construction urlkey and host agree with the
   program's canonicalizer (checked here once, so the oracles never need
   to call it).
2. One tiny op and one traced cycle of every workload, started from a
   working directory outside the repository root, pass their output
   checks: Ray workers must import ``cdx_toolkit_ray`` whatever the
   driver's cwd.
3. ``run.py`` in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` exits non-zero without printing a result.

Exits 0 when all hold.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_generators(work: str) -> None:
    import gen
    from cdx_toolkit_ray.canon import host_of, surt

    _, truth, _ = gen.frontier_inputs(os.path.join(work, "f"), 3, 5000, 0.3)
    for url, key, host in zip(truth["url"].to_pylist(), truth["urlkey"].to_pylist(),
                              truth["host"].to_pylist()):
        if (surt(url), host_of(url)) != (key, host):
            raise AssertionError("frontier generator: %r -> %r %r, program says %r %r"
                                 % (url, key, host, surt(url), host_of(url)))
    _, truth, _ = gen.capture_inputs(os.path.join(work, "c"), 3, 2000)
    for url, key in zip(truth["url"].to_pylist(), truth["urlkey"].to_pylist()):
        if surt(url) != key:
            raise AssertionError("capture generator: %r -> %r, program says %r"
                                 % (url, key, surt(url)))


def tiny_ops(work: str) -> None:
    import harness
    import workloads

    class TinyOrder(workloads.FrontierOrder):
        n_rows, warm_rows = 4000, 500

    class TinyQuery(workloads.CaptureQuery):
        n_pages, pool_ops, warm_calls = 3000, 1, 1

    session = harness.RaySession(ROOT)
    elsewhere = os.path.join(work, "cwd")
    os.makedirs(elsewhere)
    here = os.getcwd()
    os.chdir(elsewhere)
    try:
        session.start()
        for cls in (TinyOrder, TinyQuery):
            wl = cls(os.path.join(work, cls.name), 5)
            wl.construct()
            op = harness.call_with_timeout(lambda: wl.op(0), wl.op_timeout)
            if not op.check():
                raise AssertionError("%s op: wrong output" % cls.name)
            bad: list = []
            tr = harness.Tracer()
            harness.call_with_timeout(lambda: wl.trace_cycle(tr, 0, bad),
                                      10 * wl.op_timeout)
            if any(bad):
                raise AssertionError("%s traced cycle: a probe's output was wrong"
                                     % cls.name)
            wl.per_layer(tr)
            print("selftest: %s tiny op and traced cycle ok from cwd %s"
                  % (cls.name, elsewhere))
    finally:
        session.stop()
        session.cleanup()
        os.chdir(here)


def check_bare_dir(work: str) -> None:
    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "frontier_order", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("run.py in a bare directory: exit %d, stdout %r"
                             % (proc.returncode, proc.stdout))
    print("selftest: bare directory exits %d without a result" % proc.returncode)


def main() -> int:
    import harness

    harness.configure_env(ROOT)
    sys.path.insert(0, ROOT)
    work = os.path.join(ROOT, ".bench_work", "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        check_generators(work)
        print("selftest: generators agree with the canonicalizer")
        tiny_ops(work)
        check_bare_dir(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
