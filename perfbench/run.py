"""Benchmark entry point.

    python3 perfbench/run.py --workload frontier_order --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. Generates the workload's inputs from
``--seed``, computes their oracle (untimed), starts a local Ray session
with a fixed ``num_cpus`` and measures closed-loop ops (one in flight)
for ``--seconds``. Every op's output is checked; an op that raises,
times out or fails its check counts in ``failed``. The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). A fuller record (CPU counts, every op,
spans) goes to ``.bench_out/``.

The measurement runs in a child process of this one, so that a crash of
the process holding the Ray session is counted as a failed op instead of
ending the run without a result (see ``MAX_ATTEMPTS``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the program sets up Ray this many times per run; setup_s is the median,
# so one slow start does not set it
SETUPS = 3
# the run measures in a child process. Ray 2.49 can abort the process
# that started the session on a race between a task's cancel and its
# completion, which the early stop of Dataset.limit hits now and then;
# such a crash counts as one failed op and the run is made again in a
# fresh child, once
MAX_ATTEMPTS = 2
RUN_LIMIT_S = 175.0
CHILD_ENV = "PERFBENCH_CHILD"


def _log(msg: str) -> None:
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "cdx_toolkit_ray", "__init__.py")):
        _log("no cdx_toolkit_ray package next to perfbench/ under %s" % ROOT)
        return 2

    import harness

    if os.environ.get(CHILD_ENV) != "1":
        return supervise(sys.argv[1:] if argv is None else argv, args.workload)
    harness.configure_env(ROOT)
    sys.path.insert(0, ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _log("unknown workload %r (have %s)" % (args.workload, sorted(workloads.WORKLOADS)))
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if cls.reserved_cpus >= harness.NUM_CPUS:
        # reserved actors would leave no CPU for tasks: the run would hang
        _log("%s reserves %.2f CPUs of %d" % (cls.name, cls.reserved_cpus,
                                               harness.NUM_CPUS))
        return 2

    session = harness.RaySession(ROOT)
    work = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": harness.host_info()}
    try:
        result = measure(cls, args, work, session, record)
    finally:
        session.cleanup()
        shutil.rmtree(work, ignore_errors=True)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (cls.name, args.seed, args.trace)), "w") as fd:
        json.dump(dict(record, result=result), fd, indent=1)
    print(json.dumps(result), flush=True)
    if record.get("abandoned"):
        # a timed-out op left a thread inside Ray; do not wait for it
        os._exit(0)
    return 0


def supervise(argv: list[str], workload: str) -> int:
    """Run the measurement in a child process and print its result,
    with the ops that crashed children took down added as failed."""
    import subprocess

    import harness

    harness.become_subreaper()
    env = dict(os.environ, **{CHILD_ENV: "1"})
    crashed = 0
    deadline = time.monotonic() + RUN_LIMIT_S
    for _ in range(MAX_ATTEMPTS):
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)] + argv,
                                stdout=subprocess.PIPE, env=env, text=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            harness.reap_descendants(timeout=0.0)
            _log("the run did not end within %.0f s" % RUN_LIMIT_S)
            return 1
        # Ray's processes outlive a crashed child for a moment
        harness.reap_descendants()
        if proc.returncode >= 0:
            break
        crashed += 1
        _log("the run's process died of signal %d; counted as one failed op"
             % -proc.returncode)
        shutil.rmtree(os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, proc.pid)),
                      ignore_errors=True)
        shutil.rmtree(harness.ray_temp_dir(ROOT, proc.pid), ignore_errors=True)
    else:
        return 1
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(out.strip().splitlines()[-1])
    result["attempted"] += crashed
    result["failed"] += crashed
    result["correct"] = result["correct"] and not crashed
    print(json.dumps(result), flush=True)
    return 0


def measure(cls, args, work, session, record) -> dict:
    import harness
    import workloads

    t0 = time.perf_counter()
    wl = cls(work, args.seed)
    record["inputs"] = wl.describe()
    record["inputs_s"] = time.perf_counter() - t0
    _log("%s seed %d: inputs + oracle in %.1f s" % (cls.name, args.seed, record["inputs_s"]))

    setups, attempted, failed, ops = [], 0, 0, []
    tracer = harness.Tracer()
    # the runtime and the program are imported once, so every setup
    # times the same work
    import cdx_toolkit_ray  # noqa: F401
    import ray.data  # noqa: F401

    # this process's peak so far is the generator's and the oracle's
    harness.reset_peak_rss()
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            session.start()
            wl.construct()
            harness.call_with_timeout(wl.warm_up, wl.op_timeout)
            setups.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                session.stop()
        record["setup_s"] = setups

        steal0 = harness.cpu_steal()
        deadline = time.perf_counter() + args.seconds
        # a traced run makes at least two cycles, so layer medians are
        # not single readings
        min_ops = 2 if args.trace else cls.min_ops
        k = 0
        while True:
            now = time.perf_counter()
            # start an op only if a typical one ends before the deadline
            typical = statistics.median(o.wall for o in ops) if ops else 0.0
            if attempted >= min_ops and now + typical > deadline:
                break
            attempted += 1
            try:
                if args.trace:
                    bad = []
                    t0 = time.perf_counter()
                    harness.call_with_timeout(
                        lambda: wl.trace_cycle(tracer, k, bad), 10 * wl.op_timeout)
                    failed += any(bad)
                    ops.append(workloads.Op([(time.perf_counter() - t0, None, None)], None))
                else:
                    op = harness.call_with_timeout(lambda: wl.op(k), wl.op_timeout)
                    ok = op.check()
                    # the check holds the op's output, which may pin
                    # object-store blocks; keep only the timings
                    op.check = None
                    if ok:
                        ops.append(op)
                    else:
                        failed += 1
                        _log("op %d: wrong output" % k)
            except harness.OpTimeout as e:
                failed += 1
                record["abandoned"] = True
                _log("op %d: %s; stopping" % (k, e))
                break
            except Exception:
                failed += 1
                _log("op %d raised:\n%s" % (k, traceback.format_exc()))
            session.sample()
            k += 1
    finally:
        if not record.get("abandoned"):
            session.stop()
    record["attempted"], record["failed"] = attempted, failed
    steal, total = (b - a for a, b in zip(steal0, harness.cpu_steal()))
    record["steal_pct"] = 100.0 * steal / max(total, 1)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fd:
        declared = json.load(fd)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # a layer this workload never calls reports 0
        metrics = {m["name"]: 0.0 for m in declared}
        if tracer.spans and failed < attempted:
            metrics.update(wl.per_layer(tracer))
        metrics["ray.peak_rss_mb"] = session.rss.total_mb()
        record["spans"] = tracer.spans
    else:
        record["ops"] = [o.calls for o in ops]
        if not ops:
            raise RuntimeError("no op succeeded")
        metrics = wl.end_to_end(ops)
        metrics["setup_s"] = statistics.median(setups)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                        for m in declared}}


if __name__ == "__main__":
    sys.exit(main())
