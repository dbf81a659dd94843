"""ray-job-submit entrypoint (cdx_toolkit_ray/jobs.py): arg surface,
JSON result contract, and the resume-skips-completed-buckets behavior.
Runs main() in-process against the session Ray (the guarded init is a
no-op there — exactly what happens inside a submitted cluster job)."""

import json

import pytest

from cdx_toolkit_ray import jobs

pytestmark = pytest.mark.usefixtures("ray_session")


def _run(capsys, fixture_dir, out_dir, **kw):
    argv = ["--seeds", fixture_dir["seeds"],
            "--robots", fixture_dir["robots"],
            "--out", out_dir, "--num-buckets", "4"]
    for k, v in kw.items():
        argv += ["--" + k.replace("_", "-"), str(v)]
    rc = jobs.main(argv)
    assert rc == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("{")][-1]
    return json.loads(line)


def test_job_runs_and_resumes(fixture_dir, tmp_path, capsys):
    out = str(tmp_path / "frontier_out")
    r1 = _run(capsys, fixture_dir, out)
    assert sorted(r1["ran_buckets"]) == [0, 1, 2, 3]
    assert r1["skipped_buckets"] == []
    assert r1["wall_sec"] > 0 and r1["out_dir"] == out

    # identical resubmission: every bucket skipped, nothing re-runs
    r2 = _run(capsys, fixture_dir, out)
    assert r2["ran_buckets"] == []
    assert sorted(r2["skipped_buckets"]) == [0, 1, 2, 3]


def test_job_seen_checkpoint(fixture_dir, tmp_path, capsys):
    out = str(tmp_path / "fo2")
    ck = str(tmp_path / "seen_ck")
    r = _run(capsys, fixture_dir, out, seen_checkpoint=ck)
    assert r["ran_buckets"]
    import os
    assert os.path.isdir(ck) and os.listdir(ck)


def test_job_parser_requires_io():
    with pytest.raises(SystemExit):
        jobs.make_parser().parse_args([])


def test_jobs_query_mode(tmp_path):
    from cdx_toolkit_ray.jobs import main

    out = str(tmp_path / "q")
    rc = main(["--query", "distinct", "--sf-dir", "/root/testdata/sf0.001",
               "--out", out])
    assert rc == 0
    import glob as _glob
    assert _glob.glob(out + "/*.parquet")


def test_jobs_query_mode_rejects_unknown(tmp_path):
    from cdx_toolkit_ray.jobs import main

    assert main(["--query", "no_such_query",
                 "--out", str(tmp_path / "x")]) == 2


def test_jobs_requires_seeds_without_query(tmp_path):
    from cdx_toolkit_ray.jobs import main

    assert main(["--out", str(tmp_path / "y")]) == 2


def test_jobs_bench_leg_schema(fixture_dir, tmp_path, capsys):
    """--bench-leg runs one scaling leg in the current session and
    prints the leg JSON (cpus/sec/cold_sec/urls/urls_per_sec + the
    per-stage timings the multi-node bench surface reports)."""
    rc = jobs.main(["--bench-leg",
                    "--seeds", fixture_dir["seeds"],
                    "--robots", fixture_dir["robots"],
                    "--out", str(tmp_path / "b")])
    assert rc == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("{")][-1]
    leg = json.loads(line)
    assert {"cpus", "sec", "cold_sec", "urls", "urls_per_sec",
            "stages"} <= set(leg)
    assert {"schedule", "ordered", "resumable_write"} == set(leg["stages"])
    assert leg["urls"] > 0 and leg["urls_per_sec"] > 0


def test_jobs_bench_cluster_leg_and_peer_efficiency(
        fixture_dir, tmp_path, capsys, monkeypatch):
    """With a (non-local) RAY_ADDRESS, --bench emits one cluster leg;
    a --peer file from the other cluster size yields the efficiency in
    bench.py --scaling's schema."""
    monkeypatch.setenv("RAY_ADDRESS", "ray://head:10001")
    rc = jobs.main(["--bench",
                    "--seeds", fixture_dir["seeds"],
                    "--robots", fixture_dir["robots"],
                    "--out", str(tmp_path / "b")])
    assert rc == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("{")][-1]
    one = json.loads(line)
    assert one["value"] is None and len(one["runs"]) == 1

    # synthesize the other size's leg: 4x the cpus at 3.6x throughput
    (leg,) = one["runs"].values()
    peer = {"runs": {str(leg["cpus"] * 4): {
        **leg, "cpus": leg["cpus"] * 4,
        "urls_per_sec": leg["urls_per_sec"] * 3.6}}}
    pf = tmp_path / "peer.json"
    pf.write_text(json.dumps(peer))
    rc = jobs.main(["--bench",
                    "--seeds", fixture_dir["seeds"],
                    "--robots", fixture_dir["robots"],
                    "--out", str(tmp_path / "b2"), "--peer", str(pf)])
    assert rc == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("{")][-1]
    two = json.loads(line)
    assert two["unit"] == "efficiency"
    assert len(two["runs"]) == 2
    (lo_c, lo), (hi_c, hi) = sorted(two["runs"].items(),
                                    key=lambda kv: int(kv[0]))
    want = (hi["urls_per_sec"] / lo["urls_per_sec"]) \
        / (int(hi_c) / int(lo_c))
    assert two["value"] == pytest.approx(want, abs=0.001)
    assert "%s->%s" % (lo_c, hi_c) in two["metric"]


def test_jobs_bench_local_pair_median_and_host_cores(fixture_dir, tmp_path,
                                                     capsys, monkeypatch):
    """The local pair runs 5 interleaved attempts per config by default,
    reports the median-based efficiency beside the best-based one and
    the host's cores, and refuses (exit 2, no leg started) a leg that
    asks for more CPUs than the host has. Legs are faked: each returns
    a throughput from a fixed list."""
    import subprocess

    monkeypatch.delenv("RAY_ADDRESS", raising=False)
    monkeypatch.delenv("GRAFT_SCALE_ATTEMPTS", raising=False)
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 4)
    rates = {2: iter([100.0, 90.0, 110.0, 95.0, 105.0]),
             4: iter([150.0, 190.0, 170.0, 160.0, 180.0])}
    legs = []

    def fake_leg(cmd, env, **kw):
        cpus = int(cmd[cmd.index("--num-cpus") + 1])
        legs.append(cpus)
        ups = next(rates[cpus])
        return subprocess.CompletedProcess(cmd, 0, stderr="", stdout=(
            json.dumps({"cpus": cpus, "sec": 1000.0 / ups,
                        "urls_per_sec": ups}) + "\n"))

    monkeypatch.setattr(subprocess, "run", fake_leg)
    args = ["--bench", "--seeds", fixture_dir["seeds"],
            "--robots", fixture_dir["robots"], "--out", str(tmp_path / "b"),
            "--scale-lo", "2"]
    assert jobs.main(args + ["--scale-hi", "4"]) == 0
    out = json.loads([ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith("{")][-1])
    assert legs == [2, 4] * 5
    assert out["host_cores"] == 4
    assert out["value"] == pytest.approx((190 / 110) / 2, abs=0.001)
    assert out["value_median"] == pytest.approx((170 / 100) / 2, abs=0.001)

    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 2)
    legs.clear()
    assert jobs.main(args + ["--scale-hi", "4"]) == 2
    assert legs == []
    err = json.loads([ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith("{")][-1])
    assert err["host_cores"] == 2 and "error" in err
