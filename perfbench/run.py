"""The ahsnormal benchmark: three workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Every workload pass runs in a fresh child process with BLAS
threads pinned through its environment.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of one traced pass, next to one untraced pass for the
tracing overhead (see ``tracing.LAYERS``).  The full record
(environment, per-pass figures, information fields) goes to
``perfbench/out/results/``.

Workloads (one client, closed loop):

* ``verify-grid``: ``ahsnormal verify --seed S`` on the default 17-point
  grid, many small algebras: per-call overhead and Python loops dominate.
* ``verify-large``: ``ahsnormal verify --kind lagrangian --m 6 --seed S``,
  the largest tested algebra (N = 78): dense N^3/N^4 kernels and the dense
  Spencer operator matrices dominate time and memory.
* ``normalize-stream``: one in-process ``cli.main(["normalize", ...])``
  per request over seeded planted curvature files, 20 from the largest
  tested point of each kind a cycle.  Each request assembles the trace map
  once and solves once, where verify amortizes one assembly over several
  solves, so a change trading assembly against solve cost shows opposite
  signs on the two workload types.

On the verify workloads a request is one ``verify`` invocation.  Too few of
them fit in a run for a p90, so there ``request_p90_ms`` reports the
slowest invocation, an upper bound of the p90.  On ``normalize-stream``
the percentiles are taken over the 100 requests of a cycle, each request's
latency averaged over the cycles of the run.  ``wall_s`` is the mean wall
time of one pass (one ``verify`` invocation or one stream cycle).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SRC = ROOT / "src"
CLIENT = BENCH / "client.py"

WORKLOADS = {
    "verify-grid": ["verify"],
    "verify-large": ["verify", "--kind", "lagrangian", "--m", "6"],
    "normalize-stream": None,
}
SETUP_ARGV = ["algebra-info", "--kind", "conformal", "--m", "4"]
SETUP_REPEATS = 4  # before and again after the timed phase
BLAS_THREADS_MAX = 1
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples``.

    Refused (ValueError) unless at least ten samples lie beyond it, so a
    p90 needs at least 100 samples.
    """
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < 10:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples has {len(xs) - rank} beyond it; 10 needed"
        )
    return xs[rank - 1]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    threads = str(min(BLAS_THREADS_MAX, nproc()))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


class Runner:
    """Starts children one at a time and measures each from outside."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0
        self.last_cpu_s = 0.0

    def run(self, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, float, int]:
        """Run ``argv`` to completion: (wall seconds, peak RSS MB, exit code).

        The wall time runs from spawn until the child is reaped; the peak
        RSS and the CPU time (kept in ``last_cpu_s``) are the child's own,
        from ``wait4``.
        """
        self.count += 1
        log = self.workdir / f"child_{self.count:03d}.stderr"
        reaped = {}
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=stdout, stderr=err,
                                    cwd=ROOT)

            def reap() -> None:
                reaped["wait"] = os.wait4(proc.pid, 0)
                reaped["t"] = time.perf_counter()

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(0.0, self.deadline - time.perf_counter()))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                proc.returncode = -9
                raise BenchError(f"child {argv[:4]} outlived the run limit; see {log}")
        _, status, usage = reaped["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_cpu_s = usage.ru_utime + usage.ru_stime
        return reaped["t"] - t0, usage.ru_maxrss / 1024.0, proc.returncode

    def python(self, *args: str, stdout=subprocess.DEVNULL) -> tuple[float, float, int]:
        return self.run([sys.executable, *args], stdout=stdout)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() or None


def probe_environment(runner: Runner) -> dict:
    """Versions as the children see them; also proves the package imports
    from this checkout's ``src/``."""
    out = runner.workdir / "env.json"
    with open(out, "wb") as fh:
        _, _, code = runner.python(str(CLIENT), "env", stdout=fh)
    if code != 0:
        raise BenchError("ahsnormal does not import from this checkout")
    env = json.loads(out.read_text())
    if Path(env.pop("ahsnormal_file")).resolve().parent != (SRC / "ahsnormal").resolve():
        raise BenchError("ahsnormal resolves outside this checkout's src/")
    env.update(
        blas_threads=int(runner.env["OPENBLAS_NUM_THREADS"]),
        nproc=nproc(),
        commit=commit_hash(),
        source_sha256=source_digest(),
    )
    return env


def measure_setup(runner: Runner) -> tuple[list[float], bool]:
    """Cold start: a fresh interpreter runs ``algebra-info`` until its report
    is written, SETUP_REPEATS times."""
    times, ok = [], True
    report = runner.workdir / "setup_report.json"
    for _ in range(SETUP_REPEATS):
        report.unlink(missing_ok=True)
        wall, _, code = runner.python("-m", "ahsnormal", *SETUP_ARGV, "--output", str(report))
        times.append(wall)
        try:
            passed = json.loads(report.read_text())["matrix_rep_check"]["passed"]
        except (OSError, ValueError, KeyError):
            passed = False
        ok = ok and code == 0 and passed is True
    return times, ok


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def load_spans(path: Path) -> list[tracing.Span]:
    return [
        tracing.Span(**{**d, "size": tuple(d["size"]) if d["size"] else None})
        for d in json.loads(path.read_text())
    ]


def verify_pass(runner: Runner, argv: list[str], report: Path, trace_out: Path | None) -> dict:
    """One ``verify`` invocation in a fresh child; its check records are the
    operations.  A bad exit or a missing report fails every operation."""
    report.unlink(missing_ok=True)
    if trace_out is None:
        wall, rss, code = runner.python("-m", "ahsnormal", *argv, "--output", str(report))
    else:
        wall, rss, code = runner.python(str(CLIENT), "call", "--trace-out", str(trace_out),
                                        "--", *argv, "--output", str(report))
    try:
        text = report.read_bytes()
        records = [c for p in json.loads(text)["points"] for c in p["checks"]]
    except (OSError, ValueError, KeyError):
        text, records = b"", []
    failed = sum(1 for c in records if c.get("passed") is not True)
    if code != 0 or not records:
        failed = len(records) or 1
    return {
        "wall_s": wall,
        "cpu_s": runner.last_cpu_s,
        "peak_rss_mb": rss,
        "exit_code": code,
        "attempted": max(len(records), 1),
        "failed": failed,
        "report_sha256": hashlib.sha256(text).hexdigest() if text else None,
    }


def same_as_recorded(kind: str, key: str, value) -> bool:
    """Whether ``value`` equals what an earlier run in this checkout recorded
    under ``key``; the first run records it."""
    record = OUT / kind / f"{key}.json"
    if record.exists():
        return json.loads(record.read_text()) == value
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(value, sort_keys=True))
    return True


def run_verify(runner: Runner, workload: str, args, env: dict) -> dict:
    argv = WORKLOADS[workload] + ["--seed", str(args.seed)]
    wd = runner.workdir
    if args.trace:
        plain = verify_pass(runner, argv, wd / "report.json", None)
        traced = verify_pass(runner, argv, wd / "report_traced.json", wd / "spans.json")
        passes = [plain, traced]
    else:
        passes, start = [], time.perf_counter()
        while True:
            passes.append(verify_pass(runner, argv, wd / f"report_{len(passes)}.json", None))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break
    # the report of one seed must be identical across passes and runs
    sha = passes[0]["report_sha256"]
    key = f"{workload}-seed{args.seed}-{env['source_sha256'][:16]}"
    same = (sha is not None and all(p["report_sha256"] == sha for p in passes)
            and same_as_recorded("report_sha256", key, sha))
    walls = [p["wall_s"] for p in passes]
    out = {
        "passes": passes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "report_identical": same,
        "report_sha256": sha,
    }
    if args.trace:
        out["spans"] = wd / "spans.json"
        out["untraced_wall_s"], out["traced_wall_s"] = walls
    else:
        out["metrics"] = {
            "wall_s": (statistics.fmean(walls), "s"),
            "requests_per_s": (len(walls) / sum(walls), "1/s"),
            "request_p50_ms": (statistics.median(walls) * 1e3, "ms"),
            "request_p90_ms": (max(walls) * 1e3, "ms"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }
    return out


def stream_pass(runner: Runner, inputs: Path, extra: list[str]) -> dict:
    result = runner.workdir / f"stream_{runner.count + 1:03d}.json"
    wall, rss, code = runner.python(str(CLIENT), "stream", "--dir", str(inputs),
                                    "--result", str(result), *extra)
    if code != 0:
        raise BenchError(f"stream client exited {code}; see {runner.workdir}")
    res = json.loads(result.read_text())
    res.update(wall_s=wall, cpu_s=runner.last_cpu_s, peak_rss_mb=rss)
    return res


def run_stream(runner: Runner, args) -> dict:
    inputs = runner.workdir / "inputs"
    _, _, code = runner.python(str(CLIENT), "prepare", "--seed", str(args.seed),
                               "--dir", str(inputs))
    if code != 0:
        raise BenchError("preparing the stream inputs failed")
    if args.trace:
        plain = stream_pass(runner, inputs, ["--seconds", "0"])
        traced = stream_pass(runner, inputs, ["--seconds", "0",
                                              "--trace-out", str(runner.workdir / "spans.json")])
        passes = [plain, traced]
    else:
        # Two cycles at least, so that every request's latency is averaged
        # over two points in time.
        passes = [stream_pass(runner, inputs, ["--seconds", str(args.seconds),
                                               "--min-cycles", "2"])]
    out = {
        "passes": [{k: v for k, v in p.items() if k != "latencies_s"} for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "worst_gamma_error": max(p["worst_gamma_error"] for p in passes),
        "worst_gamma_error_rel": max(p["worst_gamma_error_rel"] for p in passes),
    }
    if args.trace:
        out["spans"] = runner.workdir / "spans.json"
        out["untraced_wall_s"] = plain["cycle_walls_s"][0]
        out["traced_wall_s"] = traced["cycle_walls_s"][0]
    else:
        (p,) = passes
        cycles = p["cycle_walls_s"]
        # The host's speed drifts over seconds; averaging each request over
        # the run's cycles keeps a quantile from jumping with that drift.
        lat = [statistics.fmean(per_request) for per_request in zip(*p["latencies_s"])]
        out["metrics"] = {
            "wall_s": (statistics.fmean(cycles), "s"),
            "requests_per_s": (p["attempted"] / sum(cycles), "1/s"),
            "request_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "request_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (p["peak_rss_mb"], "MB"),
        }
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def bench(args) -> tuple[dict, dict]:
    """Run one workload; returns (printed result, full record)."""
    start = time.perf_counter()
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, start + RUN_LIMIT_S)
    env = probe_environment(runner)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    setup_times, setup_ok = [], True
    if not args.trace:
        setup_times, setup_ok = measure_setup(runner)
    if WORKLOADS[args.workload] is None:
        out = run_stream(runner, args)
        correct = out["failed"] == 0
    else:
        out = run_verify(runner, args.workload, args, env)
        correct = out["failed"] == 0 and out["report_identical"]
    if args.trace:
        spans = load_spans(out.pop("spans"))
        metrics = tracing.layer_metrics(spans)
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
        if not same_as_recorded("counts", f"{args.workload}-{env['source_sha256'][:16]}", counts):
            raise BenchError(f"layer counts differ from an earlier traced run: {counts}")
        metrics["trace.wall_s"] = (out["traced_wall_s"], "s")
        metrics["trace.untraced_wall_s"] = (out["untraced_wall_s"], "s")
        metrics["trace.overhead_frac"] = (out["traced_wall_s"] / out["untraced_wall_s"] - 1, "ratio")
        metrics["trace.spans"] = (len(spans), "count")
    else:
        # Set-up is sampled on both sides of the timed phase, so that it
        # sees the same drift of the host's speed as the workload does.
        after, after_ok = measure_setup(runner)
        setup_times += after
        setup_ok = setup_ok and after_ok
        record["setup_times_s"] = setup_times
        metrics = out.pop("metrics")
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["success_frac"] = (1.0 - out["failed"] / out["attempted"], "ratio")
    correct = correct and setup_ok
    record.update(out)
    record["run_s"] = time.perf_counter() - start
    result = {
        "correct": bool(correct),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ahsnormal" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ahsnormal sources under {SRC}; run from a checkout\n")
        return 2
    try:
        result, record = bench(args)
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 3
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    info = {k: record[k] for k in ("environment", "report_sha256", "worst_gamma_error")
            if k in record}
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
