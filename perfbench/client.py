"""Child-process side of the benchmark; ``run.py`` starts one per pass.

    python perfbench/client.py env
    python perfbench/client.py prepare --seed S --dir D
    python perfbench/client.py stream --dir D --seconds T [--min-cycles K] --result F [--trace-out F]
    python perfbench/client.py call --trace-out F -- <ahsnormal arguments>

``prepare`` writes the normalize-stream inputs (curvature files, and the
planted Γ kept apart from them).  ``stream`` is one closed-loop client
calling ``ahsnormal.cli.main`` in process, once per request.  ``call``
runs one traced ``cli.main`` invocation and exits with its code.  ``env``
and ``prepare`` print one JSON object; ``stream`` writes it to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import tracing

# The largest tested point of each kind; the stream draws equal shares.
STREAM_POINTS = (
    ("conformal", {"m": 6}),
    ("grassmannian", {"p": 4, "q": 4}),
    ("projective", {"q": 4}),
    ("lagrangian", {"m": 6}),
    ("spinorial", {"m": 6}),
)
PER_POINT = 20  # 100 requests a cycle, so p90 has 10 samples beyond it
GAMMA_TOL = 1e-9


def cmd_env(_args) -> dict:
    import scipy

    import ahsnormal

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ahsnormal_file": ahsnormal.__file__,
    }


def cmd_prepare(args) -> dict:
    """Planted instances κ0 = δκ0(Γ_true) + h, h harmonic (block-trace-free
    for grassmannian), in a seeded order."""
    from ahsnormal.graded_algebra import build_algebra
    from ahsnormal.testkit import harmonic_sampler, round_trip_sample

    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    drawn = []
    for idx, (kind, params) in enumerate(STREAM_POINTS):
        alg = build_algebra(kind, **params)
        sampler = harmonic_sampler(alg, 0, block_trace_free=kind == "grassmannian")
        rng = np.random.default_rng([args.seed, idx])
        for _ in range(PER_POINT):
            gamma, kappa0 = round_trip_sample(alg, rng, sampler=sampler)
            drawn.append((kind, params, gamma.data, kappa0.data))
    order = np.random.default_rng([args.seed, len(STREAM_POINTS)]).permutation(len(drawn))
    requests, truth = [], {}
    for rid, j in enumerate(order):
        kind, params, gamma, kappa0 = drawn[j]
        path = out / f"req_{rid:03d}.json"
        path.write_text(json.dumps({"kind": kind, "params": params, "kappa0": kappa0.tolist()}))
        truth[f"r{rid}"] = gamma
        requests.append({
            "id": rid,
            "kind": kind,
            "params": params,
            "input": str(path),
            "scale": max(1.0, float(np.abs(kappa0).max())),
        })
    np.savez(out / "truth.npz", **truth)
    (out / "manifest.json").write_text(json.dumps(requests))
    return {"requests": len(requests)}


def _check_response(path: Path, gamma_true: np.ndarray, scale: float) -> float | None:
    """Worst distance of the closed-form and oracle Γ from Γ_true, or None
    when the report is missing or unreadable."""
    try:
        report = json.loads(path.read_text())
        closed = np.asarray(report["gamma"], dtype=float)
        oracle = np.asarray(report["gamma_oracle"], dtype=float)
    except (OSError, ValueError, KeyError):
        return None
    if closed.shape != gamma_true.shape or oracle.shape != gamma_true.shape:
        return None
    return float(max(np.abs(closed - gamma_true).max(), np.abs(oracle - gamma_true).max()))


def _guarded(call_cli, argv: list[str]) -> int:
    """Exit code of one CLI call; a crash is a failed request, not the end
    of the client."""
    try:
        return call_cli(argv)
    except SystemExit as exc:  # argparse refusals
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def cmd_stream(args) -> dict:
    from ahsnormal import cli

    src = Path(args.dir)
    requests = json.loads((src / "manifest.json").read_text())
    truth = np.load(src / "truth.npz")
    resp_dir = src / "responses"
    resp_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace_out else None
    call_cli = tracer.wrap("cli.main", cli.main) if tracer else cli.main

    latencies, failed, worst_err, worst_rel, cycle_walls = [], 0, 0.0, 0.0, []

    def serve(req: dict) -> tuple[float, int]:
        out = resp_dir / f"resp_{req['id']:03d}.json"
        out.unlink(missing_ok=True)
        argv = ["normalize", "--kind", req["kind"]]
        for name, value in req["params"].items():
            argv += [f"--{name}", str(value)]
        argv += ["--input", req["input"], "--output", str(out)]
        if tracer:
            tracer.request = req["id"]
        t0 = time.perf_counter()
        code = _guarded(call_cli, argv)
        return time.perf_counter() - t0, code

    def run_cycle() -> None:
        nonlocal failed, worst_err, worst_rel
        codes, cycle = [], []
        t0 = time.perf_counter()
        for req in requests:
            dt, code = serve(req)
            cycle.append(dt)
            codes.append(code)
        cycle_walls.append(time.perf_counter() - t0)
        latencies.append(cycle)
        for req, code in zip(requests, codes):
            err = _check_response(resp_dir / f"resp_{req['id']:03d}.json",
                                  truth[f"r{req['id']}"], req["scale"])
            if err is not None:
                worst_err = max(worst_err, err)
                worst_rel = max(worst_rel, err / req["scale"])
            if code != 0 or err is None or err > GAMMA_TOL * req["scale"]:
                failed += 1

    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        while True:  # whole cycles, as many as fit in --seconds, at least --min-cycles
            run_cycle()
            if (len(cycle_walls) >= args.min_cycles
                    and time.perf_counter() - start + cycle_walls[-1] > args.seconds):
                break
    if tracer:
        Path(args.trace_out).write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return {
        "latencies_s": latencies,  # one list per cycle, in manifest order
        "attempted": sum(map(len, latencies)),
        "failed": failed,
        "cycle_walls_s": cycle_walls,
        "worst_gamma_error": worst_err,
        "worst_gamma_error_rel": worst_rel,
    }


def cmd_call(args) -> int:
    from ahsnormal import cli

    tracer = tracing.Tracer()
    with tracer.installed():
        code = _guarded(tracer.wrap("cli.main", cli.main), args.argv)
    Path(args.trace_out).write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="client.py")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("env")
    p = sub.add_parser("prepare")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("stream")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-cycles", type=int, default=1)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--result", required=True)
    p = sub.add_parser("call")
    p.add_argument("--trace-out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "call":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return cmd_call(args)
    if args.command == "stream":
        Path(args.result).write_text(json.dumps(cmd_stream(args)))
        return 0
    result = cmd_env(args) if args.command == "env" else cmd_prepare(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
