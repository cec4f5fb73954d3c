"""obrs benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the repository root. One client sends one request at a time and
waits for it (a closed loop, one client). Each request calls a public entry
point of ``obrs``; its output is checked once the timed phase is over, so
checking costs no timed work. A request fails if it raises, if a CLI call
exits nonzero, or if its check fails.

With ``--trace 0`` the run reports the end-to-end metrics. ``setup_s`` is
the median over fresh processes of the time from process start to the first
timed request (imports, input generation, one warm-up request per kind).
With ``--trace 1`` the run measures half its time untraced and half with the
layer tracer installed, and reports the per-layer metrics.

Earlier lines of standard output hold a readable report and a JSON line with
the environment block and request details; the last line is the result
object. The same details go to ``.bench_run/`` together with the spans of a
traced run. The exit code is 0 only when every request passed.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the setting is recorded
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_run"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples required beyond the tail percentile
PROBE_TIMEOUT_S = 150


def _import_library() -> None:
    """Import obrs from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import obrs
    except ImportError as exc:
        raise SystemExit(f"error: cannot import obrs from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(obrs.__file__).resolve().parents:
        raise SystemExit(f"error: obrs imported from {obrs.__file__}, not from {SRC}")


@dataclass
class Done:
    request: object
    output: object
    error: str | None
    latency_s: float


def send(req) -> Done:
    start = time.perf_counter()
    try:
        out, err = req.run(), None
    except Exception as exc:  # a failed request is counted, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Done(req, out, err, time.perf_counter() - start)


def run_phase(workload, stream_dir: Path, seconds: float, tracer=None) -> tuple[list[Done], float]:
    """Closed loop: send the next request when the previous one returns."""
    stream = workload.requests(0, stream_dir)
    done = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        req = next(stream)
        if tracer is not None:
            tracer.request = req.index
        done.append(send(req))
    return done, time.perf_counter() - t0


def check_all(done: list[Done]) -> list[str]:
    """Check every request's output; return one message per failed request."""
    failures = []
    for d in done:
        msgs = [d.error] if d.error else []
        if not msgs:
            try:
                msgs = d.request.check(d.output)
            except Exception as exc:  # an unreadable output fails its request
                msgs = [f"check raised {type(exc).__name__}: {exc}"]
        d.error = "; ".join(msgs) if msgs else None
        if msgs:
            failures.append(f"request {d.request.index} ({d.request.kind}): {d.error}")
    return failures


def units_done(done: list[Done]) -> int:
    return sum(d.request.units for d in done if d.error is None)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_probe(workload_name: str, seed: int) -> float:
    """Time from spawning a fresh process to its first timed request."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])) or "unavailable"
    return head or "unavailable (not a git checkout)"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = _read(str(index / "size"))
    return out


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "clients": 1,
        "peak_intermediate_bytes_computed": workload.peak_intermediate_bytes(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _prepare(args) -> tuple[object, Path]:
    _import_library()
    from workloads import WORKLOADS
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    workload.prepare()
    return workload, run_dir


def probe(args) -> int:
    workload, run_dir = _prepare(args)
    try:
        for req in workload.warmup(run_dir / "warmup"):
            req.run()
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def benchmark(args) -> int:
    workload, run_dir = _prepare(args)
    try:
        return _measure(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, workload, run_dir: Path) -> int:
    env = environment(workload, args.seed)
    warm = [send(req) for req in workload.warmup(run_dir / "warmup")]

    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "work_unit": workload.unit, "env": env}
    if args.trace:
        from tracing import Tracer
        half = args.seconds / 2.0
        base, base_wall = run_phase(workload, run_dir / "untraced", half)
        tracer = Tracer()
        tracer.install()
        try:
            timed, wall = run_phase(workload, run_dir / "traced", half, tracer)
        finally:
            tracer.uninstall()
        failures = check_all(warm) + check_all(base) + check_all(timed)
        metrics, absent = tracer.metrics(wall, units_done(timed), units_done(base) / base_wall)
        details["absent"] = absent
        details["not_run"] = sorted(
            name for name in metrics
            if name.endswith(".self_s") and metrics[name]["value"] == 0.0
        )
        tracer.write_spans(OUT_ROOT / f"spans-{workload.name}-seed{args.seed}.csv")
        attempted = warm + base + timed
    else:
        timed, wall = run_phase(workload, run_dir / "timed", args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = check_all(warm) + check_all(timed)
        setups = [setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        lat = [d.latency_s for d in timed]
        tail_s, tail_pct = tail(lat)
        metrics = {
            "work_per_s": _metric(units_done(timed) / wall, "unit/s"),
            "req_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
            "req_tail_ms": _metric(1e3 * tail_s, "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
        }
        by_kind = {}
        for d in timed:
            by_kind.setdefault(d.request.kind, []).append(d.latency_s)
        details.update({
            "timed_wall_s": wall,
            "requests": len(timed),
            "tail": {"percentile": tail_pct, "samples": len(lat)},
            "setup_samples_s": setups,
            "by_kind": {k: {"count": len(v), "p50_ms": 1e3 * statistics.median(v)}
                        for k, v in sorted(by_kind.items())},
        })
        attempted = warm + timed

    n_failed = sum(1 for d in attempted if d.error is not None)
    details["failed_frac"] = _metric(n_failed / len(attempted), "ratio")
    details["failures"] = failures[:20]
    result = {"correct": n_failed == 0, "attempted": len(attempted), "failed": n_failed,
              "metrics": metrics}

    print(f"obrs benchmark | workload {workload.name} | seed {args.seed} | trace {args.trace} "
          f"| unit: {workload.unit}")
    for name, m in sorted(metrics.items()):
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {details['failed_frac']['value']:>14.6g} ratio "
          f"({n_failed} of {len(attempted)} requests)")
    if "tail" in details:
        print(f"  req_tail_ms is p{details['tail']['percentile']:.2f} "
              f"of {details['tail']['samples']} requests")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    record = OUT_ROOT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": result}, indent=2) + "\n",
                      encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if n_failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lattice", "audit", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return probe(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
