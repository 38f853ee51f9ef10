"""The mixnorms benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process issues the next operation only after the
previous one returns; the BLAS pool is pinned to one thread, so a run needs
one core of the host.  The workloads are `search`, `certify`, `cotype` and
`cli` (bench/workloads.py).  The program is imported from `src/` of the
checkout this file sits in.

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json:
set-up time (the median of nine set-ups, eight of them in child processes),
per-operation latency, throughput, the workload's own work rate and peak
RSS.  On a shared host the same code runs through slow spells that last
tens of seconds and move every quantile but the lowest, so timings come
from each operation kind's fastest run: the program's cost with the least
interference.  The plain median and the tail latency are printed and
recorded, not reported as metrics.  With --trace 1 the benchmark wraps
every public function of the program's modules (bench/spans.py), runs
whole rounds for half of --seconds, replays the same rounds untraced to get
the tracing overhead, and reports the per-layer metrics.

Every output is checked outside the timed region (bench/oracles.py), and
for the golden seed against bench/goldens.json.  A human-readable report
goes to stdout, followed by one JSON line with the keys correct,
attempted, failed and metrics.  The run record and, for traced runs, the
spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is imported, here and in the set-up children.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per untraced run: this process plus SETUP_RUNS - 1 children.
SETUP_RUNS = 9

#: Failure messages printed to stderr before the rest are only counted.
MAX_REPORTED_FAILURES = 10


def import_program():
    """Import mixnorms from this checkout's src/, never from elsewhere."""
    package = SRC / "mixnorms"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mixnorms

    if Path(mixnorms.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: mixnorms imported from {mixnorms.__file__}, not {package}")
    return mixnorms


def setup(workload: str, seed: int):
    """Import the program, generate the first round, run one warm-up op.

    Returns (seconds, workload object).  The bench modules import numpy,
    so they are imported inside the timed region too.
    """
    start = time.perf_counter()
    mx = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](mx, seed)
    wl.call(wl.round(0)[0])
    return time.perf_counter() - start, wl


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


class Loop:
    """Closed-loop runner for one workload; accumulates over calls of run()."""

    def __init__(self, wl, goldens: list | None):
        self.wl = wl
        self.goldens = goldens
        self.latencies: dict = {}  # operation kind -> [(seconds, work)]
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float | None = None, rounds: int | None = None, tracer=None) -> int:
        """Run whole rounds until `seconds` of operation time have passed,
        or exactly `rounds` rounds.  Returns the number of rounds run.

        Only the operation itself is timed; input generation and checks
        run between clocks.
        """
        from workloads import same

        start_timed = self.timed
        k = 0
        while (self.timed - start_timed < seconds) if rounds is None else (k < rounds):
            for pos, op in enumerate(self.wl.round(k)):
                self.attempted += 1
                kind = self.wl.kind(pos, op) if hasattr(self.wl, "kind") else pos
                start = time.perf_counter()
                try:
                    if tracer is None:
                        out = self.wl.call(op)
                    else:
                        with tracer.op():
                            out = self.wl.call(op)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.timed += time.perf_counter() - start
                    self._fail(k, pos, f"raised {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
                self.timed += elapsed
                self.latencies.setdefault(kind, []).append((elapsed, self.wl.work(op, out)))
                try:
                    errors = self.wl.check(op, out)
                    if self.goldens is not None:
                        index = self.wl.golden_index(k, pos)
                        if index < len(self.goldens) and not same(self.wl.golden(out),
                                                                  self.goldens[index]):
                            errors.append(f"differs from golden {self.goldens[index]!r}")
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    errors = [f"malformed output: {exc!r}"]  # e.g. a payload without a key
                if errors:
                    self._fail(k, pos, "; ".join(errors))
            k += 1
        return k

    def _fail(self, k: int, pos: int, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {self.wl.name} round {k} op {pos}: {message}", file=sys.stderr)

    def recorded(self) -> dict:
        """The plain median latency and the tail: the highest percentile
        that still has ten samples beyond it, the 11th largest latency.
        Both move with the host's slow spells, so they are recorded only,
        with each operation kind's count, fastest and median latency."""
        xs = sorted(x for ops in self.latencies.values() for x, _ in ops)
        n = len(xs)
        doc = {"op_p50_ms": 1e3 * statistics.median(xs), "samples": n, "kinds": {
            str(kind): {"n": len(ops), "min_ms": 1e3 * min(x for x, _ in ops),
                        "p50_ms": 1e3 * statistics.median(x for x, _ in ops)}
            for kind, ops in self.latencies.items()}}
        if n > 10:
            doc.update(op_tail_ms=1e3 * xs[n - 11], percentile=100.0 * (n - 10) / n,
                       samples_beyond=10)
        return doc

    def end_to_end(self, setups: list[float]) -> dict[str, float]:
        """Timings come from each operation kind's fastest run.

        op_min_ms is the geometric mean over the kinds of their fastest
        latency.  ops_per_s and work_per_s are the rates of a round in which
        every kind takes its fastest latency; work_per_s counts only kinds
        that do work (exact sups on certify).
        """
        best = [min(ops) for ops in self.latencies.values()]
        worked = [(x, w) for x, w in best if w]
        return {
            "setup_s": statistics.median(setups),
            "op_min_ms": 1e3 * math.exp(statistics.fmean(math.log(x) for x, _ in best)),
            "ops_per_s": len(best) / math.fsum(x for x, _ in best),
            "work_per_s": math.fsum(w for _, w in worked) / math.fsum(x for x, _ in worked),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def load_goldens(workload: str, seed: int) -> list | None:
    """Golden outputs for this workload, or None for any other seed."""
    path = HERE / "goldens.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get(workload) if doc["seed"] == seed else None


def src_lines() -> dict[str, int]:
    from spans import LAYERS

    return {layer: len((SRC / "mixnorms" / f"{layer}.py").read_text(encoding="utf-8").splitlines())
            for layer in LAYERS}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict[str, str]:
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level is None:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> tuple[str | None, int | None]:
    """BLAS library name and version, and its thread count if it says."""
    import ctypes

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return None, None
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return name, fn()
    return name, None


def _commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct is not None:
        return direct
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def run_record(args) -> dict:
    import numpy as np

    blas, blas_threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "commit": _commit(),
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: no {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")

    setup_s, wl = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = run_record(args)
    loop = Loop(wl, load_goldens(args.workload, args.seed))
    report: dict = {"record": record}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        from spans import Tracer

        import mixnorms

        tracer = Tracer()
        tracer.install(mixnorms)
        try:
            rounds = loop.run(seconds=args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = loop.timed
        loop.run(rounds=rounds)
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = traced - (loop.timed - traced)
        for layer, lines in record["src_lines"].items():
            values[f"{layer}.src_lines"] = lines
        report["counts"] = dict(tracer.counts)
        specs = spec["per_layer"]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_RUNS - 1)]
        loop.run(seconds=args.seconds)
        values = loop.end_to_end(setups)
        report["setups_s"] = setups
        report["recorded"] = loop.recorded()
        specs = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    fail_ratio = loop.failed / loop.attempted
    report.update(metrics=metrics, attempted=loop.attempted, failed=loop.failed,
                  fail_ratio=fail_ratio)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(f"run_record = {json.dumps(record)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print("forms.sup_norm.exact.grid_bytes is computed as 8 B per vertex, not measured")
    else:
        rec = report["recorded"]
        print(f"recorded, not a metric: op_p50_ms = {rec['op_p50_ms']:.6g} ms over "
              f"{rec['samples']} operations")
        if "op_tail_ms" in rec:
            print(f"recorded, not a metric: op_tail_ms = {rec['op_tail_ms']:.6g} ms, "
                  f"p{rec['percentile']:.2f}: 10 of {rec['samples']} samples beyond")
    print(f"fail_ratio = {fail_ratio:.6g} ({loop.failed} of {loop.attempted} operations)")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
