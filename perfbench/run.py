"""Benchmark of the enclosure-atlas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a closed loop: one client
in one process, and the next op starts when the previous one has finished.
An op is one ``enclosure-atlas`` command line on a model file that
``workloads.py`` wrote from the seed. Ops run in whole cycles of the
workload's op kinds, as many as fill ``--seconds`` at the workload's nominal
cycle time, so every run does the same work. Every op passes
through the correctness gate, and a mismatch counts as a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the ops untraced for half the time and traced for the other half (after
one untimed cycle in-process), and reports the per-layer metrics;
``trace.overhead`` compares the two halves.
The last line of standard output is the result object; the line before it
holds the machine tag, sample counts and the sha256 of the structured
reports. Both also go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
LAUNCHER = HERE / "launcher.py"
RESULTS = ROOT / ".perfbench" / "results"
# Relative to ROOT, so batch reports name the same paths in every checkout.
WORK = Path(".perfbench", "work")

SETUP_REPEATS = 7  # fresh interpreters per run for setup_s and cli.import_s
WARMUP_OPS = 5  # untimed n = 8 decompositions before an in-process loop
OP_TIMEOUT_S = 120


def child_env() -> dict:
    """The caller's environment with ``src`` on the import path, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list) -> tuple[int | str, float]:
    """Run a child process to completion; return its exit code and wall time.

    The wait blocks in waitpid. ``subprocess.run(timeout=...)`` would poll
    instead, and its polling interval grows to 50 ms, which rounds every
    wall time of a fresh interpreter to that grid. A watchdog thread kills
    a child that runs longer than ``OP_TIMEOUT_S``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    if wall >= OP_TIMEOUT_S:
        code = f"killed after {OP_TIMEOUT_S} s"
    return code, wall


# -- runners: execute one op, return (exit code, wall seconds, launcher record) --

class InProcessRunner:
    """Calls ``enclosure_atlas.cli.main(argv)`` in this process."""

    def __init__(self, tracer=None):
        import enclosure_atlas.cli

        self.cli = enclosure_atlas.cli
        self.tracer = tracer

    def __call__(self, op):
        if self.tracer is not None:
            self.tracer.begin_op(op.index)
        start = time.perf_counter()
        try:
            code = self.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op
            code = f"raised {exc!r}"
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        return code, wall, None


class SubprocessRunner:
    """One fresh ``python -m enclosure_atlas.cli`` per op, or with ``traced``
    the launcher, which hands back its spans through a file."""

    def __init__(self, workdir: Path, traced: bool = False):
        self.workdir = workdir
        self.traced = traced

    def __call__(self, op):
        spans_path = self.workdir / f"op{op.index:05d}.spans.json"
        if self.traced:
            cmd = [sys.executable, str(LAUNCHER), str(spans_path), *op.argv]
        else:
            cmd = [sys.executable, "-m", "enclosure_atlas.cli", *op.argv]
        code, wall = run_child(cmd)
        layers = None
        if self.traced and spans_path.exists():
            layers = json.loads(spans_path.read_text())
        return code, wall, layers


def gate(op, code) -> tuple[list, bytes | None]:
    """Mismatches between the op's report and what its generator built."""
    raw = op.out.read_bytes() if op.out.exists() else None
    try:
        doc = json.loads(raw) if raw is not None else None
        problems = op.check(code, doc)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    return problems, raw


def run_cycles(workload, seed, runner, workdir, seconds):
    """Run the whole cycles of the workload's ops that fill ``seconds``.

    The cycle count comes from the workload's nominal cycle time, not from
    the clock, so every run does the same work and yields the same number of
    samples. A run that overshoots ``seconds`` threefold stops after its
    current cycle. Returns one record per op; the first cycle's records keep
    their report bytes for hashing.
    """
    cycle = len(workload.kinds)
    cycles = max(1, round(seconds / workload.cycle_s))
    records = []
    start = time.perf_counter()
    for _ in range(cycles):
        for _ in range(cycle):
            op = workload.op(seed, len(records), workdir)
            code, wall, layers = runner(op)
            problems, raw = gate(op, code)
            records.append({"index": op.index, "kind": op.kind, "code": code, "wall_s": wall,
                            "batch": "--batch" in op.argv,
                            "problems": problems, "layers": layers,
                            "report": raw if len(records) < cycle else None})
        if time.perf_counter() - start > 3 * seconds:
            break
    return records


# -- set-up -------------------------------------------------------------------

def fresh_import_s(repeats: int) -> list:
    """Wall time of ``import enclosure_atlas.cli`` in fresh interpreters.

    One untimed import first writes the bytecode caches of a new checkout, a
    cost users pay once, not per command.
    """
    times = []
    for _ in range(repeats + 1):
        code, wall = run_child([sys.executable, "-c", "import enclosure_atlas.cli"])
        if code != 0:
            raise RuntimeError(f"import enclosure_atlas.cli failed: exit {code}")
        times.append(wall)
    return times[1:]


def launcher_import_s(repeats: int, workdir: Path) -> list:
    """In-interpreter import time of ``enclosure_atlas.cli``, from the launcher."""
    times = []
    path = workdir / "import.json"
    for _ in range(repeats):
        code, _ = run_child([sys.executable, str(LAUNCHER), str(path)])
        if code != 0:
            raise RuntimeError(f"launcher failed: exit {code}")
        times.append(json.loads(path.read_text())["import_s"])
    return times


def warm_up(workdir: Path, seed: int) -> tuple[float, list]:
    """Untimed n = 8 analyze ops in this process; returns their time and records."""
    warm = workloads.Workload("warmup", workloads.WARMUP, in_process=True, cycle_s=0.0)
    runner = InProcessRunner()
    start = time.perf_counter()
    records = []
    for i in range(WARMUP_OPS):
        op = warm.op(seed, i, workdir)
        code, wall, _ = runner(op)
        records.append({"kind": op.kind, "code": code, "wall_s": wall,
                        "problems": gate(op, code)[0]})
    return time.perf_counter() - start, records


def machine_tag() -> dict:
    import numpy
    import scipy

    tag = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    tag["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        tag["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        tag["blas"] = "unknown"
    tag["blas_threads"] = _blas_threads()
    return tag


def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


# -- metrics ------------------------------------------------------------------

def end_to_end(records, setup, in_process) -> dict:
    walls = [r["wall_s"] for r in records]
    failed = sum(1 for r in records if r["problems"])
    residuals = []
    for r in records:
        if r["report"] is not None:
            residuals += workloads.report_residuals(json.loads(r["report"]))
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(walls),
        "op_s.p90": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "accuracy_digits.min": workloads.accuracy_digits(residuals),
        "ops_ok_ratio": 1 - failed / len(records),
    }


def per_layer(ops, untraced, traced, import_times, warmup_s) -> tuple[dict, float]:
    """Per-op means of the traced ops' layer values, plus derived metrics.

    ``ops`` holds one dict of layer values per traced op, with ``main_s``
    the wall time of its ``main`` call. Returns the metrics and the largest
    relative gap between an op's summed self time and ``main_s``. Batch ops
    are left out of the gap: their worker threads overlap, so their self
    times add up to more than the wall time.
    """
    keys = set().union(*ops)
    metrics = {k: sum(v.get(k, 0) for v in ops) / len(ops) for k in keys}
    metrics["linalg.kernel_basis.max_dim"] = max(
        (v.get("linalg.kernel_basis.max_dim", 0) for v in ops), default=0)
    calls = sum(v.get("decomposition.cluster_calls", 0) for v in ops)
    useful = sum(v.get("decomposition.cluster_useful", 0) for v in ops)
    metrics["decomposition.cluster_useful_ratio"] = useful / calls if calls else 0.0
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["trace.overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                 / statistics.median(r["wall_s"] for r in untraced) - 1)
    metrics["warmup_s"] = warmup_s
    gap = max((abs(v["self_sum_s"] - v["main_s"]) / v["main_s"]
               for v in ops if not v["batch"]), default=0.0)
    return metrics, gap


def result_metrics(values: dict, section: str) -> dict:
    """The BENCHMARK.json metrics of one section, each with its unit.

    A per-layer metric whose layer did not run in this workload reads 0.
    """
    spec = json.loads(BENCHMARK.read_text())[section]
    out = {}
    for metric in spec:
        value = values.get(metric["name"], 0.0 if section == "per_layer" else None)
        if value is None:
            raise KeyError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return out


# -- entry point --------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[workload_name]
    workdir = WORK / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup = fresh_import_s(SETUP_REPEATS)
    warmup_s, warm_records = 0.0, []
    if workload.in_process:
        warmup_s, warm_records = warm_up(workdir, seed)
        runner = InProcessRunner()
    else:
        runner = SubprocessRunner(workdir)

    info = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine_tag(), "setup_s_samples": setup, "warmup_s": warmup_s,
            "warmup_op_s": [r["wall_s"] for r in warm_records]}
    if not trace:
        records = run_cycles(workload, seed, runner, workdir, seconds)
        values = end_to_end(records, setup, workload.in_process)
        metrics = result_metrics(values, "end_to_end")
        all_records = warm_records + records
        digest = hashlib.sha256()
        for r in records:
            if r["report"] is not None:
                digest.update(r["report"])
        info["report_sha256"] = digest.hexdigest()
        info["reports_hashed"] = sum(1 for r in records if r["report"] is not None)
    else:
        half = seconds / 2
        # One untimed cycle first, so that the untraced half alone does not
        # pay the first calls at n = 24 and skew trace.overhead.
        primed = (run_cycles(workload, seed, runner, workdir, workload.cycle_s)
                  if workload.in_process else [])
        untraced = run_cycles(workload, seed, runner, workdir, half)
        if workload.in_process:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_cycles(workload, seed, InProcessRunner(tracer), workdir, half)
            finally:
                tracer.uninstall()
            by_op = spans.layer_values_by_op(tracer.spans, tracer.counts)
            ops = [dict(by_op[r["index"]], main_s=r["wall_s"], batch=r["batch"])
                   for r in traced]
            import_times = launcher_import_s(SETUP_REPEATS, workdir)
            spans_doc = {"spans": tracer.spans,
                         "counts": {str(k): v for k, v in tracer.counts.items()}}
        else:
            traced = run_cycles(workload, seed, SubprocessRunner(workdir, traced=True),
                                workdir, half)
            # A child that died before writing its spans is already a failed op.
            launched = [(r["layers"], r["batch"]) for r in traced if r["layers"] is not None]
            ops = [dict(spans.layer_values_by_op(rec["spans"], {0: rec["counts"]})[0],
                        main_s=rec["main_s"], batch=batch) for rec, batch in launched]
            import_times = [rec["import_s"] for rec, _ in launched]
            spans_doc = {str(r["index"]): r["layers"] for r in traced}
        values, gap = per_layer(ops, untraced, traced, import_times, warmup_s)
        metrics = result_metrics(values, "per_layer")
        info["trace_self_sum_max_gap"] = gap
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"{workload_name}-seed{seed}-spans.json").write_text(json.dumps(spans_doc))
        records = untraced + traced
        all_records = warm_records + primed + records

    failures = [r for r in all_records if r["problems"]]
    info["op_samples"] = len(records)
    info["op_s"] = [r["wall_s"] for r in records]
    info["op_s_by_kind"] = {
        kind: statistics.median(r["wall_s"] for r in records if r["kind"] == kind)
        for kind in workload.kinds
    }
    info["failures"] = [{"kind": r["kind"], "problems": r["problems"]} for r in failures][:20]
    result = {"correct": not failures, "attempted": len(all_records), "failed": len(failures),
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enclosure_atlas" / "cli.py").is_file() or not BENCHMARK.is_file():
        sys.stderr.write(f"no enclosure_atlas sources under {SRC}; run from a checkout\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("--seed must be nonnegative\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    os.chdir(ROOT)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
