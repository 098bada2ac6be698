"""mixedflow benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload paper-amortized --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, and the metric names and units come from ./BENCHMARK.json. BLAS is
pinned to one thread before numpy loads. The run writes its inputs from
the seed, times set-up in separate processes, runs the workload's ops for
the given seconds, checks every op's outputs and prints one JSON object
as its last line: end-to-end metrics with --trace 0, per-layer metrics of a
traced run with --trace 1. The full record (environment, every op, the
spans) goes to .perfbench_out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 6


def import_package():
    """Make ./src/mixedflow the package every later import sees."""
    if not (SRC / "mixedflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mixedflow sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import mixedflow
    if Path(mixedflow.__file__).resolve().parent != (SRC / "mixedflow").resolve():
        sys.exit(f"perfbench: mixedflow was imported from {mixedflow.__file__}, not {SRC}")


class FallbackCounter(logging.Handler):
    """Counts the uniform-weight fallbacks `mixedflow.refine` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "falling back to uniform" in record.getMessage():
            self.count += 1


@dataclass
class Op:
    index: int
    traced: bool
    prepare: bool
    result: object = None   # workloads.OpResult
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error or self.result.problems)

    @property
    def units(self) -> int:
        """Ops this op counts as in per-op figures: one per calibration set."""
        return self.result.datasets if self.prepare and self.result else 1


def run_op(call, index: int, tracer, traced: bool, seq: int, prepare: bool = False) -> Op:
    """Run one op; when traced, its spans carry op id `seq`."""
    op = Op(index, traced, prepare)
    try:
        if traced:
            with tracer.op("bench.op", seq):
                op.result = call()
        else:
            op.result = call()
    except Exception as exc:  # counted as a failed op; the run goes on
        op.error = f"{type(exc).__name__}: {exc}"[:300]
    return op


def probe_setup(workload: str, work: Path) -> float:
    """Seconds from starting a fresh process to its being ready for the
    first op: interpreter, imports, load_model, load_datasets."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--probe-setup", str(work)]
    start = time.time()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(out.split()[-1]) - start


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile at or above the median with at least
    ten values beyond it (nearest rank), and that percentile. Below twenty
    values there is none, and the median stands in for it."""
    v = sorted(values)
    n = len(v)
    if n < 20:
        return statistics.median(v), 50
    pct = (100 * (n - 10)) // n
    return v[math.ceil(pct * n / 100) - 1], pct


def blas_threads():
    import ctypes
    import glob
    import numpy as np
    base = Path(np.__file__).resolve().parent.parent
    for lib in glob.glob(str(base / "numpy.libs" / "*openblas*")) + \
            glob.glob(str(base / "scipy_openblas*" / "lib" / "*.so*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "platform": platform.platform(),
            "git_commit": git_commit(), "seed": seed}


def end_to_end(ops: list[Op], setup_times: list[float]) -> tuple[dict, dict]:
    done = [op for op in ops if op.result is not None]
    loop = [op.result.seconds for op in done if not op.prepare]
    if not loop:   # every op failed: the result says so through `failed`
        return {name: 0.0 for name in ("setup_s", "op_p50_ms", "op_tail_ms",
                                       "datasets_per_s", "peak_rss_mb")}, {}
    tail_s, pct = tail(loop)
    datasets = sum(op.result.datasets for op in done)
    wall = sum(op.result.wall for op in done)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1000 * statistics.median(loop),
        "op_tail_ms": 1000 * tail_s,
        "datasets_per_s": datasets / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = len(loop) - math.ceil(pct * len(loop) / 100)
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "op_p50_ms": f"median of {len(loop)} ops",
             "op_tail_ms": f"p{pct} of {len(loop)} ops, {beyond} beyond",
             "datasets_per_s": f"{datasets} datasets in {wall:.2f} s of ops"}
    for op in done:
        if op.prepare:
            notes["calibrate_sets_per_s"] = f"{op.result.datasets / op.result.seconds:.4g} " \
                f"({op.result.datasets} sets in {op.result.seconds:.2f} s)"
    return metrics, notes


def per_layer(names: list[str], tracer, ops: list[Op], fallbacks: int) -> dict:
    from tracing import self_times
    spans = tracer.spans
    own = self_times(spans)
    units = max(sum(op.units for op in ops if op.traced), 1)
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        scale = 1.0 if s[4] < 0 else 1.0 / units   # set-up spans: once per set-up
        for suffix, value in (("ms", 1000 * t), ("calls", 1), ("bytes", s[5])):
            key = f"{s[0]}.{suffix}"
            totals[key] = totals.get(key, 0.0) + value * scale

    ms_layers = {n[:-3] for n in names if n.endswith(".ms")}
    op_spans = [(s, t) for s, t in zip(spans, own) if s[4] >= 0]
    root_time = sum(s[2] - s[1] for s, _ in op_spans if s[3] < 0)
    covered = sum(t for s, t in op_spans if s[0] in ms_layers)

    by_index: dict[int, dict[bool, float]] = {}
    for op in ops:
        if op.result is not None and not op.prepare:
            by_index.setdefault(op.index, {})[op.traced] = op.result.wall
    pairs = [(p[True], p[False]) for p in by_index.values() if len(p) == 2]
    ess = [op.result.ess_share for op in ops if op.result and op.result.ess_share is not None]
    special = {
        "summary.local.real_row_share":
            tracer.local_rows_real / tracer.local_rows_total if tracer.local_rows_total else 0.0,
        "refine.ess_share": statistics.mean(ess) if ess else 0.0,
        "refine.fallbacks": fallbacks / sum(op.units for op in ops),
        "trace.overhead_ms": 1000 * statistics.median(a - b for a, b in pairs) if pairs else 0.0,
        "trace.overhead_share":
            sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1 if pairs else 0.0,
        "trace.accounted_share": covered / root_time if root_time else 0.0,
    }
    return {n: special[n] if n in special else totals.get(n, 0.0) for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        wl.load(Path(args.probe_setup))
        print(repr(time.time()), flush=True)
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fallbacks = FallbackCounter()
    logging.getLogger("mixedflow.refine").addHandler(fallbacks)
    try:
        wl.build(work, args.seed)
        probes = 0 if args.trace else SETUP_PROBES
        # half of the set-ups before the ops and half after, so that they
        # sample the machine over the whole run
        setup_times = [probe_setup(wl.name, work) for _ in range(probes // 2)]
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            with tracer.op("bench.setup", -1):
                state = wl.load(work)
        else:
            state = wl.load(work)
        problems = wl.check_model(state)

        ops = []
        prep = run_op(lambda: wl.prepare(state, args.seed), -1, tracer, bool(tracer), 0, True)
        if prep.error or prep.result is not None:
            ops.append(prep)
        # untimed, so that lazy allocation settles; loop ops repeat them
        warmups = [run_op(lambda: wl.op(state, args.seed, j), j, None, False, 0)
                   for j in range(wl.warmup_ops)]
        deadline = perf_counter() + args.seconds
        i = 0
        while i < (2 if tracer else 1) or perf_counter() < deadline:
            index = i // 2 if tracer else i   # traced run: untraced, traced pairs
            ops.append(run_op(lambda: wl.op(state, args.seed, index), index, tracer,
                              bool(tracer) and i % 2 == 1, len(ops) + 1))
            i += 1
        setup_times += [probe_setup(wl.name, work) for _ in range(probes - probes // 2)]
    finally:
        logging.getLogger("mixedflow.refine").removeHandler(fallbacks)
        shutil.rmtree(work, ignore_errors=True)

    checked = warmups + ops
    for op in checked:
        if op.result is not None and not op.prepare:
            first = next(o for o in checked if o.index == op.index and o.result and not o.prepare)
            if op.result.fingerprint != first.result.fingerprint:
                op.result.problems.append(f"op {op.index} repeated with the same seed "
                                          "gave different outputs")
    failed = sum(op.failed for op in checked)
    for op in checked:
        if op.failed:
            problems.append(f"op {op.index}: {op.error or '; '.join(op.result.problems)}")

    if args.trace:
        metrics = per_layer(list(units), tracer, ops, fallbacks.count)
        notes = {}
    else:
        metrics, notes = end_to_end(ops, setup_times)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: computed {sorted(metrics)}, BENCHMARK.json lists {sorted(units)}")

    print(f"workload {wl.name}: {wl.op_name}; seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {len(checked)} ops with the warm-up, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:34s} {note}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    env = environment(args.seed)
    print("  environment " + json.dumps(env))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": wl.name, "op": wl.op_name, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "metrics": metrics, "notes": notes, "problems": problems,
              "ops": [asdict(op) for op in checked],
              "spans": tracer.spans if tracer else []}
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not problems, "attempted": len(checked), "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
