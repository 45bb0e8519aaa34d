#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the swipe command line.

Run from the repository root:

    python3 perfbench/run.py --workload train-flat --seed 1 --seconds 30 --trace 0

The seed generates the workload's inputs (see corpora.py); the program only
receives the generated JSONL files. Set-up (input generation and writing, plus
checkpoint training where the workload trains in set-up) runs several times
and reports its median. Then whole cycles of user commands run until
`--seconds` have passed, and every output is checked. Last, one untimed
`swipe predict` runs in a fresh process (memprobe.py) to measure its memory.

With `--trace 0` the last line reports the end-to-end metrics, measured with
no tracing. With `--trace 1` cycles alternate untraced and traced; the traced
ones give the per-layer metrics (layers.py) and the pairs give the tracing
overhead. Spans are written to `.bench_out/` when the run ends.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
The exit code is 0 only if every check passed.
"""

import os

# Pin BLAS/OpenMP to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
from memprobe import status_mb  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

SETUPS = 5


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for `end_to_end` or `per_layer`, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import swipe from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "swipe"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no program source at {package}")
    sys.path.insert(0, str(package.parent))
    import swipe.cli
    import swipe.corpus
    import swipe.hashing
    import swipe.model

    if Path(swipe.__file__).resolve().parent != package.resolve():
        raise ImportError(f"swipe imported from {swipe.__file__}, not {package}")
    return swipe


def git_commit() -> str | None:
    """HEAD of this checkout, or None where it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(swipe) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "native_hash_kernel": bool(swipe.hashing.HAVE_NATIVE_KERNEL),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _entry_points(swipe):
    """`swipe train` etc. and the loop's loaders, looked up at call time so
    that traced cycles see the tracer's wrappers."""
    cli_main = lambda argv: swipe.cli.main(argv)  # noqa: E731
    loader = (lambda p: swipe.model.SwipeModel.load(p),
              lambda p: swipe.corpus.load_documents(p))
    return cli_main, loader


def run_cycles(run: Run, swipe, seconds: float, tracer: Tracer | None) -> dict:
    """Whole cycles until `seconds` pass; with a tracer, odd cycles are traced.

    Every operation is bracketed by the calibration kernel, and its wall time
    is kept both raw and corrected for the slowdown measured around it.
    """
    cli_main, loader = _entry_points(swipe)
    raw_s = {op: [] for op in run.ops()}
    op_s = {op: [] for op in run.ops()}
    loop_ms: list[list[float]] = []       # corrected latencies, one list per cycle
    loop_raw_ms: list[list[float]] = []
    cycle_s = {False: [], True: []}       # corrected operation seconds per cycle
    slowdowns: dict[int, float] = {}      # traced operation's span id -> slowdown
    repeat = (0, 0)
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        corrector = calibrate.Corrector()
        total = 0.0
        if traced:
            tracer.install()
        try:
            for op in run.ops():
                gc.collect()
                if traced:
                    tracer.op = op
                    if op == "predict":
                        tracer.scratch["hashed_tokens"] = []
                    with tracer.span(f"bench.{op}") as span:
                        elapsed, slowdown = corrector.around(
                            lambda: run.run_op(op, cli_main, loader))
                    slowdowns[span.sid] = slowdown
                    if op == "predict":
                        repeat = layers.repeat_share(tracer.scratch.pop("hashed_tokens"))
                else:
                    elapsed, slowdown = corrector.around(
                        lambda: run.run_op(op, cli_main, loader))
                    raw_s[op].append(elapsed)
                    op_s[op].append(elapsed / slowdown)
                    if op == "loop":
                        loop_raw_ms.append(run.loop_ms)
                        loop_ms.append([ms / slowdown for ms in run.loop_ms])
                total += elapsed / slowdown
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
        cycle_s[traced].append(total)
        i += 1
        # Stop where the run ends closest to `seconds` with whole cycles.
        mean_cycle = (time.perf_counter() - started) / i
        if time.perf_counter() + mean_cycle / 2 >= deadline and (tracer is None or i >= 2):
            break
    return {"raw_s": raw_s, "op_s": op_s, "loop_ms": loop_ms, "loop_raw_ms": loop_raw_ms,
            "cycle_s": cycle_s, "repeat": repeat, "slowdowns": slowdowns}


def end_to_end(run: Run, setups: list[dict], op_s: dict, loop_ms,
               predict_mb: float) -> dict[str, float]:
    """End-to-end metrics from per-cycle operation seconds and loop latencies.

    Rates are medians over cycles. Latency percentiles are taken over
    documents, each document's latency being its median over cycles, so a
    burst of contention in one cycle does not land in the tail.
    """
    docs = run.op_docs
    train_s = op_s.get("train") or [s["train_s"] for s in setups]

    def rate(op, times):
        return statistics.median(docs[op] / t for t in times)

    per_doc = [statistics.median(calls) for calls in zip(*loop_ms)]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "train_docs_per_s": rate("train", train_s),
        "eval_docs_per_s": rate("eval", op_s["eval"]),
        "predict_docs_per_s": rate("predict", op_s["predict"]),
        "explain_docs_per_s": rate("explain", op_s["explain"]),
        "predict_doc_ms_p50": layers.percentile(per_doc, 50),
        "predict_doc_ms_p99": layers.percentile(per_doc, 99),
        "predict_rss_mb": predict_mb,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              small: bool = False, out_dir: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    swipe = import_program()
    memory = {"rss_after_import_mb": status_mb("VmRSS")}
    env = environment(swipe)
    if env["native_hash_kernel"]:
        print("warning: the compiled hashing kernel is active; hashing figures are "
              "not comparable with pure-Python runs", file=sys.stderr)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        run = Run(WORKLOADS[workload], seed, small, work)
        corrector = calibrate.Corrector()
        raw_setups, setups = [], []
        for i in range(1 if small else SETUPS):
            timings, slowdown = corrector.around(lambda: run.setup(swipe.cli.main, i))
            raw_setups.append(timings)
            setups.append({k: v / slowdown for k, v in timings.items()})
        tracer = Tracer(layers.TARGETS) if trace else None
        gc.collect()
        memory["rss_after_setup_mb"] = status_mb("VmRSS")
        measured = run_cycles(run, swipe, seconds, tracer)
        memory.update(run.predict_memory(HERE / "memprobe.py"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "small": small, "env": env, "quality": run.quality, "memory": memory,
        "cycles": {"untraced": len(measured["cycle_s"][False]),
                   "traced": len(measured["cycle_s"][True])},
        "op_docs": run.op_docs,
        "loop": {"documents": len(measured["loop_ms"][0]) if measured["loop_ms"] else 0,
                 "calls": sum(map(len, measured["loop_ms"]))},
        "attempted": run.checks.attempted, "failed": run.checks.failed,
        "failures": run.checks.messages,
        "end_to_end": end_to_end(run, setups, measured["op_s"], measured["loop_ms"],
                                 memory["predict_rss_mb"]),
        "samples": {"op_s": measured["op_s"], "op_raw_s": measured["raw_s"],
                    "loop_ms": measured["loop_ms"], "setup": setups, "setup_raw": raw_setups},
        "end_to_end_raw": end_to_end(run, raw_setups, measured["raw_s"],
                                     measured["loop_raw_ms"], memory["predict_rss_mb"]),
    }
    if tracer is not None:
        overhead = (statistics.median(measured["cycle_s"][True])
                    / statistics.median(measured["cycle_s"][False]))
        report["per_layer"], report["per_layer_bases"] = layers.per_layer_metrics(
            tracer, len(measured["cycle_s"][True]), run.op_docs, measured["repeat"],
            overhead, measured["slowdowns"])
        report["absent"] = tracer.absent
        if out_dir is not None:
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{workload}-seed{seed}.spans.jsonl.gz")
    if out_dir is not None:
        out_dir.mkdir(exist_ok=True)
        name = f"{workload}-seed{seed}-trace{int(trace)}.json"
        (out_dir / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def print_report(report: dict) -> None:
    env = report["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("memory " + " ".join(f"{k}={v}" for k, v in report["memory"].items()))
    print(f"workload={report['workload']} seed={report['seed']} "
          f"cycles={report['cycles']} loop={report['loop']}")
    for key, value in sorted(report["quality"].items()):
        print(f"quality {key} {value}")
    end_units, layer_units = units("end_to_end"), units("per_layer")
    for name, value in report["end_to_end"].items():
        raw = report["end_to_end_raw"][name]
        print(f"end_to_end {name} {value} {end_units[name]} (uncorrected {raw})")
    for name, value in report.get("per_layer", {}).items():
        unit, (item, what) = layer_units[name], layers.PER_LAYER[name]
        base = report["per_layer_bases"].get(name)
        tag = (f"; base {base}" if base else "") + (f"; ROADMAP item {item}" if item else "")
        print(f"per_layer {name} {value} {unit} ({what}{tag})")
    if report.get("absent"):
        print("absent " + " ".join(report["absent"]))
    attempted, failed = report["attempted"], report["failed"]
    print(f"error_rate {failed / attempted if attempted else 1.0} "
          f"({failed} failed of {attempted} operations)")
    for message in report["failures"]:
        print(f"failed: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs and one set-up, for smoke tests")
    args = parser.parse_args(argv)
    try:
        report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           small=args.small, out_dir=ROOT / ".bench_out")
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    listed = units("per_layer" if args.trace else "end_to_end")
    correct = report["failed"] == 0 and report["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in listed.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
