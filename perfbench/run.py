"""nldrop benchmark: CLI jobs timed end to end, and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload balls --seed 1 --seconds 25 --trace 0

Each op is one ``python -m nldrop SUBCOMMAND --config FILE`` job in a fresh
process, run one at a time from this process, with the thread variables of
the numerical libraries capped at the number of usable cores.  A run writes
the workload's inputs for ``--seed``, times ``import nldrop.cli`` in fresh
interpreters, then repeats passes over the ops for about ``--seconds``
seconds (at least two passes, so that every op's CSV and JSON can be
compared byte for byte between two runs) and checks every output.

With ``--trace 0`` the run reports, per workload:

    wall_s       s      one pass: sum over the ops of their median time
    peak_rss_mb  MB     largest max-RSS of a successful op
    setup_s      s      median time of a fresh ``import nldrop.cli``
    fail_frac    ratio  ops that exited wrongly or failed a check / ops run
    rel_err      ratio  largest relative error against a ground truth

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It carries ``wall_s``,
``peak_rss_mb`` and ``setup_s``; ``fail_frac`` joins them when it is not
zero, and a workload whose ops all failed reports only ``fail_frac`` and
``setup_s``.  ``rel_err`` is checked per op (see checks.py) and printed.

With ``--trace 1`` passes alternate between plain and traced runs of the
ops (``trace_shim.py``).  The run reports the per-layer metrics of
``spans.LAYER_METRICS`` (median over traced passes) and ``trace.overhead_s``,
the traced minus the plain pass time.  Spans of all ops are written to
``.perfbench-out/<workload>-seed<n>-spans.json``; a summary of every run,
with the Python, numpy and scipy versions, core count and seed, goes to
``.perfbench-out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 2
# Every run ends well within this many seconds; an op still running when
# the deadline comes is killed and counts as failed.
RUN_DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.pop("NLDROP_OUTPUT_DIR", None)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def environment(seed: int, threads: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": usable_cores(),
        "threads": threads,
        "seed": seed,
    }


def run_child(argv, env, timeout_s):
    """Run one process to completion: (seconds, max-RSS MB, exit code, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
    watchdog.start()
    try:
        stderr = proc.stderr.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    elapsed = time.perf_counter() - t0
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, stderr


class Runner:
    """Runs the ops of one workload and keeps one record per op run."""

    def __init__(self, ops, env, refs, deadline, workdir):
        self.ops = ops
        self.env = env
        self.refs = refs
        self.deadline = deadline
        self.workdir = workdir
        self.records = []
        self.first_ok_dir = {}
        self.spans = {}  # pass index -> op id -> spans

    def run_pass(self, index: int, traced: bool) -> float:
        """One pass over the ops; returns the summed time of successful ops."""
        total = 0.0
        for op in self.ops:
            outdir = os.path.join(self.workdir, f"pass{index}", op.op_id)
            os.makedirs(outdir, exist_ok=True)
            if traced:
                span_file = os.path.join(outdir, "spans.json")
                argv = [sys.executable, os.path.join(HERE, "trace_shim.py"), span_file,
                        f"{op.op_id}#{index}"]
            else:
                argv = [sys.executable, "-m", "nldrop"]
            argv += op.argv(outdir)
            remaining = self.deadline - time.perf_counter()
            seconds, rss, code, stderr = run_child(argv, self.env, remaining)
            problems, rel = checks.check_op(op, code, stderr, outdir, self.refs)
            if not problems:
                if op.op_id in self.first_ok_dir:
                    problems = checks.outputs_identical(
                        self.first_ok_dir[op.op_id], outdir, op.subcommand
                    )
                else:
                    self.first_ok_dir[op.op_id] = outdir
            if traced:
                try:
                    with open(span_file, encoding="utf-8") as fh:
                        self.spans.setdefault(index, {})[op.op_id] = json.load(fh)["spans"]
                except (OSError, ValueError) as exc:
                    problems.append(f"no spans: {exc}")
            ok = not problems
            self.records.append(
                {
                    "op": op.op_id,
                    "pass": index,
                    "traced": traced,
                    "ok": ok,
                    "seconds": seconds if ok else None,
                    "rss_mb": rss if ok else None,
                    "exit": code,
                    "rel_err": rel,
                    "problems": problems,
                }
            )
            if ok:
                total += seconds
        return total


def measure_setup(env, deadline, repeats) -> list:
    """Fresh-interpreter ``import nldrop.cli`` times; a first untimed import
    compiles the bytecode, as an installed package would have it."""
    argv = [sys.executable, "-c", "import nldrop.cli"]
    times = []
    for i in range(repeats + 1):
        seconds, _, code, stderr = run_child(argv, env, deadline - time.perf_counter())
        if code != 0:
            raise RuntimeError(f"import nldrop.cli failed: {stderr.strip()[-500:]}")
        if i:
            times.append(seconds)
    return times


def end_to_end_metrics(records, setup_times):
    plain = [r for r in records if not r["traced"]]
    ok = [r for r in plain if r["ok"]]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    per_op = {}
    for r in ok:
        per_op.setdefault(r["op"], []).append(r["seconds"])
    rel = [r["rel_err"] for r in records if r["ok"] and r["rel_err"] is not None]
    summary = {
        "wall_s": sum(statistics.median(v) for v in per_op.values()) if ok else None,
        "peak_rss_mb": max(r["rss_mb"] for r in ok) if ok else None,
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "fail_frac": failed / attempted,
        "rel_err": max(rel) if rel else None,
    }
    return summary, per_op, attempted, failed


UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "fail_frac": "ratio", "rel_err": "ratio"}


def reported_metrics(summary):
    """The metrics of the JSON line: every end-to-end metric with a value,
    ``fail_frac`` only when some op failed, ``rel_err`` never."""
    keys = ["wall_s", "peak_rss_mb", "setup_s"]
    if summary["fail_frac"] > 0:
        keys.append("fail_frac")
    return {
        k: {"value": summary[k], "unit": UNITS[k]}
        for k in keys
        if summary[k] is not None
    }


def trace_metrics(runner, pass_walls):
    traced_passes = sorted({r["pass"] for r in runner.records if r["traced"]})
    per_pass = [
        spans_mod.layer_metrics(runner.spans.get(index, {}).values())
        for index in traced_passes
    ]
    metrics = {}
    for fn, stat in spans_mod.LAYER_METRICS:
        name = f"{fn}.{stat}"
        metrics[name] = {
            "value": statistics.median(p[name] for p in per_pass),
            "unit": spans_mod.UNITS[stat],
        }
    plain = [w for i, w in pass_walls if i not in traced_passes]
    traced = [w for i, w in pass_walls if i in traced_passes]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s",
    }
    return metrics


def write_spans(path, runner):
    rows = [
        [f"{op}#{index}"] + sp
        for index, by_op in sorted(runner.spans.items())
        for op, sps in by_op.items()
        for sp in sps
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["op", "id", "parent", "name", "start", "end", "samples"],
                   "spans": rows}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "nldrop", "cli.py")):
        print(f"perfbench: no nldrop sources under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    threads = usable_cores()
    env = child_env(threads)
    info = environment(args.seed, threads)
    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))

    setup_times = measure_setup(env, deadline, 0 if args.trace else SETUP_REPEATS)
    runner = Runner(ops, env, refs, deadline, workdir)
    pass_walls = []
    measure_start = time.perf_counter()
    while True:
        index = len(pass_walls)
        t0 = time.perf_counter()
        wall = runner.run_pass(index, traced=bool(args.trace) and index % 2 == 1)
        pass_walls.append((index, wall))
        last = time.perf_counter() - t0
        now = time.perf_counter()
        if len(pass_walls) >= MIN_PASSES and (
            now - measure_start + last > args.seconds or now + last > deadline
        ):
            break

    summary, per_op, attempted, failed = end_to_end_metrics(runner.records, setup_times)
    if args.trace:
        metrics = trace_metrics(runner, pass_walls)
        write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json"), runner)
    else:
        metrics = reported_metrics(summary)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": info, "workload": args.workload, "summary": summary,
                   "setup_times": setup_times, "passes": pass_walls,
                   "records": runner.records, "result": result}, fh, indent=1)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(pass_walls)}  run {time.perf_counter() - start:.1f} s")
    print("# env " + " ".join(f"{k}={v}" for k, v in info.items()))
    for op_id, times in per_op.items():
        print(f"# op {op_id}: median {statistics.median(times):.3f} s over {len(times)} runs")
    for r in runner.records:
        for problem in r["problems"]:
            print(f"# FAILED {r['op']} pass {r['pass']}: {problem}")
    for key, unit in UNITS.items():
        value = summary[key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{key:<12} {shown} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<52} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
