"""Write ``references.json``: the values the output checks compare against.

Usage (from the repository root)::

    python3 perfbench/make_references.py

``radial`` holds the ground truths of the voxel ball and disk: the energy
terms of the unit ball from the CLI's radial ``ball`` route, with the
kernels of the voxel ops.  ``ops`` holds the results of the ops whose
inputs do not depend on the seed, computed at seed 0.  Regenerate only
when a change is meant to move these numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def run_op(op, env, outdir):
    argv = [sys.executable, "-m", "nldrop"] + op.argv(outdir)
    _, _, code, stderr = run.run_child(argv, env, 900.0)
    if code != 0:
        raise SystemExit(f"{op.op_id} failed: {stderr}")
    return checks.load_summary(outdir, op.subcommand)


def main() -> int:
    env = run.child_env(run.usable_cores())
    tmp = tempfile.mkdtemp(prefix="perfbench-ref-", dir=run.ROOT)
    try:
        radial = {}
        for N, eps in ((2, 0.75), (3, workloads.EPS3)):
            op = workloads.Op(f"radial-{N}", "energy",
                              {"kernel.dimension": N, "kernel.epsilon": eps})
            op.config_path = os.path.join(tmp, f"{op.op_id}.cfg")
            with open(op.config_path, "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(op.config))
            report = run_op(op, env, os.path.join(tmp, op.op_id))["report"]
            radial[str(N)] = {t: report[t] for t in checks.ENERGY_TERMS}
        ops = {}
        for name in ("balls", "voxel-3d", "diag-2d"):
            for op in workloads.generate(name, 0, os.path.join(tmp, name)):
                if op.check == "energy":
                    report = run_op(op, env, os.path.join(tmp, name, op.op_id))["report"]
                    ops[op.op_id] = {k: report[k] for k in checks.ENERGY_TERMS + ("total",)}
                elif op.check == "reference":
                    summary = run_op(op, env, os.path.join(tmp, name, op.op_id))
                    rec = checks.record_at(summary, op.check_args["path"])
                    ops[op.op_id] = {op.check_args["value"]: rec[op.check_args["value"]]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"radial": radial, "ops": ops}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
