"""Output checks of one op.

Each check reads the op's ``<subcommand>.json`` (and ``.csv`` where
needed) and returns ``(problems, rel_err)``: a list of what is wrong, empty
when the output is right, and the largest relative error against a ground
truth, or ``None`` when the op has none.  Ground truths are closed forms and
the radial ball values in ``references.json``; other stored references are
this package's own results on the same inputs and must be matched within
the error the op reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import List, Optional, Tuple

# Relative tolerance of the critical masses against the closed form.
CRITICAL_MASS_RTOL = 1e-9
ENERGY_TERMS = ("perimeter", "riesz", "background")

Result = Tuple[List[str], Optional[float]]


def load_summary(outdir: str, subcommand: str) -> dict:
    with open(os.path.join(outdir, f"{subcommand}.json"), encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def _csv_rows(outdir: str, subcommand: str) -> List[dict]:
    with open(os.path.join(outdir, f"{subcommand}.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def record_at(obj: dict, path: List[str]) -> dict:
    for key in path:
        obj = obj[key]
    return obj


def _within(name: str, value: float, ref: float, err: float) -> List[str]:
    if not (math.isfinite(value) and abs(value - ref) <= err):
        return [f"{name} = {value!r} differs from reference {ref!r} by more than its error {err!r}"]
    return []


def check_energy(op, outdir: str, refs: dict) -> Result:
    report = load_summary(outdir, "energy")["report"]
    ref = refs["ops"][op.op_id]
    problems: List[str] = []
    for term in ENERGY_TERMS + ("total",):
        err = report["total_error" if term == "total" else f"{term}_error"]
        problems += _within(term, report[term], ref[term], err)
    truth = refs["radial"][str(op.check_args["dimension"])]
    rel = max(abs(report[t] - truth[t]) / abs(truth[t]) for t in ENERGY_TERMS)
    return problems, rel


def check_energy_finite(op, outdir: str, refs: dict) -> Result:
    report = load_summary(outdir, "energy")["report"]
    bad = [t for t in ENERGY_TERMS + ("total",) if not math.isfinite(report[t])]
    return [f"{t} is not finite" for t in bad], None


def check_reference(op, outdir: str, refs: dict) -> Result:
    rec = record_at(load_summary(outdir, op.subcommand), op.check_args["path"])
    key, err_key = op.check_args["value"], op.check_args["error"]
    return _within(key, rec[key], refs["ops"][op.op_id][key], rec[err_key]), None


def check_critical_mass(op, outdir: str, refs: dict) -> Result:
    summary = load_summary(outdir, "critical-mass")
    truth = op.check_args["truth"]
    problems: List[str] = []
    rel = 0.0
    for key in op.check_args["keys"]:
        mass = summary[key]["mass"]
        gap = abs(mass - truth) / truth
        rel = max(rel, gap)
        if not gap <= CRITICAL_MASS_RTOL:
            problems.append(f"{key} mass {mass!r} is {gap:.3g} from the closed form {truth!r}")
    return problems, rel


def check_slice_scan(op, outdir: str, refs: dict) -> Result:
    summary = load_summary(outdir, "slice-scan")
    rows = _csv_rows(outdir, "slice-scan")
    problems: List[str] = []
    if not rows:
        return ["slice-scan wrote no rows"], None
    table_min = min(float(r["defect"]) for r in rows)
    if table_min != summary["min_defect"]:
        problems.append(f"min_defect {summary['min_defect']!r} is not the table minimum {table_min!r}")
    rec = summary["min_record"]
    combined = rec["lhs_error"] + rec["rhs_error"]
    if summary["signature"] != (summary["min_defect"] < -3.0 * combined):
        problems.append("signature disagrees with min_defect and its error")
    bound = summary["averaged_bound"]
    for key in ("mass", "lhs", "rhs", "defect", "combined_error"):
        if not math.isfinite(bound[key]):
            problems.append(f"averaged_bound.{key} is not finite")
    if not bound["mass"] > 0:
        problems.append("averaged_bound.mass is not positive")
    return problems, None


def check_verify(op, outdir: str, refs: dict) -> Result:
    summary = load_summary(outdir, "verify")
    if summary["total"] < 1 or summary["failed"] != 0:
        return [f"verify: {summary['failed']} of {summary['total']} checks failed: "
                f"{summary['failed_checks']}"], None
    return [], None


CHECKS = {
    "energy": check_energy,
    "energy_finite": check_energy_finite,
    "reference": check_reference,
    "critical_mass": check_critical_mass,
    "slice_scan": check_slice_scan,
    "verify": check_verify,
}


def check_op(op, returncode: int, stderr: str, outdir: str, refs: dict) -> Result:
    """All checks of one finished op: exit code 0 first, then its outputs."""
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {returncode}: {tail[0][:300]}"], None
    try:
        return CHECKS[op.check](op, outdir, refs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None


def outputs_identical(dir_a: str, dir_b: str, subcommand: str) -> List[str]:
    """The CSV and JSON of two runs of one op must match byte for byte."""
    problems = []
    for ext in (".csv", ".json"):
        paths = [os.path.join(d, subcommand + ext) for d in (dir_a, dir_b)]
        try:
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                same = fa.read() == fb.read()
        except OSError as exc:
            problems.append(f"cannot compare {subcommand}{ext}: {exc}")
            continue
        if not same:
            problems.append(f"{subcommand}{ext} differs between two runs of the op")
    return problems

