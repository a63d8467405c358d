"""Span trees and the per-layer metrics computed from them.

A span is ``[id, parent, name, start, end, samples]`` as written by
``trace_shim.py``; ``parent`` is -1 for a root.  Span ids are unique within
one op, so every function here takes the spans of a single op.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

ID, PARENT, NAME, START, END, SAMPLES = range(6)

# Per-layer metrics reported by a traced run: (function, statistic).
#   calls   number of spans of the function
#   s       time inside the function, not counting nested spans of itself
#   self_s  time inside the function minus the time its child spans cover
#   cells   sum of the ``samples`` of the returned estimates
LAYER_METRICS = (
    ("quadrature.cell_pair_integral", "calls"),
    ("quadrature.cell_pair_integral", "s"),
    ("quadrature.complement_double_integral", "self_s"),
    ("quadrature.complement_double_integral", "cells"),
    ("quadrature.double_integral", "calls"),
    ("quadrature.double_integral", "self_s"),
    ("quadrature.integral_over", "self_s"),
    ("quadrature.point_singularity_cell_integral", "calls"),
    ("quadrature.point_singularity_cell_integral", "s"),
    ("quadrature.voxelize", "s"),
    ("geometry.indicator", "s"),
    ("families.two_ball_energy", "calls"),
    ("families.two_ball_energy", "self_s"),
    ("families.single_ball_energy", "calls"),
    ("families.split_advantage", "self_s"),
    ("energy.perimeter", "self_s"),
    ("energy.riesz", "self_s"),
    ("energy.background", "self_s"),
    ("kernels.eval_kernel_radial", "calls"),
    ("kernels.eval_kernel_radial", "s"),
    ("kernels.radial_tail_integral", "calls"),
    ("slicing.scan", "self_s"),
    ("slicing.averaged_mass_bound", "self_s"),
    ("slicing.layer_cake_checks", "s"),
    ("thresholds.general_critical_mass", "s"),
    ("thresholds.critical_mass", "s"),
    ("isoperimetry.run_suite", "self_s"),
    ("kernels.validate_conditions", "s"),
    ("cli.load_config", "s"),
    ("cli.write_outputs", "s"),
)

UNITS = {"calls": "count", "cells": "count", "s": "s", "self_s": "s"}


def _covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    return {
        sp[ID]: (sp[END] - sp[START]) - _covered(children[sp[ID]], sp[START], sp[END])
        for sp in spans
    }


def function_stats(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per function name: calls, s, self_s and cells over one op's spans."""
    by_id = {sp[ID]: sp for sp in spans}
    selfs = self_times(spans)
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0}
    )
    for sp in spans:
        st = stats[sp[NAME]]
        st["calls"] += 1
        st["self_s"] += selfs[sp[ID]]
        if sp[SAMPLES] is not None:
            st["cells"] += sp[SAMPLES]
        parent = sp[PARENT]
        while parent >= 0 and by_id[parent][NAME] != sp[NAME]:
            parent = by_id[parent][PARENT]
        if parent < 0:
            st["s"] += sp[END] - sp[START]
    return stats


def layer_metrics(per_op_spans: Iterable[List[list]]) -> Dict[str, float]:
    """Sum the named per-layer metrics over the ops of one pass."""
    totals = {f"{fn}.{stat}": 0 for fn, stat in LAYER_METRICS}
    for spans in per_op_spans:
        stats = function_stats(spans)
        for fn, stat in LAYER_METRICS:
            if fn in stats:
                totals[f"{fn}.{stat}"] += stats[fn][stat]
    return totals
