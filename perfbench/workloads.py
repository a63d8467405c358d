"""Seeded inputs and the list of CLI jobs ("ops") of each workload.

``generate(workload, seed, outdir)`` writes the voxel files and one config
file per op into ``outdir`` and returns the ops.  The program receives only
those files: each op is ``python -m nldrop SUBCOMMAND --config FILE``.
The seed feeds the ``seed`` key of every config and ``shape.seed`` where
the shape is a seeded blob, so seed 0 reproduces the documented defaults.
The voxel ball and disk do not depend on the seed: their stored reference
values (``references.json``) hold for every seed.

Run ``python3 perfbench/workloads.py WORKLOAD SEED OUTDIR`` to write the
inputs of one workload and list its ops.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Kernel and threshold parameters of the 3-D ball ops: (N, s, epsilon, A)
# = (3, 1/2, 1/2, 0), where the closed-form critical mass is 224.496...
N3, S3, EPS3, A3 = 3, 0.5, 0.5, 0.0

# Grid sizes of the voxel inputs (cells per axis over [-1, 1]^N).
BALL_3D_CELLS = 8
DISK_2D_CELLS = 128


@dataclass
class Op:
    """One CLI job: its id, subcommand, config keys and what to check."""

    op_id: str
    subcommand: str
    config: Dict[str, object]
    # Which check in checks.CHECKS applies, and its parameters.
    check: str = "none"
    check_args: Dict[str, object] = field(default_factory=dict)
    config_path: Optional[str] = None

    def argv(self, outdir: str) -> List[str]:
        return [self.subcommand, "--config", self.config_path, "--output-dir", outdir]


def closed_form_critical_mass(N, s, epsilon, A, convention="theorem"):
    """m_c = (omega (1+eps)^(1-s) / (1-s) + A) / (1/2 - (1+eps)^-q).

    q = N + s - 1 under the theorem convention and N + 1 - s under the
    appendix one.  With A = 0 this is also the root of the generalized
    threshold equation for every beta, under either convention.
    """
    omega = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    q = N + s - 1.0 if convention == "theorem" else N + 1.0 - s
    pref = 0.5 - (1.0 + epsilon) ** (-q)
    return (omega * (1.0 + epsilon) ** (1.0 - s) / (1.0 - s) + A) / pref


def voxel_ball_text(N: int, cells: int) -> str:
    """The unit ball sampled at ``cells`` per axis over [-1, 1]^N, by cell
    centers, in the documented ``nldrop-voxel 1`` text format."""
    h = 2.0 / cells
    centers = [-1.0 + (i + 0.5) * h for i in range(cells)]
    lines = [
        "nldrop-voxel 1",
        f"dimension {N}",
        "dims " + " ".join([str(cells)] * N),
        "origin " + " ".join([repr(-1.0)] * N),
        f"spacing {h!r}",
    ]

    def row(prefix2):
        return "".join(
            "1" if prefix2 + y * y < 1.0 else "0" for y in centers
        )

    if N == 2:
        lines += [row(x * x) for x in centers]
    else:
        for i, x in enumerate(centers):
            if i:
                lines.append("")
            lines += [row(x * x + z * z) for z in centers]
    return "\n".join(lines) + "\n"


def _k3(extra=None):
    cfg = {"kernel.dimension": N3, "kernel.s": S3, "kernel.epsilon": EPS3}
    cfg.update(extra or {})
    return cfg


def _ops_balls(seed: int, files: Dict[str, str]) -> List[Op]:
    m_c = closed_form_critical_mass(N3, S3, EPS3, A3)
    return [
        Op(
            "cm-theorem",
            "critical-mass",
            {"seed": seed, "kernel.dimension": N3, "kernel.s": S3,
             "kernel.epsilon": EPS3, "energy.A": A3},
            check="critical_mass",
            check_args={"truth": m_c, "keys": ["closed_form", "general"]},
        ),
        Op(
            "cm-appendix-beta2",
            "critical-mass",
            {"seed": seed, "kernel.dimension": N3, "kernel.s": S3,
             "kernel.epsilon": EPS3, "energy.A": A3, "threshold.beta": 2.0,
             "threshold.convention": "appendix"},
            check="critical_mass",
            check_args={
                "truth": closed_form_critical_mass(N3, S3, EPS3, A3, "appendix"),
                "keys": ["general"],
            },
        ),
        Op(
            "probe-3d",
            "family",
            _k3({"seed": seed, "family.mode": "probe", "family.m1": 200.0,
                 "family.m2": 100.0}),
            check="reference",
            check_args={"path": ["probe"], "value": "residual", "error": "combined_error"},
        ),
        Op(
            "split-2d",
            "family",
            {"seed": seed, "family.mode": "split", "family.d_count": 1},
            check="reference",
            check_args={"path": ["result"], "value": "margin", "error": "error"},
        ),
    ]


def _ops_voxel_3d(seed: int, files: Dict[str, str]) -> List[Op]:
    return [
        Op(
            f"energy-ball-{BALL_3D_CELLS}",
            "energy",
            _k3({"seed": seed, "shape.kind": "voxel-file",
                 "shape.path": files["ball3"]}),
            check="energy",
            check_args={"dimension": 3},
        ),
    ]


def _ops_diag_2d(seed: int, files: Dict[str, str]) -> List[Op]:
    return [
        Op(
            f"energy-disk-{DISK_2D_CELLS}",
            "energy",
            {"seed": seed, "shape.kind": "voxel-file", "shape.path": files["disk2"]},
            check="energy",
            check_args={"dimension": 2},
        ),
        Op(
            "scan-blob",
            "slice-scan",
            {"seed": seed, "shape.kind": "blob", "shape.seed": seed},
            check="slice_scan",
        ),
        Op("verify", "verify", {"seed": seed}, check="verify"),
    ]


def _ops_defaults_3d(seed: int, files: Dict[str, str]) -> List[Op]:
    # Every documented default (grid 64, budget 64^3, padding 2.0) on the
    # 3-D blob.  It should succeed; it currently exits 2 with "tensor grid
    # too large", which shows as fail_frac = 1.
    return [
        Op(
            "energy-blob-3d",
            "energy",
            {"seed": seed, "kernel.dimension": 3, "kernel.epsilon": EPS3,
             "shape.kind": "blob", "shape.seed": seed},
            check="energy_finite",
        ),
    ]


WORKLOADS = {
    "balls": _ops_balls,
    "voxel-3d": _ops_voxel_3d,
    "diag-2d": _ops_diag_2d,
    "defaults-3d": _ops_defaults_3d,
}


def config_text(config: Dict[str, object]) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in sorted(config.items()))


def generate(workload: str, seed: int, outdir: str) -> List[Op]:
    """Write the inputs of ``workload`` for ``seed`` and return its ops."""
    os.makedirs(outdir, exist_ok=True)
    files = {
        "ball3": os.path.join(outdir, f"ball3-{BALL_3D_CELLS}.vox"),
        "disk2": os.path.join(outdir, f"disk2-{DISK_2D_CELLS}.vox"),
    }
    with open(files["ball3"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(voxel_ball_text(3, BALL_3D_CELLS))
    with open(files["disk2"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(voxel_ball_text(2, DISK_2D_CELLS))
    ops = WORKLOADS[workload](seed, files)
    for op in ops:
        op.config_path = os.path.join(outdir, f"{op.op_id}.cfg")
        with open(op.config_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_text(op.config))
    return ops


if __name__ == "__main__":
    name, seed_arg, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    for op in generate(name, seed_arg, out):
        print(op.op_id, " ".join(op.argv("OUT")))
