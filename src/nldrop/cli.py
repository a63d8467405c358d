"""Command-line front end.

Subcommands
-----------
energy        total energy of a shape
critical-mass closed-form and generalized thresholds
slice-scan    cut-defect table plus the averaged mass bound
family        split-family search or the subadditivity probe
verify        identity / isoperimetry / scaling / sphere-integral suites
kernel-check  kernel admissibility audit

Configuration is flat ``key = value`` text (``#`` starts a comment), with
per-subcommand key schemas; unknown keys are errors, not warnings.  Every
run writes, into the output directory: a CSV table, a JSON summary (both
embedding the seed and the sha256 of the resolved config), and the
resolved config itself.  Outputs carry no timestamps; a fixed config and
seed reproduce byte-identical files.

The output directory resolves in order: ``--output-dir`` flag,
``output_dir`` config key, the ``NLDROP_OUTPUT_DIR`` environment
variable, then ``./nldrop-out``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import energy as energy_mod
from . import families, geometry, isoperimetry, kernels, quadrature, slicing, thresholds
from .energy import EnergyParams
from .errors import ConfigError, NldropError
from .geometry import BallConfig
from .kernels import KernelSpec
from .quadrature import QuadratureSpec

SCHEMA_VERSION = 1

_COMMON = {
    "seed": "int",
    "output_dir": "str",
}
_QUAD = {
    "quad.budget": "int",
}
_KERNEL = {
    "kernel.kind": "str",
    "kernel.dimension": "int",
    "kernel.s": "float",
    "kernel.epsilon": "float",
    "kernel.lambda": "float",
    "kernel.cap": "float",
    "kernel.table": "str",
    "kernel.tail": "str",
}
_ENERGY = {
    "energy.A": "float",
    "energy.alpha": "float",
    "energy.beta": "float",
}
_SHAPE = {
    "shape.kind": "str",
    "shape.path": "str",
    "shape.radius": "float",
    "shape.volume": "float",
    "shape.center": "str",
    "shape.seed": "int",
    "shape.grid": "int",
}

SCHEMAS: Dict[str, Dict[str, str]] = {
    "energy": {**_COMMON, **_QUAD, **_KERNEL, **_ENERGY, **_SHAPE},
    "critical-mass": {
        **_COMMON,
        "kernel.dimension": "int",
        "kernel.s": "float",
        "kernel.epsilon": "float",
        "energy.A": "float",
        "threshold.beta": "float",
        "threshold.convention": "str",
    },
    "slice-scan": {
        **_COMMON,
        **_QUAD,
        **_KERNEL,
        **_ENERGY,
        **_SHAPE,
        "scan.nu_count": "int",
        "scan.l_count": "int",
    },
    "family": {
        **_COMMON,
        **_QUAD,
        **_KERNEL,
        **_ENERGY,
        "family.mode": "str",
        "family.mass": "float",
        "family.m1": "float",
        "family.m2": "float",
        "family.d_count": "int",
        "family.k": "int",
        "family.d_max_factor": "float",
    },
    "verify": {
        **_COMMON,
        "verify.pairs": "int",
        "verify.blobs": "int",
        "verify.grid": "int",
    },
    "kernel-check": {**_COMMON, **_KERNEL},
}

_DEFAULTS: Dict[str, object] = {
    "seed": 0,
    "output_dir": "",
    "quad.budget": 0,
    "kernel.kind": "fractional",
    "kernel.dimension": 2,
    "kernel.s": 0.5,
    "kernel.epsilon": 0.75,
    "kernel.lambda": 1.0,
    "kernel.cap": 0.0,
    "kernel.table": "",
    "kernel.tail": "",
    "energy.A": 0.0,
    "energy.alpha": 1.0,
    "energy.beta": 1.0,
    "shape.kind": "ball",
    "shape.path": "",
    "shape.radius": 1.0,
    "shape.volume": 0.0,
    "shape.center": "",
    "shape.seed": 0,
    "shape.grid": 64,
    "scan.nu_count": 0,
    "scan.l_count": 64,
    "family.mode": "split",
    "family.mass": 1.0,
    "family.m1": 1.0,
    "family.m2": 1.0,
    "family.d_count": 12,
    "family.k": 2,
    "family.d_max_factor": 1e3,
    "threshold.beta": 1.0,
    "threshold.convention": "theorem",
    "verify.pairs": 6,
    "verify.blobs": 10,
    "verify.grid": 32,
}


def _parse_value(key: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


def load_config(
    subcommand: str,
    path: Optional[str] = None,
    overrides: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Read and validate a flat config for one subcommand.

    Unknown keys are collected and reported together; values are typed
    per the subcommand schema; omitted keys take documented defaults.
    """
    schema = SCHEMAS[subcommand]
    raw: Dict[str, str] = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{line_no}: expected 'key = value', got {line.rstrip()!r}"
                    )
                key, val = stripped.split("=", 1)
                raw[key.strip()] = val.strip()
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    unknown = sorted(k for k in raw if k not in schema)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {subcommand!r}: {', '.join(unknown)}"
        )
    config: Dict[str, object] = {}
    for key, kind in schema.items():
        if key in raw:
            config[key] = _parse_value(key, raw[key], kind)
        else:
            config[key] = _DEFAULTS[key]
    return config


def resolved_config_text(subcommand: str, config: Dict[str, object]) -> str:
    lines = [f"# resolved config for subcommand: {subcommand}"]
    for key in sorted(config):
        lines.append(f"{key} = {_fmt(config[key])}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_outputs(
    outdir: str,
    subcommand: str,
    config: Dict[str, object],
    rows: List[dict],
    summary: dict,
) -> None:
    """Write <sub>.csv, <sub>.json, and <sub>-config.txt deterministically."""
    os.makedirs(outdir, exist_ok=True)
    cfg_text = resolved_config_text(subcommand, config)
    digest = config_hash(cfg_text)
    base = os.path.join(outdir, subcommand)
    with open(base + "-config.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cfg_text)
    buf = io.StringIO()
    buf.write(f"# schema_version = {SCHEMA_VERSION}\n")
    buf.write(f"# config_sha256 = {digest}\n")
    buf.write(f"# seed = {config.get('seed', 0)}\n")
    if rows:
        header = list(rows[0].keys())
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(k)) for k in header])
    with open(base + ".csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config_sha256": digest,
        "config": _json_ready(config),
        "summary": _json_ready(summary),
    }
    with open(base + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _build_kernel(config) -> KernelSpec:
    kind = config["kernel.kind"]
    N = config["kernel.dimension"]
    s = config["kernel.s"]
    eps = config["kernel.epsilon"]
    lam = config["kernel.lambda"]
    if kind == "fractional":
        return KernelSpec(dimension=N, s=s, epsilon=eps, lam=lam, kind="fractional")
    if kind == "truncated-fractional":
        cap = config["kernel.cap"]
        if cap <= 0:
            raise ConfigError("kernel.cap must be set (> 0) for the truncated kind")
        return KernelSpec(
            dimension=N, s=s, epsilon=eps, lam=lam, kind="truncated-fractional", cap=cap
        )
    if kind == "tabulated":
        path = config["kernel.table"]
        if not path:
            raise ConfigError("kernel.table must point to a radius,value CSV file")
        if not os.path.exists(path):
            raise ConfigError(f"kernel table file not found: {path}")
        radii = []
        values = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line or line.startswith("r,"):
                    continue
                try:
                    r_str, v_str = line.split(",", 1)
                    radii.append(float(r_str))
                    values.append(float(v_str))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'radius,value', got {line!r}"
                    ) from None
        tail_raw = config["kernel.tail"]
        tail = None
        if tail_raw == "zero":
            tail = ("zero",)
        elif tail_raw.startswith("power:"):
            tail = ("power", _parse_value("kernel.tail", tail_raw.split(":", 1)[1], "float"))
        elif tail_raw:
            raise ConfigError(
                f"kernel.tail must be 'zero' or 'power:<p>', got {tail_raw!r}"
            )
        return KernelSpec(
            dimension=N,
            s=s,
            epsilon=eps,
            lam=lam,
            kind="tabulated",
            radii=np.asarray(radii, dtype=float),
            values=np.asarray(values, dtype=float),
            tail=tail,
        )
    raise ConfigError(f"unknown kernel.kind {kind!r}")


def _build_spec(config) -> QuadratureSpec:
    budget = config.get("quad.budget", 0)
    return QuadratureSpec(
        budget=int(budget) if budget else None,
        seed=int(config.get("seed", 0)),
    )


def _build_params(config, kernel: KernelSpec) -> EnergyParams:
    return EnergyParams(
        kernel=kernel,
        A=float(config["energy.A"]),
        alpha=float(config["energy.alpha"]),
        beta=float(config["energy.beta"]),
    )


def _build_shape(config, N: int):
    kind = config["shape.kind"]
    if kind == "ball":
        center = np.zeros(N)
        if config["shape.center"]:
            parts = [
                _parse_value("shape.center", p, "float")
                for p in str(config["shape.center"]).split(",")
            ]
            if len(parts) != N:
                raise ConfigError(f"shape.center needs {N} comma-separated components")
            center = np.asarray(parts)
        radii = np.array([float(config["shape.radius"])])
        if config["shape.volume"]:
            radii = geometry.ball_of_volume(N, float(config["shape.volume"])).radii
        return BallConfig(dimension=N, centers=center[None, :], radii=radii)
    if kind == "balls-file":
        path = config["shape.path"]
        if not path or not os.path.exists(path):
            raise ConfigError(f"shape file not found: {path!r}")
        cfg = geometry.load_balls(path)
        if cfg.dimension != N:
            raise ConfigError(
                f"shape file dimension {cfg.dimension} does not match kernel dimension {N}"
            )
        return cfg
    if kind == "voxel-file":
        path = config["shape.path"]
        if not path or not os.path.exists(path):
            raise ConfigError(f"shape file not found: {path!r}")
        vox = geometry.load_voxel(path)
        if vox.dimension != N:
            raise ConfigError(
                f"shape file dimension {vox.dimension} does not match kernel dimension {N}"
            )
        return vox
    if kind == "blob":
        rng = np.random.default_rng(int(config["shape.seed"]))
        return geometry.random_blob(N, rng, grid_n=int(config["shape.grid"]))
    raise ConfigError(f"unknown shape.kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommand runners


def _run_energy(config, outdir):
    kernel = _build_kernel(config)
    spec = _build_spec(config)
    params = _build_params(config, kernel)
    shape = _build_shape(config, kernel.dimension)
    report = energy_mod.total_energy(shape, params, spec)
    row = report.as_record()
    row["seed"] = config["seed"]
    write_outputs(outdir, "energy", config, [row], {"report": report.as_record()})
    return 0


def _run_critical_mass(config, outdir):
    N = config["kernel.dimension"]
    s = config["kernel.s"]
    eps = config["kernel.epsilon"]
    A = config["energy.A"]
    beta = config["threshold.beta"]
    convention = config["threshold.convention"]
    rows = []
    summary = {}
    general = thresholds.general_critical_mass(N, s, eps, A, beta, convention)
    rows.append(general.as_record())
    summary["general"] = general.as_record()
    if beta == 1.0 and convention == "theorem":
        closed = thresholds.critical_mass(N, s, eps, A)
        rows.insert(0, closed.as_record())
        summary["closed_form"] = closed.as_record()
        summary["relative_gap"] = abs(closed.mass - general.mass) / closed.mass
    write_outputs(outdir, "critical-mass", config, rows, summary)
    return 0


def _run_slice_scan(config, outdir):
    kernel = _build_kernel(config)
    spec = _build_spec(config)
    params = _build_params(config, kernel)
    shape = _build_shape(config, kernel.dimension)
    nu_count = int(config["scan.nu_count"]) or None
    l_count = int(config["scan.l_count"])
    result = slicing.scan(
        shape, params, spec, nu_count=nu_count, l_count=l_count
    )
    averaged = slicing.averaged_mass_bound(shape, params, spec)
    rows = [r.as_record() for r in result.records]
    summary = {
        "min_defect": result.min_defect,
        "min_record": result.min_record.as_record(),
        "integrated_defect": [
            {"nu": [float(c) for c in nu], "value": v}
            for nu, v in result.integrated_defect
        ],
        "signature": bool(
            result.min_defect < -3.0 * result.min_record.combined_error
        ),
        "averaged_bound": averaged.as_record(),
    }
    write_outputs(outdir, "slice-scan", config, rows, summary)
    return 0


def _run_family(config, outdir):
    kernel = _build_kernel(config)
    spec = _build_spec(config)
    params = _build_params(config, kernel)
    mode = config["family.mode"]
    if mode == "split":
        result = families.split_advantage(
            float(config["family.mass"]),
            params,
            spec,
            d_count=int(config["family.d_count"]),
            d_max_factor=float(config["family.d_max_factor"]),
            k=int(config["family.k"]),
        )
        rows = [dict(t) for t in result.trace]
        write_outputs(outdir, "family", config, rows, {"result": result.as_record()})
        return 0
    if mode == "probe":
        probe = families.weak_subadditivity_probe(
            float(config["family.m1"]),
            float(config["family.m2"]),
            params,
            spec,
            d_count=int(config["family.d_count"]),
            d_max_factor=float(config["family.d_max_factor"]),
            k=int(config["family.k"]),
        )
        row = {
            "m1": config["family.m1"],
            "m2": config["family.m2"],
            "residual": probe.residual,
            "combined_error": probe.combined_error,
            "family_min_sum": probe.family_min_sum,
            "family_min_1": probe.family_min_1,
            "family_min_2": probe.family_min_2,
        }
        write_outputs(outdir, "family", config, [row], {"probe": row})
        return 0
    raise ConfigError(f"family.mode must be 'split' or 'probe', got {mode!r}")


def _run_kernel_check(config, outdir):
    kernel = _build_kernel(config)
    report = kernels.validate_conditions(kernel)
    rows = []
    for name in sorted(report.conditions):
        verdict = report.conditions[name]
        rows.append(
            {
                "condition": name,
                "status": verdict.status,
                "witness": verdict.witness if verdict.witness is not None else "",
                "margin": verdict.margin if verdict.margin is not None else "",
                "note": verdict.note,
            }
        )
    summary = {
        "verdict": "pass" if report.all_pass else "fail",
        "all_pass": report.all_pass,
        "tail_integral": report.tail_integral,
        "tail_remainder": report.tail_remainder,
    }
    write_outputs(outdir, "kernel-check", config, rows, summary)
    return 0 if report.all_pass else 1


def _run_verify(config, outdir):
    seed = int(config["seed"])
    grid_n = int(config["verify.grid"])
    pairs = int(config["verify.pairs"])
    blobs = int(config["verify.blobs"])
    spec = QuadratureSpec(seed=seed)
    kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75)
    params = EnergyParams(kernel=kernel, A=1.0)
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, detail, value, threshold, passed):
        rows.append(
            {
                "check": name,
                "detail": detail,
                "value": float(value),
                "threshold": float(threshold),
                "passed": bool(passed),
            }
        )

    for i in range(pairs):
        left, right = geometry.random_disjoint_pair(2, rng, grid_n=grid_n)
        if left.count == 0 or right.count == 0:
            continue
        res_p = energy_mod.check_perimeter_decomposition(left, right, kernel, spec)
        tol_p = max(3.0 * res_p.combined_error, 1e-9 * max(1.0, abs(res_p.terms.get("P_union", 1.0))))
        check("perimeter-decomposition", f"pair-{i}", res_p.residual, tol_p, abs(res_p.residual) <= tol_p)
        res_r = energy_mod.check_riesz_decomposition(left, right, spec)
        tol_r = max(3.0 * res_r.combined_error, 1e-9 * max(1.0, abs(res_r.terms.get("V_union", 1.0))))
        check("riesz-decomposition", f"pair-{i}", res_r.residual, tol_r, abs(res_r.residual) <= tol_r)

    for chk in isoperimetry.run_suite(kernel, spec, count=blobs, seed=seed, grid_n=grid_n):
        check(
            "isoperimetry",
            chk.shape_id,
            chk.slack,
            -3.0 * chk.error,
            chk.slack >= -3.0 * chk.error,
        )

    disk = quadrature.voxelize(
        geometry.BallConfig(dimension=2, centers=np.zeros((1, 2)), radii=np.array([1.0])),
        cells_per_axis=grid_n,
    )
    scaling = energy_mod.scaling_report(disk, 2.0, params, spec)
    for term, expected in scaling.expected.items():
        got = scaling.exponents[term]
        ok = abs(got - expected) <= 0.02 * max(1.0, abs(expected))
        check("scaling", term, got, expected, ok)

    sphere_rng = np.random.default_rng(seed + 1)
    sphere_spec = QuadratureSpec(budget=200_000, seed=seed)
    worst = 0.0
    for N in (2, 3):
        for _ in range(10):
            x = sphere_rng.standard_normal(N)
            closed = slicing.sphere_positive_integral(x)
            est = quadrature.sphere_average(
                lambda v: np.clip(v @ x, 0.0, None), N, sphere_spec
            )
            rel = abs(est.value - closed) / closed
            worst = max(worst, rel)
    check("sphere-integral", "max-rel-gap", worst, 1e-3, worst <= 1e-3)

    blob = geometry.random_blob(2, np.random.default_rng(seed + 2), grid_n=grid_n)
    lc = slicing.layer_cake_checks(blob, np.array([1.0, 0.0]), spec)
    check(
        "layer-cake-background",
        "blob",
        lc.residual_background,
        3.0 * max(lc.error_background, 1e-12),
        lc.residual_background <= 3.0 * max(lc.error_background, 1e-12),
    )
    check(
        "layer-cake-riesz",
        "blob",
        lc.residual_riesz,
        3.0 * max(lc.error_riesz, 1e-12),
        lc.residual_riesz <= 3.0 * max(lc.error_riesz, 1e-12),
    )

    audit = kernels.validate_conditions(kernel)
    check(
        "kernel-conditions",
        "pass" if audit.all_pass else "fail",
        1.0 if audit.all_pass else 0.0,
        1.0,
        audit.all_pass,
    )

    closed = thresholds.critical_mass(3, 0.5, 0.5, 0.0)
    general = thresholds.general_critical_mass(3, 0.5, 0.5, 0.0, 1.0, "theorem")
    gap = abs(closed.mass - general.mass) / closed.mass
    check("threshold-consistency", "beta-1", gap, 1e-12, gap <= 1e-12)

    failed = [r for r in rows if not r["passed"]]
    summary = {
        "total": len(rows),
        "failed": len(failed),
        "failed_checks": [f"{r['check']}:{r['detail']}" for r in failed],
    }
    write_outputs(outdir, "verify", config, rows, summary)
    return 0 if not failed else 1


_RUNNERS = {
    "energy": _run_energy,
    "critical-mass": _run_critical_mass,
    "slice-scan": _run_slice_scan,
    "family": _run_family,
    "verify": _run_verify,
    "kernel-check": _run_kernel_check,
}


def resolve_output_dir(flag_value: Optional[str], config: Dict[str, object]) -> str:
    if flag_value:
        return flag_value
    if config.get("output_dir"):
        return str(config["output_dir"])
    env = os.environ.get("NLDROP_OUTPUT_DIR")
    if env:
        return env
    return os.path.join(os.getcwd(), "nldrop-out")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nldrop",
        description="Nonlocal liquid-drop energies: thresholds, splitting, verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--output-dir", default=None, help="where to write results")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.subcommand, args.config, args.overrides)
        outdir = resolve_output_dir(args.output_dir, config)
        return _RUNNERS[args.subcommand](config, outdir)
    except NldropError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        record = {"error": "FileNotFoundError", "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
