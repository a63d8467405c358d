"""Command-line front end.

Subcommands
-----------
energy        total energy of a shape
critical-mass closed-form and generalized thresholds
slice-scan    cut-defect table plus the averaged mass bound
family        split-family search or the subadditivity probe
verify        isoperimetry, layer-cake and ball-pair ground-truth checks
kernel-check  kernel admissibility audit

Configuration is flat ``key = value`` text (``#`` starts a comment).  One
table, ``DEFAULTS``, gives every key its default, and a value parses as
its default's type (int, float or str); ``SCHEMAS`` names the keys each
subcommand takes, and unknown keys are errors, not warnings.  Every
run writes, into the output directory: a CSV table, a JSON summary (both
embedding the seed and the sha256 of the resolved config), and the
resolved config itself.  Outputs carry no timestamps; a fixed config and
seed reproduce byte-identical files.  The common ``seed`` key seeds only
``verify`` (its blobs); the other subcommands only echo it into their
outputs, and a random blob shape takes ``shape.seed``.

The output directory resolves in order: ``--output-dir`` flag,
``output_dir`` config key, the ``NLDROP_OUTPUT_DIR`` environment
variable, then ``./nldrop-out``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .errors import ConfigError, NldropError, ParameterError

SCHEMA_VERSION = 1

# Every config key and its default; a value parses as its default's type.
DEFAULTS: Dict[str, object] = {
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
    "verify.blobs": 10,
    "verify.grid": 32,
}

_COMMON = ("seed", "output_dir")
_KERNEL = (
    "kernel.kind", "kernel.dimension", "kernel.s", "kernel.epsilon",
    "kernel.lambda", "kernel.cap", "kernel.table", "kernel.tail",
)
_ENERGY = ("energy.A", "energy.alpha", "energy.beta")
_SHAPE = (
    "shape.kind", "shape.path", "shape.radius", "shape.volume",
    "shape.center", "shape.seed", "shape.grid",
)

# The keys each subcommand takes.
SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "energy": _COMMON + ("quad.budget",) + _KERNEL + _ENERGY + _SHAPE,
    "critical-mass": _COMMON + (
        "kernel.dimension", "kernel.s", "kernel.epsilon", "energy.A",
        "threshold.beta", "threshold.convention",
    ),
    "slice-scan": _COMMON + ("quad.budget",) + _KERNEL + _ENERGY + _SHAPE
    + ("scan.nu_count", "scan.l_count"),
    "family": _COMMON + _KERNEL + _ENERGY + (
        "family.mode", "family.mass", "family.m1", "family.m2",
        "family.d_count", "family.k", "family.d_max_factor",
    ),
    "verify": _COMMON + ("verify.blobs", "verify.grid"),
    "kernel-check": _COMMON + _KERNEL,
}


def _parse_value(key: str, raw: str, kind: type):
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}"
        ) from exc


def load_config(
    subcommand: str,
    path: Optional[str] = None,
    overrides: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Read and validate a flat config for one subcommand.

    Unknown keys are collected and reported together; a value parses as
    the type of its key's default; omitted keys take that default.
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
    return {
        key: _parse_value(key, raw[key], type(DEFAULTS[key])) if key in raw else DEFAULTS[key]
        for key in schema
    }


def resolved_config_text(subcommand: str, config: Dict[str, object]) -> str:
    lines = [f"# resolved config for subcommand: {subcommand}"]
    for key in sorted(config):
        lines.append(f"{key} = {_fmt(config[key])}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    """SHA-256 hex digest of ``text``, from CPython's builtin SHA-256
    module where there is one: ``hashlib`` loads OpenSSL, about 3.5 MB of
    memory in a run that makes one digest."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.11 and earlier
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def _plain(v):
    """A numpy scalar or array as the Python value or list it holds."""
    return v.tolist() if hasattr(v, "tolist") else v


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_ready(obj):
    obj = _plain(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
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


# Each builder and runner imports the modules it runs, so that a run loads
# only those: ``critical-mass`` needs no numpy at all.


def _build_kernel(config):
    from .kernels import KernelSpec

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
            tail = ("power", _parse_value("kernel.tail", tail_raw.split(":", 1)[1], float))
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
            radii=radii,
            values=values,
            tail=tail,
        )
    raise ConfigError(f"unknown kernel.kind {kind!r}")


def _build_spec(config):
    from .quadrature import QuadratureSpec

    budget = int(config["quad.budget"])
    return QuadratureSpec(budget=budget or None)


def _build_params(config, kernel):
    from .energy import EnergyParams

    return EnergyParams(
        kernel=kernel,
        A=float(config["energy.A"]),
        alpha=float(config["energy.alpha"]),
        beta=float(config["energy.beta"]),
    )


def _build_shape(config, N: int):
    import numpy as np

    from . import geometry

    kind = config["shape.kind"]
    if kind == "ball":
        center = np.zeros(N)
        if config["shape.center"]:
            parts = [
                _parse_value("shape.center", p, float)
                for p in str(config["shape.center"]).split(",")
            ]
            if len(parts) != N:
                raise ConfigError(f"shape.center needs {N} comma-separated components")
            center = np.asarray(parts)
        radii = np.array([float(config["shape.radius"])])
        if config["shape.volume"]:
            radii = geometry.ball_of_volume(N, float(config["shape.volume"])).radii
        return geometry.BallConfig(dimension=N, centers=center[None, :], radii=radii)
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
    from . import energy as energy_mod

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
    from . import thresholds

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
    from . import slicing

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
    from . import families

    kernel = _build_kernel(config)
    params = _build_params(config, kernel)
    mode = config["family.mode"]
    if mode == "split":
        result = families.split_advantage(
            float(config["family.mass"]),
            params,
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
    from . import kernels

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
    }
    write_outputs(outdir, "kernel-check", config, rows, summary)
    return 0 if report.all_pass else 1


def _run_verify(config, outdir):
    import numpy as np

    from . import energy as energy_mod
    from . import geometry, isoperimetry, slicing
    from .kernels import KernelSpec
    from .quadrature import QuadratureSpec

    for key, least in (("verify.blobs", 0), ("verify.grid", 1)):
        if config[key] < least:
            raise ParameterError(f"{key} must be >= {least}, got {config[key]}")
    seed = int(config["seed"])
    grid_n = int(config["verify.grid"])
    blobs = int(config["verify.blobs"])
    spec = QuadratureSpec()
    kernel = KernelSpec(dimension=2, s=0.5, epsilon=0.75)
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

    for chk in isoperimetry.run_suite(kernel, spec, count=blobs, seed=seed, grid_n=grid_n):
        check(
            "isoperimetry",
            chk.shape_id,
            chk.slack,
            -3.0 * chk.error,
            chk.slack >= -3.0 * chk.error,
        )

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

    # Newton: two disjoint uniform balls attract through 1/|x - y| as
    # their point masses at the centres do, m1 m2 / d.  The value is the
    # miss in units of the reported error.
    r1, r2 = 0.8, 1.2
    m1, m2 = (geometry.unit_ball_volume(3) * r ** 3 for r in (r1, r2))
    left = geometry.BallConfig(dimension=3, centers=np.zeros((1, 3)), radii=np.array([r1]))
    for d in (2.05, 5.0, 50.0):
        right = geometry.BallConfig(dimension=3, centers=np.array([[d, 0.0, 0.0]]), radii=np.array([r2]))
        est = energy_mod.interaction(left, right, 1.0, spec)
        ratio = abs(est.value - m1 * m2 / d) / est.error
        check("ball-pair-newton", f"d={d:g}", ratio, 1.0, ratio <= 1.0)

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
