"""Tests for the command-line front end: config parsing, output files,
determinism, and exit codes."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nldrop import cli
from nldrop.errors import ConfigError
from nldrop.geometry import VoxelShape, save_voxel


def read_csv_meta(path):
    """Leading '# key = value' lines of an output CSV."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, val = line[1:].split("=", 1)
            meta[key.strip()] = val.strip()
    return meta


class TestConfigParsing:
    def test_defaults_when_no_file(self):
        config = cli.load_config("energy")
        assert config["seed"] == 0
        assert config["quad.budget"] == 0
        assert config["kernel.dimension"] == 2
        assert config["shape.kind"] == "ball"

    def test_file_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment line\n"
            "seed = 7\n"
            "kernel.s = 0.25   # trailing comment\n"
            "\n"
            "shape.radius = 2.0\n"
        )
        config = cli.load_config("energy", str(cfg))
        assert config["seed"] == 7
        assert config["kernel.s"] == 0.25
        assert config["shape.radius"] == 2.0
        assert config["kernel.dimension"] == 2

    def test_unknown_keys_listed_sorted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zz.bogus = 1\naa.bogus = 2\n")
        with pytest.raises(ConfigError) as exc:
            cli.load_config("energy", str(cfg))
        assert "aa.bogus, zz.bogus" in str(exc.value)

    def test_type_errors_are_config_errors(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = not-a-number\n")
        with pytest.raises(ConfigError):
            cli.load_config("energy", str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            cli.load_config("energy", "/nonexistent/run.cfg")

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 7\n")
        with pytest.raises(ConfigError) as exc:
            cli.load_config("energy", str(cfg))
        assert "run.cfg:1" in str(exc.value)

    def test_set_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        config = cli.load_config("energy", str(cfg), overrides=["seed=9"])
        assert config["seed"] == 9

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            cli.load_config("energy", overrides=["seed"])

    def test_only_grid_subcommands_take_quad_budget(self):
        # the family search runs on radial ball reductions and builds no grid
        for sub in ("energy", "slice-scan"):
            assert cli.load_config(sub, overrides=["quad.budget=4096"])["quad.budget"] == 4096
        takers = [sub for sub, schema in cli.SCHEMAS.items() if "quad.budget" in schema]
        assert takers == ["energy", "slice-scan"]

    def test_every_schema_key_is_in_the_one_table(self):
        keys = set().union(*cli.SCHEMAS.values())
        assert keys == set(cli.DEFAULTS)
        for schema in cli.SCHEMAS.values():
            assert len(set(schema)) == len(schema)
        assert {type(v) for v in cli.DEFAULTS.values()} == {int, float, str}

    def test_values_parse_as_the_default_type(self):
        config = cli.load_config("energy", overrides=["kernel.s=1", "seed=3", "shape.kind= blob "])
        assert config["kernel.s"] == 1.0 and type(config["kernel.s"]) is float
        assert config["seed"] == 3 and type(config["seed"]) is int
        assert config["shape.kind"] == "blob"
        assert "kernel.s = 1.0\n" in cli.resolved_config_text("energy", config)

    def test_int_key_refuses_a_float(self, tmp_path, capsys):
        args = ["energy", "--output-dir", str(tmp_path), "--set", "quad.budget=1.5"]
        assert cli.main(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {
            "error": "ConfigError",
            "message": "config key 'quad.budget': cannot parse '1.5' as int",
        }


class TestReadmeConfigKeys:
    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    def test_readme_documents_exactly_the_schema_keys(self):
        # README's Configuration section names every schema key, and every
        # dotted key it names is in some schema, so a removed key cannot
        # linger in the docs
        with open(self.README, "r", encoding="utf-8") as fh:
            text = fh.read()
        text = text.split("### Configuration", 1)[1].split("\n### ", 1)[0]
        keys = set().union(*cli.SCHEMAS.values())
        missing = sorted(k for k in keys if not re.search(f"`{re.escape(k)}[` ]", text))
        assert missing == []
        documented = set(re.findall(r"`([a-z]+\.[A-Za-z0-9_]+)[` ]", text))
        assert sorted(documented - keys) == []


class TestOutputDirResolution:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("NLDROP_OUTPUT_DIR", "/env/dir")
        config = {"output_dir": "/cfg/dir"}
        assert cli.resolve_output_dir("/flag/dir", config) == "/flag/dir"

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("NLDROP_OUTPUT_DIR", "/env/dir")
        assert cli.resolve_output_dir(None, {"output_dir": "/cfg/dir"}) == "/cfg/dir"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("NLDROP_OUTPUT_DIR", "/env/dir")
        assert cli.resolve_output_dir(None, {"output_dir": ""}) == "/env/dir"

    def test_default_is_cwd_subdir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("NLDROP_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        out = cli.resolve_output_dir(None, {"output_dir": ""})
        assert out == str(tmp_path / "nldrop-out")


class TestSubcommandRuns:
    def run(self, args):
        return cli.main(args)

    def check_outputs(self, outdir, sub):
        csv_path = os.path.join(outdir, sub + ".csv")
        json_path = os.path.join(outdir, sub + ".json")
        cfg_path = os.path.join(outdir, sub + "-config.txt")
        assert os.path.exists(csv_path)
        assert os.path.exists(json_path)
        assert os.path.exists(cfg_path)
        meta = read_csv_meta(csv_path)
        assert meta["schema_version"] == "1"
        assert "seed" in meta
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg_text = fh.read()
        digest = hashlib.sha256(cfg_text.encode("utf-8")).hexdigest()
        assert meta["config_sha256"] == digest
        with open(json_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
        assert payload["subcommand"] == sub
        assert payload["config_sha256"] == digest
        assert "summary" in payload and "config" in payload
        return payload

    def test_energy_ball(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(["energy", "--output-dir", out, "--set", "shape.radius=0.8"])
        assert rc == 0
        payload = self.check_outputs(out, "energy")
        report = payload["summary"]["report"]
        assert report["perimeter"] > 0.0
        assert report["total"] == pytest.approx(
            report["perimeter"] + report["riesz"], rel=1e-12
        )

    def test_energy_center_must_match_dimension(self, tmp_path):
        rc = self.run(
            [
                "energy",
                "--output-dir",
                str(tmp_path / "out"),
                "--set",
                "shape.center=0.1,0.2,0.3",
            ]
        )
        assert rc == 2

    def test_critical_mass_closed_and_general(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "critical-mass",
                "--output-dir",
                out,
                "--set",
                "kernel.dimension=3",
                "--set",
                "kernel.epsilon=0.5",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "critical-mass")
        summary = payload["summary"]
        assert "closed_form" in summary and "general" in summary
        assert summary["relative_gap"] <= 1e-10

    def test_slice_scan_blob(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "slice-scan",
                "--output-dir",
                out,
                "--set", "shape.kind=blob",
                "--set", "shape.grid=24",
                "--set", "shape.seed=3",
                "--set", "scan.nu_count=2",
                "--set", "scan.l_count=5",
                "--set", "energy.A=1.0",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "slice-scan")
        summary = payload["summary"]
        assert "min_defect" in summary
        assert "averaged_bound" in summary
        assert isinstance(summary["signature"], bool)
        csv_path = os.path.join(out, "slice-scan.csv")
        with open(csv_path) as fh:
            lines = [l for l in fh if not l.startswith("#")]
        # header + the 5 of the nu_count * l_count = 10 cuts that split the blob
        assert len(lines) == 1 + 5

    def test_family_split(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "family",
                "--output-dir",
                out,
                "--set", "family.mass=2.0",
                "--set", "family.d_count=4",
                "--set", "energy.A=1.0",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "family")
        result = payload["summary"]["result"]
        assert result["family_min"] <= result["reference_energy"]

    def test_family_probe(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "family",
                "--output-dir",
                out,
                "--set", "family.mode=probe",
                "--set", "family.m1=2.0",
                "--set", "family.m2=1.0",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "family")
        probe = payload["summary"]["probe"]
        assert probe["residual"] <= 3.0 * probe["combined_error"]

    def test_family_probe_uses_the_grid_keys(self, tmp_path):
        def rows(*overrides):
            out = str(tmp_path / f"out{len(overrides)}")
            args = ["family", "--output-dir", out,
                    "--set", "kernel.dimension=3",
                    "--set", "family.mode=probe",
                    "--set", "family.m1=60.0",
                    "--set", "family.m2=40.0"]
            for item in overrides:
                args += ["--set", item]
            assert self.run(args) == 0
            with open(os.path.join(out, "family.csv")) as fh:
                return [line for line in fh if not line.startswith("#")]

        assert rows("family.d_count=1") != rows()

    def test_family_bad_mode(self, tmp_path):
        rc = self.run(
            [
                "family",
                "--output-dir",
                str(tmp_path / "out"),
                "--set",
                "family.mode=bogus",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["family.d_count=0"], "family.d_count"),
            (["family.d_count=0", "family.k=3"], "family.d_count"),
            (["family.d_max_factor=0.1"], "family.d_max_factor"),
            (["family.d_max_factor=inf"], "family.d_max_factor"),
            (["kernel.dimension=4"], "kernel.dimension"),
        ],
    )
    def test_family_bad_grid_exits_two(self, tmp_path, capsys, overrides, key):
        args = ["family", "--output-dir", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        assert self.run(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParameterError"
        assert key.split(".", 1)[1] in record["message"]

    @pytest.mark.parametrize("sub", ["critical-mass", "kernel-check"])
    def test_shapeless_subcommands_run_at_n4(self, tmp_path, sub):
        # only shapes are limited to N = 2 and 3
        out = str(tmp_path / "out")
        assert self.run([sub, "--output-dir", out, "--set", "kernel.dimension=4"]) == 0

    def test_kernel_check_passing(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(["kernel-check", "--output-dir", out])
        assert rc == 0
        payload = self.check_outputs(out, "kernel-check")
        assert payload["summary"]["verdict"] == "pass"

    def test_kernel_check_failing_exits_one(self, tmp_path):
        r = np.geomspace(1e-4, 50.0, 400)
        table = tmp_path / "kernel.csv"
        lines = ["r,value"]
        lines += [f"{float(ri)!r},{float(2.0 * ri ** -2.5)!r}" for ri in r]
        table.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "kernel-check",
                "--output-dir",
                out,
                "--set", "kernel.kind=tabulated",
                "--set", f"kernel.table={table}",
                "--set", "kernel.tail=power:2.5",
            ]
        )
        assert rc == 1
        payload = self.check_outputs(out, "kernel-check")
        assert payload["summary"]["verdict"] == "fail"

    def test_verify_small(self, tmp_path):
        out = str(tmp_path / "out")
        rc = self.run(
            [
                "verify",
                "--output-dir",
                out,
                "--set", "verify.blobs=2",
                "--set", "verify.grid=24",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "verify")
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] > 0

    def test_verify_rows_are_the_checks_that_can_fail(self, tmp_path):
        # one isoperimetry row per blob, the two layer-cake rows and the
        # three Newton rows; no row that holds by construction
        out = str(tmp_path / "out")
        rc = self.run(
            ["verify", "--output-dir", out, "--set", "verify.blobs=2", "--set", "verify.grid=24"]
        )
        assert rc == 0
        with open(os.path.join(out, "verify.csv")) as fh:
            lines = [line.strip() for line in fh if not line.startswith("#")]
        assert lines[0] == "check,detail,value,threshold,passed"
        assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
            ("isoperimetry", "blob-000"),
            ("isoperimetry", "blob-001"),
            ("layer-cake-background", "blob"),
            ("layer-cake-riesz", "blob"),
            ("ball-pair-newton", "d=2.05"),
            ("ball-pair-newton", "d=5"),
            ("ball-pair-newton", "d=50"),
        ]

    def test_verify_fails_when_the_ball_pair_term_is_off(self, tmp_path, monkeypatch):
        # a 1e-9 relative error in the 3-D ball-pair cross term is far
        # outside its reported error, so Newton's m1 m2 / d catches it
        from nldrop import energy

        density = energy._ball_pair_density
        monkeypatch.setattr(
            energy, "_ball_pair_density", lambda *a, **k: density(*a, **k) * (1.0 + 1e-9)
        )
        out = str(tmp_path / "out")
        rc = self.run(
            ["verify", "--output-dir", out, "--set", "verify.blobs=0", "--set", "verify.grid=8"]
        )
        assert rc == 1
        summary = self.check_outputs(out, "verify")["summary"]
        assert summary["failed_checks"] == [
            "ball-pair-newton:d=2.05", "ball-pair-newton:d=5", "ball-pair-newton:d=50",
        ]

    @pytest.mark.parametrize(
        "sub, key",
        [
            ("energy", "bogus"),
            # the family search reads no quadrature budget
            ("family", "quad.budget"),
            # verify builds no random shape pairs
            ("verify", "verify.pairs"),
        ],
    )
    def test_unknown_key_exits_two(self, tmp_path, capsys, sub, key):
        rc = self.run(
            [sub, "--output-dir", str(tmp_path / "o"), "--set", f"{key}=4096"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert key in record["message"]


    @pytest.mark.parametrize(
        "sub, overrides, key",
        [
            ("slice-scan", ["scan.nu_count=-2"], "scan.nu_count"),
            ("slice-scan", ["scan.l_count=0"], "scan.l_count"),
            ("slice-scan", ["scan.l_count=-3"], "scan.l_count"),
            ("energy", ["shape.kind=blob", "shape.grid=0"], "shape.grid"),
            ("energy", ["shape.kind=blob", "shape.grid=-4"], "shape.grid"),
            ("verify", ["verify.grid=0"], "verify.grid"),
            ("verify", ["verify.grid=-4"], "verify.grid"),
        ],
    )
    def test_empty_grids_exit_two(self, tmp_path, capsys, sub, overrides, key):
        args = [sub, "--output-dir", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item]
        assert self.run(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParameterError"
        assert key.split(".", 1)[1] in record["message"]

    @pytest.mark.parametrize(
        "files, overrides, error, needle",
        [
            (
                {"table": "r,value\n0.0,1.0\n0.1,abc\n"},
                ["kernel.kind=tabulated", "kernel.table={table}"],
                "ConfigError",
                "{table}:3",
            ),
            (
                {"table": "r,value\n0.0,1.0\n0.1\n"},
                ["kernel.kind=tabulated", "kernel.table={table}"],
                "ConfigError",
                "{table}:3",
            ),
            (
                {"table": "r,value\n0.0,1.0\n0.1,0.5\n"},
                ["kernel.kind=tabulated", "kernel.table={table}", "kernel.tail=power:abc"],
                "ConfigError",
                "kernel.tail",
            ),
            ({}, ["shape.center=a,b"], "ConfigError", "shape.center"),
            (
                {"vox": "nldrop-voxel 1\ndimension 2\ndims 2 x\norigin 0 0\nspacing 1\n"},
                ["shape.kind=voxel-file", "shape.path={vox}"],
                "ShapeFormatError",
                "line 3",
            ),
            (
                {"vox": "nldrop-voxel 1\ndimension 2\n"},
                ["shape.kind=voxel-file", "shape.path={vox}"],
                "ShapeFormatError",
                "line 3",
            ),
            (
                {"balls": "c0,c1,radius\n0,0,0.5\n3,zero,0.5\n"},
                ["shape.kind=balls-file", "shape.path={balls}"],
                "ShapeFormatError",
                "row 2",
            ),
            # every ball system is pairwise disjoint
            (
                {"balls": "c0,c1,radius\n0,0,1\n0.5,0,1\n"},
                ["shape.kind=balls-file", "shape.path={balls}"],
                "PreconditionError",
                "not disjoint",
            ),
            # the ball reductions exist for N = 2 and 3 only; a blob is
            # refused before its grid is built
            ({}, ["kernel.dimension=4"], "ParameterError", "dimension 2 or 3"),
            ({}, ["kernel.dimension=4", "shape.kind=blob"], "ParameterError", "dimension 2 or 3"),
            # beta >= N diverges on the blob's cell at the origin
            (
                {},
                ["shape.kind=blob", "shape.grid=32", "energy.beta=2.5", "energy.A=1"],
                "ParameterError",
                "diverges",
            ),
            # seeds are >= 0: a blob's and verify's
            ({}, ["shape.kind=blob", "shape.seed=-1"], "ParameterError", "seed must be >= 0"),
            ({}, ["verify", "seed=-3"], "ParameterError", "seed must be >= 0"),
        ],
    )
    def test_malformed_inputs_exit_two(self, tmp_path, capsys, files, overrides, error, needle):
        paths = self.run_energy_refused(tmp_path, files, overrides)
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == error
        assert needle.format(**paths) in record["message"]

    def run_energy_refused(self, tmp_path, files, overrides):
        """Write ``files``, run ``energy`` with ``overrides`` (which may
        name the files' paths as {name}; a first item without "=" names
        another subcommand) and check that it exits 2 and writes nothing;
        return the paths."""
        paths = {}
        for name, text in files.items():
            paths[name] = str(tmp_path / name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        sub = "energy"
        if overrides and "=" not in overrides[0]:
            sub, *overrides = overrides
        args = [sub, "--output-dir", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item.format(**paths)]
        assert self.run(args) == 2
        assert not os.path.exists(tmp_path / "out" / f"{sub}.json")
        return paths

    _VOX = "nldrop-voxel 1\ndimension 2\ndims 2 2\norigin {origin}\nspacing {spacing}\n11\n11\n"

    @pytest.mark.parametrize(
        "files, overrides, needle",
        [
            ({}, ["shape.radius=inf"], "ball radii must be finite"),
            ({}, ["shape.radius=nan"], "ball radii must be finite"),
            ({}, ["shape.volume=inf"], "ball radii must be finite"),
            ({}, ["energy.A=nan"], "A must be finite"),
            ({}, ["energy.A=inf"], "A must be finite"),
            ({}, ["shape.center=nan,0"], "ball centers must be finite"),
            ({}, ["shape.center=inf,0"], "ball centers must be finite"),
            ({}, ["kernel.epsilon=inf"], "epsilon must be finite"),
            ({}, ["kernel.lambda=inf"], "lam must be finite"),
            ({}, ["kernel.kind=truncated-fractional", "kernel.cap=inf"], "cap must be finite"),
            (
                {"vox": _VOX.format(origin="nan 0", spacing="1")},
                ["shape.kind=voxel-file", "shape.path={vox}"],
                "origin must be finite",
            ),
            (
                {"vox": _VOX.format(origin="0 0", spacing="inf")},
                ["shape.kind=voxel-file", "shape.path={vox}"],
                "spacing must be finite",
            ),
            (
                {"balls": "c0,c1,radius\n0,0,inf\n"},
                ["shape.kind=balls-file", "shape.path={balls}"],
                "ball radii must be finite",
            ),
        ],
        ids=[
            "radius-inf", "radius-nan", "volume-inf", "A-nan", "A-inf", "center-nan",
            "center-inf", "epsilon-inf", "lambda-inf", "cap-inf", "voxel-origin-nan", "voxel-spacing-inf", "balls-radius-inf",
        ],
    )
    def test_non_finite_inputs_exit_two(self, tmp_path, capsys, files, overrides, needle):
        # a non-finite input is refused, not carried into a NaN or
        # infinite total
        self.run_energy_refused(tmp_path, files, overrides)
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParameterError"
        assert needle in record["message"]

    def test_volume_keeps_the_center(self, tmp_path):
        # volume pi is the unit disk: the off-center ball must match the
        # radius-1 ball at the same center, not the centered one
        reports = []
        for size in ("shape.volume=3.141592653589793", "shape.radius=1.0"):
            out = str(tmp_path / size)
            args = ["energy", "--output-dir", out, "--set", size]
            args += ["--set", "shape.center=5,0", "--set", "energy.A=1"]
            assert self.run(args) == 0
            reports.append(self.check_outputs(out, "energy")["summary"]["report"])
        by_volume, by_radius = reports
        assert by_volume["background"] == pytest.approx(by_radius["background"], rel=1e-12)
        assert by_volume["background"] == pytest.approx(0.6315, abs=1e-4)
        assert by_volume["total"] == pytest.approx(by_radius["total"], rel=1e-12)


class TestImportWeight:
    """Every CLI run is a fresh process, so import cost is paid per run:
    ``import nldrop`` and ``import nldrop.cli`` load neither numpy nor a
    numeric module, each subcommand loads only the modules it runs, and
    no run loads scipy or mpmath."""

    NUMERIC = {
        f"nldrop.{m}"
        for m in ("_pcg64", "energy", "families", "geometry", "isoperimetry", "kernels",
                  "quadrature", "slicing", "thresholds")
    }

    @staticmethod
    def loaded(argv=None, statement="from nldrop import cli"):
        """Every module in a fresh interpreter after ``statement`` and,
        given ``argv``, ``cli.main(argv)``."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            f"import sys; {statement}; "
            f"argv = {argv!r}; "
            "rc = cli.main(argv) if argv else 0; "
            "print(rc, *sorted(sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        rc, *modules = proc.stdout.split()
        assert rc == "0"
        return set(modules)

    @staticmethod
    def scipy_or_mpmath(modules):
        return {m for m in modules if m == "mpmath" or m.split(".")[0] == "scipy"}

    @staticmethod
    def disk_file(tmp_path):
        """Path of a 12 x 12 voxel disk written under ``tmp_path``."""
        ii, jj = np.indices((12, 12))
        occ = (ii - 5.5) ** 2 + (jj - 5.5) ** 2 < 20.0
        path = str(tmp_path / "disk.vox")
        save_voxel(VoxelShape(2, np.array([-1.0, -1.0]), 2.0 / 12, occ), path)
        return path

    def test_cli_import_loads_no_scipy_or_mpmath(self):
        assert self.scipy_or_mpmath(self.loaded()) == set()

    @pytest.mark.parametrize("statement", ["import nldrop", "import nldrop.cli"])
    def test_package_import_loads_no_numpy_or_numeric_module(self, statement):
        modules = self.loaded(statement=statement)
        assert "numpy" not in modules
        assert not modules & self.NUMERIC, sorted(modules & self.NUMERIC)

    def test_critical_mass_loads_thresholds_and_no_numpy(self, tmp_path):
        modules = self.loaded(
            ["critical-mass", "--output-dir", str(tmp_path / "out"),
             "--set", "kernel.dimension=3", "--set", "kernel.epsilon=0.5"]
        )
        assert "numpy" not in modules
        assert self.scipy_or_mpmath(modules) == set()
        assert modules & self.NUMERIC == {"nldrop.thresholds"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy"],
            ["slice-scan", "--set", "scan.nu_count=2", "--set", "scan.l_count=4"],
            ["verify", "--set", "verify.grid=8", "--set", "verify.blobs=1"],
            ["kernel-check"],
        ],
        ids=["energy", "slice-scan", "verify", "kernel-check"],
    )
    def test_voxel_and_audit_runs_load_no_scipy(self, tmp_path, argv):
        path = self.disk_file(tmp_path)
        if argv[0] in ("energy", "slice-scan"):
            argv = argv + ["--set", "shape.kind=voxel-file", "--set", f"shape.path={path}"]
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert self.scipy_or_mpmath(modules) == set(), sorted(modules)[:5]
        if argv[0] == "energy":
            assert not modules & {"nldrop.slicing", "nldrop.isoperimetry"}
        if argv[0] == "kernel-check":
            assert modules & self.NUMERIC == {"nldrop.kernels", "nldrop.thresholds"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy"],
            ["family", "--set", "family.d_count=1"],
            ["energy", "--set", "kernel.dimension=3"],
        ],
        ids=["disk-energy", "disk-family-split", "ball-energy-3d"],
    )
    def test_ball_runs_load_no_scipy_slicing_or_isoperimetry(self, tmp_path, argv):
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert self.scipy_or_mpmath(modules) == set(), sorted(modules)[:5]
        assert not modules & {"nldrop.slicing", "nldrop.isoperimetry"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--set", "family.d_count=1"],
            ["family", "--set", "kernel.dimension=3", "--set", "family.mode=probe",
             "--set", "family.m1=200.0", "--set", "family.m2=100.0"],
            ["energy", "--set", "shape.kind=voxel-file"],
        ],
        ids=["disk-family-split", "ball-probe-3d", "voxel-energy"],
    )
    def test_gauss_rule_runs_load_no_numpy_polynomial(self, tmp_path, argv):
        # every Gauss rule comes from quadrature._gauss_rule, not leggauss
        if argv[0] == "energy":
            argv = argv + ["--set", f"shape.path={self.disk_file(tmp_path)}"]
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert "nldrop.quadrature" in modules
        assert not {m for m in modules if m.startswith("numpy.polynomial")}

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--set", "shape.kind=blob", "--set", "shape.grid=16"],
            ["slice-scan", "--set", "shape.kind=blob", "--set", "shape.grid=16",
             "--set", "scan.nu_count=2", "--set", "scan.l_count=4"],
            ["verify"],
        ],
        ids=["blob-energy", "blob-slice-scan", "verify"],
    )
    def test_blob_runs_load_no_numpy_random_or_openssl(self, tmp_path, argv):
        # the blobs come from _pcg64.Stream, numpy.random's stream without
        # its extension modules or the OpenSSL that secrets loads
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert "nldrop._pcg64" in modules
        assert not {m for m in modules if m.startswith("numpy.random")}
        assert not modules & {"secrets", "hmac", "_hashlib"}

    @pytest.mark.parametrize(
        "argv",
        [["family", "--set", "family.d_count=1"], ["energy", "--set", "shape.kind=voxel-file"]],
        ids=["disk-family-split", "voxel-energy"],
    )
    def test_runs_without_a_blob_load_no_stream(self, tmp_path, argv):
        if argv[0] == "energy":
            argv = argv + ["--set", f"shape.path={self.disk_file(tmp_path)}"]
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert "nldrop._pcg64" not in modules

    def test_config_digest_loads_no_openssl(self, tmp_path):
        # the digest comes from the builtin SHA-256 module, not hashlib
        if importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None:
            pytest.skip("this Python has no builtin SHA-256 module")
        modules = self.loaded(["energy", "--output-dir", str(tmp_path / "out")])
        assert not modules & {"hashlib", "_hashlib"}
        text = cli.resolved_config_text("energy", cli.load_config("energy"))
        assert cli.config_hash(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestNumpyValuesInOutputs:
    """A record may carry numpy scalars and arrays: they are written as the
    Python values they hold, in the CSV and in the JSON."""

    def test_numpy_row_and_summary_write_as_plain_values(self, tmp_path):
        config = cli.load_config("kernel-check")
        numpy_row = {
            "f64": np.float64(1.5),
            "f32": np.float32(0.1),
            "i64": np.int64(7),
            "flag": np.bool_(True),
            "arr": np.array([[1.0, 2.5], [3.0, 4.0]]),
        }
        plain_row = {
            "f64": 1.5,
            "f32": float(np.float32(0.1)),
            "i64": 7,
            "flag": True,
            "arr": [[1.0, 2.5], [3.0, 4.0]],
        }
        texts = []
        for row in (numpy_row, plain_row):
            out = str(tmp_path / str(len(texts)))
            cli.write_outputs(out, "kernel-check", config, [row], {"row": row})
            texts.append(
                [open(os.path.join(out, f"kernel-check{ext}")).read() for ext in (".csv", ".json")]
            )
        assert texts[0] == texts[1]
        csv_text, json_text = texts[0]
        assert csv_text.splitlines()[-1] == '1.5,0.10000000149011612,7,true,"[[1.0, 2.5], [3.0, 4.0]]"'
        assert json.loads(json_text)["summary"]["row"]["flag"] is True


class TestDeterminism:
    def test_energy_outputs_are_byte_identical(self, tmp_path):
        args = ["--set", "shape.radius=0.9", "--set", "energy.A=0.5"]
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert cli.main(["energy", "--output-dir", out1] + args) == 0
        assert cli.main(["energy", "--output-dir", out2] + args) == 0
        for name in ("energy.csv", "energy.json", "energy-config.txt"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_module_entry_point(self, tmp_path):
        out = str(tmp_path / "out")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nldrop",
                "critical-mass",
                "--output-dir",
                out,
                "--set",
                "kernel.dimension=3",
                "--set",
                "kernel.epsilon=0.5",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "critical-mass.json"))

    def test_env_output_dir_is_used(self, tmp_path, monkeypatch):
        out = str(tmp_path / "env-out")
        monkeypatch.setenv("NLDROP_OUTPUT_DIR", out)
        assert cli.main(["kernel-check"]) == 0
        assert os.path.exists(os.path.join(out, "kernel-check.csv"))
