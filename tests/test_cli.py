"""Tests for the command-line front end: config parsing, output files,
determinism, and exit codes."""

import hashlib
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


class TestReadmeConfigKeys:
    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    def test_readme_documents_exactly_the_schema_keys(self):
        with open(self.README, "r", encoding="utf-8") as fh:
            text = fh.read()
        keys = set().union(*cli.SCHEMAS.values())
        missing = sorted(k for k in keys if not re.search(f"`{re.escape(k)}[` ]", text))
        assert missing == []
        sections = {k.split(".")[0] for k in keys if "." in k}
        documented = {
            k for k in re.findall(r"`([a-z]+\.[A-Za-z0-9_]+)[` ]", text)
            if k.split(".")[0] in sections
        }
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
                "--set", "verify.pairs=2",
                "--set", "verify.blobs=2",
                "--set", "verify.grid=24",
            ]
        )
        assert rc == 0
        payload = self.check_outputs(out, "verify")
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] > 0

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        rc = self.run(
            ["energy", "--output-dir", str(tmp_path / "o"), "--set", "bogus=1"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "bogus" in record["message"]


    @pytest.mark.parametrize(
        "sub, overrides, key",
        [
            ("slice-scan", ["scan.nu_count=-2"], "scan.nu_count"),
            ("slice-scan", ["scan.l_count=0"], "scan.l_count"),
            ("slice-scan", ["scan.l_count=-3"], "scan.l_count"),
            ("energy", ["shape.kind=blob", "shape.grid=0"], "shape.grid"),
            ("energy", ["shape.kind=blob", "shape.grid=-4"], "shape.grid"),
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
            # beta >= N diverges on the blob's cell at the origin
            (
                {},
                ["shape.kind=blob", "shape.grid=32", "energy.beta=2.5", "energy.A=1"],
                "ParameterError",
                "diverges",
            ),
        ],
    )
    def test_malformed_inputs_exit_two(self, tmp_path, capsys, files, overrides, error, needle):
        paths = {}
        for name, text in files.items():
            paths[name] = str(tmp_path / name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        args = ["energy", "--output-dir", str(tmp_path / "out")]
        for item in overrides:
            args += ["--set", item.format(**paths)]
        assert self.run(args) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == error
        assert needle.format(**paths) in record["message"]

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
    the package imports only numpy, a run loads mpmath only when it
    executes it, and no run loads scipy."""

    @staticmethod
    def loaded(argv=None):
        """scipy and mpmath modules in a fresh interpreter after importing
        ``nldrop.cli`` and, given ``argv``, running ``cli.main(argv)``."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys; from nldrop import cli; "
            f"argv = {argv!r}; "
            "rc = cli.main(argv) if argv else 0; "
            "print(rc, *sorted(m for m in sys.modules "
            "if m == 'mpmath' or m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        rc, *modules = proc.stdout.split()
        assert rc == "0"
        return set(modules)

    def test_cli_import_loads_no_scipy_or_mpmath(self):
        assert self.loaded() == set()

    def test_critical_mass_loads_no_scipy(self, tmp_path):
        modules = self.loaded(
            ["critical-mass", "--output-dir", str(tmp_path / "out"),
             "--set", "kernel.dimension=3", "--set", "kernel.epsilon=0.5"]
        )
        assert "mpmath" in modules
        assert not any(m.split(".")[0] == "scipy" for m in modules)

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy"],
            ["slice-scan", "--set", "scan.nu_count=2", "--set", "scan.l_count=4"],
            ["verify", "--set", "verify.grid=8", "--set", "verify.pairs=1",
             "--set", "verify.blobs=1"],
            ["kernel-check"],
        ],
        ids=["energy", "slice-scan", "verify", "kernel-check"],
    )
    def test_voxel_and_audit_runs_load_no_scipy(self, tmp_path, argv):
        ii, jj = np.indices((12, 12))
        occ = (ii - 5.5) ** 2 + (jj - 5.5) ** 2 < 20.0
        path = str(tmp_path / "disk.vox")
        save_voxel(VoxelShape(2, np.array([-1.0, -1.0]), 2.0 / 12, occ), path)
        if argv[0] in ("energy", "slice-scan"):
            argv = argv + ["--set", "shape.kind=voxel-file", "--set", f"shape.path={path}"]
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert not any(m.split(".")[0] == "scipy" for m in modules), sorted(modules)[:5]

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy"],
            ["family", "--set", "family.d_count=1"],
            ["energy", "--set", "kernel.dimension=3"],
        ],
        ids=["disk-energy", "disk-family-split", "ball-energy-3d"],
    )
    def test_ball_runs_load_no_scipy(self, tmp_path, argv):
        modules = self.loaded(argv + ["--output-dir", str(tmp_path / "out")])
        assert not any(m.split(".")[0] == "scipy" for m in modules), sorted(modules)[:5]


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
