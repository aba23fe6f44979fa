import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from capunfold import cli, pipeline
from capunfold.cli import main
from capunfold.generate import generate_budget_cap
from capunfold.mesh import ConvexCap
from capunfold.meshio import save_mesh

from fixtures import flat_hex_disk, pentagonal_pyramid
from test_pipeline import inject_strip_error


def run(args):
    return main([str(a) for a in args])


class TestGenerate:
    def test_writes_off_and_metrics(self, tmp_path):
        assert run(["generate", "--n", 98, "--phi", 33, "--seed", 7,
                    "--out-dir", tmp_path]) == 0
        off = tmp_path / "cap-n98-seed7.off"
        metrics = tmp_path / "cap-n98-seed7.metrics.json"
        assert off.exists() and metrics.exists()
        m = json.loads(metrics.read_text())
        assert m["phi_actual_deg"] <= 33 + 1e-9

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["generate", "--n", 40, "--seed", 5,
                        "--out-dir", d]) == 0
        assert (a / "cap-n40-seed5.off").read_bytes() == \
            (b / "cap-n40-seed5.off").read_bytes()

    def test_n_too_small_is_an_error(self, tmp_path, capsys):
        assert run(["generate", "--n", 3, "--out-dir", tmp_path]) == 2
        assert "error" in capsys.readouterr().err

    def test_cone_lift_not_offered(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--n", 40, "--lift", "cone",
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_config_file_provides_defaults(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 9, "jitter": 0.1}))
        assert run(["generate", "--n", 40, "--config", cfg,
                    "--out-dir", tmp_path]) == 0
        assert (tmp_path / "cap-n40-seed9.off").exists()

    def test_flag_at_its_default_beats_the_config_file(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 5, "lift": "sphere"}))
        assert run(["generate", "--n", 60, "--seed", 0, "--config", cfg,
                    "--out-dir", tmp_path / "a"]) == 0
        assert [p.name for p in (tmp_path / "a").glob("*.off")] == \
            ["cap-n60-seed0.off"]
        # the file's lift still applies where no flag was given
        assert run(["generate", "--n", 60, "--seed", 0, "--lift", "sphere",
                    "--out-dir", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "cap-n60-seed0.off").read_bytes() == \
            (tmp_path / "b" / "cap-n60-seed0.off").read_bytes()

    @pytest.mark.parametrize("stored", [{"seed": "x"}, {"phi": "abc"}, [1, 2]],
                             ids=["seed-text", "phi-text", "list"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, stored):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(stored))
        assert run(["generate", "--n", 40, "--config", cfg,
                    "--out-dir", tmp_path]) == 2
        assert "error" in json.loads(capsys.readouterr().err)


class TestUnfold:
    def test_budget_cap_exit_zero_and_artifacts(self, tmp_path):
        assert run(["unfold", "--n", 50, "--seed", 3,
                    "--out-dir", tmp_path]) == 0
        assert (tmp_path / "net.svg").exists()
        assert "strip-boundary" not in (tmp_path / "net.svg").read_text()
        assert (tmp_path / "cap.obj").exists()
        d = json.loads((tmp_path / "diagnostics.json").read_text())
        assert d["status"] == "proven_clean"
        assert d["schema_version"]

    def test_over_budget_fixture_exit_one(self, tmp_path):
        mesh = tmp_path / "pyr.off"
        save_mesh(mesh, pentagonal_pyramid())
        code = run(["unfold", "--input", mesh, "--out-dir", tmp_path])
        assert code == 1  # clean net, tilt over any budget
        d = json.loads((tmp_path / "diagnostics.json").read_text())
        assert d["status"] == "empirical_clean"

    def test_corrupted_mesh_exit_two(self, tmp_path, capsys):
        cap = flat_hex_disk(lift=0.1)
        bad = ConvexCap(cap.vertices, cap.triangles[:, ::-1])
        mesh = tmp_path / "bad.off"
        save_mesh(mesh, bad)
        assert run(["unfold", "--input", mesh, "--out-dir", tmp_path]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("short.off", "OFF\n4 2 5\n0 0 0\n1 0 0\n",
         "header declares 4 vertices and 2 faces, file ends 14 numbers "
         "short"),
        ("faces.off", "OFF\n3 2 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
         "header declares 3 vertices and 2 faces, file ends 4 numbers "
         "short"),
        ("index.off", "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n",
         "face vertex index 3 out of range for 3 vertices"),
        ("index.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n",
         "face vertex index 9 out of range for 3 vertices"),
    ], ids=["off-short-vertices", "off-short-faces", "off-bad-index",
            "obj-bad-index"])
    def test_hostile_file_exit_two(self, tmp_path, capsys, name, text, message):
        mesh = tmp_path / name
        mesh.write_text(text)
        assert run(["unfold", "--input", mesh, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == f"{mesh}: {message}"

    def test_pipeline_error_names_its_stage(self, tmp_path, capsys,
                                            monkeypatch):
        def fail(*args):
            raise ValueError("chain is not simple")

        monkeypatch.setattr(pipeline, "banks_ordered", fail)
        mesh = tmp_path / "cap.off"
        save_mesh(mesh, generate_budget_cap(60, seed=0))
        assert run(["unfold", "--input", mesh, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "certify"
        assert err["error"].startswith("[certify] chain is not simple")

    def test_certificate_failure_exit_three(self, tmp_path, monkeypatch):
        inject_strip_error(monkeypatch)
        assert run(["unfold", "--n", 50, "--seed", 3,
                    "--out-dir", tmp_path]) == 3
        d = json.loads((tmp_path / "diagnostics.json").read_text())
        assert d["status"] == "certificate_failed"

    def test_requires_one_input_source(self, tmp_path):
        assert run(["unfold", "--out-dir", tmp_path]) == 2


class TestVerify:
    def test_single_cap_report(self, capsys):
        assert run(["verify", "--n", 40, "--seed", 1]) == 0
        d = json.loads(capsys.readouterr().out)
        for key in ("metrics", "paths", "certificates", "overlap", "status"):
            assert key in d

    def test_suite_runs_in_parallel(self, capsys):
        assert run(["verify", "--n", 30, "--suite", 3, "--jobs", 3]) == 0
        d = json.loads(capsys.readouterr().out)
        assert len(d["runs"]) == 3
        assert d["counts"] == {"proven_clean": 3}

    def test_suite_counts_certificate_failures(self, capsys, monkeypatch):
        # the workers fork from this process, so they see the patch
        inject_strip_error(monkeypatch)
        assert run(["verify", "--n", 30, "--suite", 2, "--jobs", 2]) == 3
        d = json.loads(capsys.readouterr().out)
        assert d["counts"] == {"certificate_failed": 2}
        # an error or overlap run still exits 2
        generate = cli._generate

        def seed_zero_fails(n, phi, seed):
            if seed == 0:
                raise RuntimeError("no cap for seed 0")
            return generate(n, phi, seed)

        monkeypatch.setattr(cli, "_generate", seed_zero_fails)
        assert run(["verify", "--n", 30, "--suite", 2, "--jobs", 2]) == 2
        d = json.loads(capsys.readouterr().out)
        assert d["counts"] == {"error": 1, "certificate_failed": 1}

    def test_suite_rejects_rasterize(self, capsys):
        assert run(["verify", "--n", 30, "--suite", 2, "--rasterize"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "--rasterize" in err["error"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_suite_rejects_k_below_one(self, capsys, k):
        assert run(["verify", "--n", 30, "--suite", k]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--suite" in json.loads(out.err)["error"]

    @pytest.mark.parametrize("jobs, k, workers", [(5000, 2, 2), (1, 3, 1),
                                                  (2, 3, 2), (None, 1, 1)])
    def test_suite_starts_at_most_k_workers(self, monkeypatch, capsys, jobs,
                                            k, workers):
        # a pool forks all its workers up front: record the count, run the
        # jobs in this process, start no process
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        args = ["verify", "--n", 30, "--suite", k]
        if jobs is not None:
            args += ["--jobs", jobs]
        assert run(args) == 0
        assert started == [workers]
        assert len(json.loads(capsys.readouterr().out)["runs"]) == k

    @pytest.mark.parametrize("args", [["--suite", 2, "--jobs", 0],
                                      ["--suite", 2, "--jobs", -3],
                                      ["--jobs", 2]],
                             ids=["zero", "negative", "no-suite"])
    def test_bad_jobs_exit_two(self, monkeypatch, capsys, args):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        assert run(["verify", "--n", 30, *args]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--jobs" in json.loads(out.err)["error"]

    def test_suite_rejects_input(self, tmp_path, capsys):
        save_mesh(tmp_path / "f.off", pentagonal_pyramid())
        assert run(["verify", "--n", 30, "--suite", 2,
                    "--input", tmp_path / "f.off"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--input" in json.loads(out.err)["error"]


class TestRenderAndStats:
    def test_render_writes_svgs_and_obj(self, tmp_path):
        assert run(["render", "--n", 40, "--seed", 2,
                    "--out-dir", tmp_path]) == 0
        for name in ("net.svg", "forest.svg", "cap.obj"):
            assert (tmp_path / name).exists()
        ET.fromstring((tmp_path / "net.svg").read_text())
        ET.fromstring((tmp_path / "forest.svg").read_text())

    def test_stats_prints_metrics(self, capsys):
        assert run(["stats", "--n", 40, "--seed", 0]) == 0
        m = json.loads(capsys.readouterr().out)
        assert m["n_vertices"] > 0
        assert m["phi_actual_deg"] <= m["phi_budget_deg"] + 1e-9
