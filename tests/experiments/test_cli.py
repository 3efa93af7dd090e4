"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments_parse(self):
        parser = build_parser()
        for name in ("fig1", "table4", "calibration", "list", "all"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig1", "--scale", "smoke", "--seed", "3"])
        assert args.scale == "smoke" and args.seed == 3

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure99"])

    def test_backend_choices(self):
        parser = build_parser()
        assert parser.parse_args(["fig1"]).backend == "numpy"
        for backend in ("reference", "numpy"):
            args = parser.parse_args(["fig1", "--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit):
            parser.parse_args(["fig1", "--backend", "cython"])


class TestMain:
    def test_malformed_kernel_threads_env_fails_before_running(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["table3"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "REPRO_KERNEL_THREADS" in captured.err
        assert captured.out == ""

    def test_list_catalogue(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1" in output and "table4" in output

    def test_run_table3(self, capsys):
        assert main(["table3"]) == 0
        output = capsys.readouterr().out
        assert "MovieLens" in output

    def test_run_fig1_smoke_with_json(self, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        assert main(["fig1", "--scale", "smoke", "--json", str(json_path)]) == 0
        output = capsys.readouterr().out
        assert "fig1a" in output
        payload = json.loads(json_path.read_text())
        assert "fig1" in payload
        assert len(payload["fig1"]) == 3

    def test_run_table4_smoke(self, capsys):
        assert main(["table4", "--scale", "smoke"]) == 0
        assert "GRD-LM-MAX" in capsys.readouterr().out

    def test_backends_agree_on_fig1_smoke(self, tmp_path):
        payloads = {}
        for backend in ("reference", "numpy"):
            json_path = tmp_path / f"{backend}.json"
            assert main([
                "fig1", "--scale", "smoke", "--backend", backend,
                "--json", str(json_path),
            ]) == 0
            payload = json.loads(json_path.read_text())
            # The recorded backend differs by construction; everything the
            # figure plots must not.
            for panel in payload["fig1"]:
                panel["metadata"].pop("backend", None)
            payloads[backend] = payload
        assert payloads["reference"] == payloads["numpy"]
