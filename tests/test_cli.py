"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _resilience_config, build_parser, main


def test_parser_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [
        "info", "run-coupled", "run-ensemble", "typhoon", "scaling",
        "train-ai", "calibrate", "submit", "run-jobs",
    ]
    required = {
        "submit": ["--store", "st", "--job-id", "a"],
        "run-jobs": ["--store", "st", "--work-dir", "wk"],
    }
    for cmd in sub.choices:
        args = parser.parse_args([cmd, *required.get(cmd, [])])
        assert args.command == cmd


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info_runs(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "AP3ESM" in out
    assert "1v1" in out and "25v10" in out


def test_scaling_single_curve(capsys):
    assert main(["scaling", "--curve", "atm_3km_mpe"]) == 0
    out = capsys.readouterr().out
    assert "3 km ATM MPE" in out
    assert "anchor" in out


def test_scaling_unknown_curve(capsys):
    assert main(["scaling", "--curve", "nope"]) == 2
    assert "unknown curve" in capsys.readouterr().err


def test_run_coupled_short(capsys, tmp_path):
    rc = main([
        "run-coupled", "--days", "0.1", "--atm-level", "3",
        "--ocn-nlon", "48", "--ocn-nlat", "32", "--ocn-levels", "5",
        "--restart-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SYPD" in out
    for sub in ("atm", "ocn", "ice", "lnd", "cpl"):
        assert (tmp_path / sub / "restart.json").exists(), sub
    # The set is the whole coupled restart: a fresh model loads it and
    # lands bitwise on a library twin of the same run.
    from repro.esm import AP3ESM, AP3ESMConfig, first_difference, snapshot

    cfg = AP3ESMConfig(atm_level=3, ocn_nlon=48, ocn_nlat=32, ocn_levels=5,
                       precision="mixed")  # the CLI default
    twin = AP3ESM(cfg)
    twin.init()
    twin.run_days(0.1)
    fresh = AP3ESM(cfg)
    fresh.init()
    fresh.load_restart(tmp_path)
    assert twin.n_couplings > 0
    assert first_difference(snapshot(twin), snapshot(fresh)) is None


def test_typhoon_short(capsys):
    assert main(["typhoon", "--hours", "2", "--atm-level", "3"]) == 0
    out = capsys.readouterr().out
    assert "Vmax" in out
    assert "eye radius" in out


def test_backend_flag_parses():
    parser = build_parser()
    args = parser.parse_args(["run-coupled", "--backend", "procs",
                              "--backend-workers", "2"])
    assert args.backend == "procs"
    assert args.backend_workers == 2
    assert parser.parse_args(["run-coupled"]).backend == "serial"
    with pytest.raises(SystemExit):
        parser.parse_args(["run-coupled", "--backend", "quantum"])


def test_run_coupled_procs_backend(capsys):
    rc = main([
        "run-coupled", "--days", "0.1", "--atm-level", "3",
        "--ocn-nlon", "48", "--ocn-nlat", "32", "--ocn-levels", "5",
        "--backend", "procs", "--backend-workers", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "procs backend" in out
    assert "pool dispatch" in out


class TestEnsembleResilience:
    """run-ensemble's supervisor flags go through the one
    ``_resilience_config``, with the per-column guard off."""

    def _config(self, *flags):
        args = build_parser().parse_args(["run-ensemble", *flags])
        return _resilience_config(args, guard_physics=False)

    def test_default_is_config_free(self):
        assert self._config() is None

    def test_supervisor_turns_the_guard_off(self, tmp_path):
        res = self._config("--member-policy", "restart",
                           "--checkpoint-every", "2",
                           "--checkpoint-dir", str(tmp_path))
        assert res.guard_physics is False
        assert (res.member_policy, res.checkpoint_every) == ("restart", 2)

    def test_restart_without_checkpoints_rejected(self):
        with pytest.raises(SystemExit, match="rollback target"):
            self._config("--member-policy", "restart")

    def test_checkpoints_without_a_supervisor_rejected(self, tmp_path):
        """Member checkpoints are written by the fleet supervisor only: a
        cadence it would never honour is refused, not silently dropped."""
        with pytest.raises(SystemExit, match="--member-policy"):
            main(["run-ensemble", "--days", "0.125", "--atm-level", "2",
                  "--ocn-nlon", "24", "--ocn-nlat", "16", "--ocn-levels", "4",
                  "--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path)])
        assert not any(tmp_path.iterdir())


def test_invalid_resilience_config_exits_with_one_line(tmp_path):
    """A ResilienceConfig the flags cannot describe ends the run with one
    ``invalid resilience config`` line and exit status 1, no traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run-coupled", "--checkpoint-every", "1",
         "--checkpoint-dir", str(tmp_path / "ckpt"), "--checkpoint-keep", "0"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "invalid resilience config: checkpoint_keep must be >= 1"
    ]
