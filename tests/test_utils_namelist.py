"""Tests for the Fortran-namelist parser and the config integration."""

import numpy as np
import pytest

from repro.esm import AP3ESMConfig
from repro.utils import NamelistError, parse_namelist, read_namelist, write_namelist

EXAMPLE = """
! AP3ESM coupled configuration (laptop scale)
&ap3esm_nml
  atm_level = 4
  ocn_nlon = 96, ocn_nlat = 64
  ocn_levels = 10
  ocn_couple_ratio = 5
/

&physics_nml
  albedo = 0.3
  sw_absorptivity = 1.2d-1     ! Fortran double exponent
  use_ai = .true.
  schemes = 'radiation', 'convection', 'condensation'
/
"""


class TestParser:
    def test_groups_and_scalars(self):
        groups = parse_namelist(EXAMPLE)
        assert set(groups) == {"ap3esm_nml", "physics_nml"}
        nml = groups["ap3esm_nml"]
        assert nml["atm_level"] == 4
        assert nml["ocn_nlon"] == 96 and nml["ocn_nlat"] == 64

    def test_fortran_types(self):
        phys = parse_namelist(EXAMPLE)["physics_nml"]
        assert phys["albedo"] == pytest.approx(0.3)
        assert phys["sw_absorptivity"] == pytest.approx(0.12)
        assert phys["use_ai"] is True
        assert phys["schemes"] == ["radiation", "convection", "condensation"]

    def test_comments_stripped(self):
        groups = parse_namelist("&g\n x = 1 ! a comment with = and , inside\n/")
        assert groups["g"]["x"] == 1

    def test_comment_char_inside_string_kept(self):
        groups = parse_namelist("&g\n name = 'not ! a comment'\n/")
        assert groups["g"]["name"] == "not ! a comment"

    def test_logical_forms(self):
        groups = parse_namelist("&g\n a = .true.\n b = F\n c = .f.\n/")
        assert groups["g"] == {"a": True, "b": False, "c": False}

    def test_duplicate_last_wins(self):
        groups = parse_namelist("&g\n x = 1\n x = 2\n/")
        assert groups["g"]["x"] == 2

    def test_malformed_raises(self):
        with pytest.raises(NamelistError):
            parse_namelist("x = 1")  # no group
        with pytest.raises(NamelistError):
            parse_namelist("&g\n x = @@@\n/")

    def test_roundtrip(self, tmp_path):
        groups = {
            "run_nml": {
                "steps": 10, "dt": 120.0, "restart": False,
                "tags": ["a", "b"], "title": "hello world",
            }
        }
        path = tmp_path / "run.nml"
        write_namelist(path, groups)
        back = read_namelist(path)
        assert back == groups


class TestConfigIntegration:
    def test_config_from_namelist(self, tmp_path):
        path = tmp_path / "ap3esm.nml"
        path.write_text(EXAMPLE)
        cfg = AP3ESMConfig.from_namelist(path)
        assert cfg.atm_level == 4
        assert cfg.ocn_nlon == 96
        assert cfg.ocn_couple_ratio == 5
        assert cfg.atm_nlev == 30  # default preserved

    def test_missing_group_rejected(self, tmp_path):
        path = tmp_path / "bad.nml"
        path.write_text("&other_nml\n x = 1\n/")
        with pytest.raises(ValueError, match="ap3esm_nml"):
            AP3ESMConfig.from_namelist(path)

    def test_unknown_variable_warns_and_is_ignored(self, tmp_path):
        path = tmp_path / "bad2.nml"
        path.write_text("&ap3esm_nml\n warp_drive = 9\n atm_level = 4\n/")
        with pytest.warns(UserWarning, match="warp_drive"):
            cfg = AP3ESMConfig.from_namelist(path)
        assert cfg.atm_level == 4
        assert not hasattr(cfg, "warp_drive")

    def test_namelist_config_actually_runs(self, tmp_path):
        path = tmp_path / "tiny.nml"
        path.write_text(
            "&ap3esm_nml\n atm_level = 3\n ocn_nlon = 48\n ocn_nlat = 32\n"
            " ocn_levels = 5\n/"
        )
        from repro.esm import AP3ESM

        model = AP3ESM(AP3ESMConfig.from_namelist(path))
        model.init()
        model.run_couplings(2)
        assert np.isfinite(model.atm.swe.h).all()

    def test_namelist_backend_that_is_not_an_executor_fails_at_init(self, tmp_path):
        path = tmp_path / "gpu.nml"
        path.write_text("&ap3esm_nml\n atm_level = 2\n backend = 'gpu'\n/")
        from repro.esm import AP3ESM

        model = AP3ESM(AP3ESMConfig.from_namelist(path))
        with pytest.raises(ValueError, match="expected 'serial' or 'procs'"):
            model.init()
