"""The bitwise twin check: ``snapshot`` of a coupled session and the
byte-exact ``first_difference`` every twin in the suite compares through."""

import numpy as np
import pytest

from repro.esm import AP3ESM, AP3ESMConfig, EnsembleConfig, EnsembleRun, first_difference, snapshot
from repro.ocn import LicomModel

SMALL = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)


class TestFirstDifference:
    def test_signed_zeros_differ(self):
        # np.array_equal counts -0.0 == +0.0; the twin check does not.
        assert first_difference({"x": np.array([0.0])}, {"x": np.array([-0.0])}) == "x"

    def test_equal_nan_bytes_match(self):
        x = np.array([1.0, np.nan])
        assert first_difference({"x": x}, {"x": x.copy()}) is None

    def test_dtype_and_shape_differ(self):
        x = np.arange(4.0)
        assert first_difference({"x": x}, {"x": x.astype(np.float32)}) == "x"
        assert first_difference({"x": x}, {"x": x.reshape(2, 2)}) == "x"

    def test_missing_leaf_on_either_side(self):
        x = np.zeros(2)
        assert first_difference({"x": x, "y": x}, {"x": x}) == "y"
        assert first_difference({"x": x}, {"x": x, "y": x}) == "y"

    def test_first_leaf_in_a_order(self):
        a = {"b": np.zeros(1), "a": np.zeros(1), "c": np.zeros(1)}
        b = {"c": np.ones(1), "a": np.ones(1), "b": np.zeros(1)}
        assert first_difference(a, b) == "a"


@pytest.fixture(scope="module")
def model():
    m = AP3ESM(AP3ESMConfig(**SMALL))
    m.init()
    m.run_couplings(2)
    return m


class TestSnapshot:
    def test_leaves_in_component_then_state_order(self, model):
        snap = snapshot(model)
        want = [f"{c.name}.{key}" for c in model.components for key in c.STATE]
        assert list(snap) == want + ["clock.time", "n_couplings"] and len(want) == 20
        assert float(snap["n_couplings"]) == 2.0
        assert not any(np.shares_memory(snap[f"ocn.{k}"], v) for k, v in model.ocn.state().items())

    @pytest.mark.parametrize("field", list(LicomModel.STATE))
    def test_one_flipped_bit_names_its_leaf(self, model, field):
        snap = snapshot(model)
        flipped = dict(snap, **{f"ocn.{field}": snap[f"ocn.{field}"].copy()})
        flipped[f"ocn.{field}"].reshape(-1).view(np.uint8)[3] ^= 1
        assert first_difference(snap, flipped) == f"ocn.{field}"
        assert first_difference(snap, snapshot(model)) is None

    def test_concurrent_domains_joined_right_after_step(self):
        serial = AP3ESM(AP3ESMConfig(**SMALL))
        concurrent = AP3ESM(AP3ESMConfig(concurrent_domains=True, **SMALL))
        for m in (serial, concurrent):
            m.init()
        try:
            # Coupling 5 launches the first ocean run; 6 publishes it.
            for _ in range(6):
                serial.step_coupling()
                concurrent.step_coupling()
                assert first_difference(snapshot(serial), snapshot(concurrent)) is None
        finally:
            concurrent.finalize()

    def test_ensemble_prefixes_each_member(self):
        ens = EnsembleRun(EnsembleConfig(base=AP3ESMConfig(**SMALL), members=2))
        ens.init()
        snap = snapshot(ens)
        want = {f"member{k}.{leaf}": v for k, m in enumerate(ens.members)
                for leaf, v in snapshot(m).items()}
        assert list(snap) == list(want) and first_difference(snap, want) is None
