"""Tests for the coupler fast path (§5.2.4): the content-addressed
offline GSMap/Router cache, the coalesced RearrangePlan, and end-to-end
field pruning through CoupledExchange — plus the driver/CLI wiring.

The load-bearing contracts: every layout (per-field, per-bundle,
coalesced plan) is bitwise identical on surviving fields; the plan
carries ``n_fields``-times fewer messages per edge; a warm cache skips
``Router.build`` and says so on the obs ledger; an elastic shrink can
never be served a stale table because the owner arrays *are* the key.
"""

import numpy as np
import pytest

from repro.coupler import (
    AttrVect,
    CoupledExchange,
    CouplerCache,
    FieldRegistry,
    GlobalSegMap,
    Rearranger,
    RearrangePlan,
    Router,
)
from repro.esm import first_difference, snapshot
from repro.obs import NULL_OBS, Obs
from repro.parallel import SimWorld
from repro.resilience import CommFault, CommFaultInjector, FaultPlan

N_RANKS = 4
PER_RANK = 5
GSIZE = N_RANKS * PER_RANK


@pytest.fixture()
def maps():
    src = GlobalSegMap.from_owners(np.arange(GSIZE) * N_RANKS // GSIZE)
    dst = GlobalSegMap.from_owners(np.arange(GSIZE) % N_RANKS)
    return src, dst


@pytest.fixture()
def router(maps):
    return Router.build(*maps)


def _bundles():
    """Two global field bundles with deterministic, distinct values."""
    rng = np.random.default_rng(7)
    return {
        "x2o": {f: rng.normal(size=GSIZE) for f in ("taux", "tauy", "heat")},
        "i2x": {f: rng.normal(size=GSIZE) for f in ("ifrac", "tsurf")},
    }


def _local(bundle, gsmap, rank):
    idx = gsmap.local_indices(rank)
    return AttrVect.from_dict({f: g[idx] for f, g in bundle.items()})


class TestRearrangePlan:
    def test_compile_validation(self, router):
        with pytest.raises(ValueError, match="at least one bundle"):
            RearrangePlan.compile(router, {})
        with pytest.raises(ValueError, match="no fields"):
            RearrangePlan.compile(router, {"x2o": []})
        with pytest.raises(ValueError, match="duplicate"):
            RearrangePlan.compile(router, {"x2o": ["a", "a"]})

    def test_introspection(self, router):
        plan = RearrangePlan.compile(router, {"a": ["f1", "f2"], "b": ["g1"]})
        assert plan.n_fields == 3
        assert plan.n_bundles == 2
        assert plan.bundle_fields("b") == ("g1",)
        with pytest.raises(KeyError):
            plan.bundle_fields("zz")

    def test_plan_matches_per_field_and_bundle_layouts(self, maps, router):
        """The acceptance identity: coalesced plan == per-bundle == the
        legacy per-field layout, bitwise, on every field."""
        src, dst = maps
        bundles = _bundles()
        schema = {n: list(b) for n, b in bundles.items()}
        plan = RearrangePlan.compile(router, schema)

        def run_plan(comm):
            srcs = {n: _local(b, src, comm.rank) for n, b in bundles.items()}
            out = plan.execute(comm, srcs, len(dst.local_indices(comm.rank)))
            return {n: av.data.copy() for n, av in out.items()}

        def run_rearranger(granularity):
            rearranger = Rearranger(router, method="p2p", granularity=granularity)

            def program(comm):
                dst_lsize = len(dst.local_indices(comm.rank))
                return {
                    n: rearranger.rearrange(
                        comm, _local(b, src, comm.rank), dst_lsize
                    ).data.copy()
                    for n, b in bundles.items()
                }

            return SimWorld(N_RANKS, timeout=5.0).run(program)

        plan_out = SimWorld(N_RANKS, timeout=5.0).run(run_plan)
        for legacy in (run_rearranger("field"), run_rearranger("bundle")):
            for rank_plan, rank_legacy in zip(plan_out, legacy):
                for name in bundles:
                    assert np.array_equal(rank_plan[name], rank_legacy[name]), name

    def test_plan_delivers_correct_values(self, maps, router):
        """Destination ranks see exactly the global field at their points."""
        src, dst = maps
        bundles = _bundles()
        plan = RearrangePlan.compile(router, {n: list(b) for n, b in bundles.items()})

        def program(comm):
            srcs = {n: _local(b, src, comm.rank) for n, b in bundles.items()}
            return plan.execute(comm, srcs, len(dst.local_indices(comm.rank)))

        outs = SimWorld(N_RANKS, timeout=5.0).run(program)
        for rank, out in enumerate(outs):
            idx = dst.local_indices(rank)
            for name, bundle in bundles.items():
                for fname, gfield in bundle.items():
                    assert np.array_equal(out[name].get(fname), gfield[idx])

    def test_plan_coalesces_messages_on_the_ledger(self, maps, router):
        """One message per (src, dst) edge, against n_fields for the
        legacy layout — the ≥ n_fields× reduction the issue demands."""
        src, dst = maps
        bundles = _bundles()
        n_fields = sum(len(b) for b in bundles.values())
        plan = RearrangePlan.compile(router, {n: list(b) for n, b in bundles.items()})
        edges = sum(1 for (p, q) in router.send if p != q)

        def run_plan(comm):
            srcs = {n: _local(b, src, comm.rank) for n, b in bundles.items()}
            plan.execute(comm, srcs, len(dst.local_indices(comm.rank)))

        world = SimWorld(N_RANKS, timeout=5.0)
        world.run(run_plan)
        assert world.ledger.p2p_messages == edges

        rearranger = Rearranger(router, method="p2p", granularity="field")

        def run_field(comm):
            dst_lsize = len(dst.local_indices(comm.rank))
            for n, b in bundles.items():
                rearranger.rearrange(comm, _local(b, src, comm.rank), dst_lsize)

        world_f = SimWorld(N_RANKS, timeout=5.0)
        world_f.run(run_field)
        # bcast traffic rides along in the legacy path; p2p data messages
        # alone already show the full n_fields factor.
        assert world_f.ledger.p2p_messages == edges * n_fields
        assert world_f.ledger.p2p_messages >= n_fields * world.ledger.p2p_messages

    def test_message_counts_arithmetic(self, router):
        plan = RearrangePlan.compile(router, {"a": ["f1", "f2", "f3"], "b": ["g1", "g2"]})
        mc = plan.message_counts(N_RANKS)
        assert mc["n_fields"] == 5.0
        assert mc["coalesced_messages_per_edge"] == 1.0
        assert mc["per_field_messages_per_edge"] == 5.0
        assert mc["message_reduction"] == 5.0
        assert mc["per_field_messages_per_rank_max"] == 5 * mc["coalesced_messages_per_rank_max"]
        # The rearranger's pricing agrees on the granularity axis.
        rc = Rearranger(router).message_counts(N_RANKS, n_fields=5)
        assert rc["field_messages_per_rank_max"] == mc["per_field_messages_per_rank_max"]
        assert rc["bundle_messages_per_rank_max"] == mc["coalesced_messages_per_rank_max"]

    def test_plan_obs_counters(self, maps, router):
        src, dst = maps
        bundles = _bundles()
        n_fields = sum(len(b) for b in bundles.values())
        plan = RearrangePlan.compile(router, {n: list(b) for n, b in bundles.items()})
        obs = Obs()

        def program(comm):
            srcs = {n: _local(b, src, comm.rank) for n, b in bundles.items()}
            plan.execute(
                comm, srcs, len(dst.local_indices(comm.rank)), obs=obs.fork(comm.rank)
            )

        world = SimWorld(N_RANKS, timeout=5.0)
        world.run(program)
        totals = {}
        for h in obs.all_ranks():
            for name in h.metrics.names():
                m = h.metrics.get(name)
                if m.kind == "counter":
                    totals[name] = totals.get(name, 0) + m.value
        assert totals["cpl.plan.calls"] == N_RANKS
        assert totals["cpl.plan.messages"] == world.ledger.p2p_messages
        assert totals["cpl.plan.messages_saved"] == (
            totals["cpl.plan.messages"] * (n_fields - 1)
        )

    def test_plan_retries_transient_faults_bit_identical(self, maps, router):
        """The resilience contract survives coalescing: a transient fault
        on the coalesced edge is retried and the run stays bit-identical."""
        src, dst = maps
        bundles = _bundles()
        schema = {n: list(b) for n, b in bundles.items()}
        plan_clean = RearrangePlan.compile(router, schema)
        plan_faulted = RearrangePlan.compile(router, schema, max_retries=3)

        def make_program(plan, obs):
            def program(comm):
                srcs = {n: _local(b, src, comm.rank) for n, b in bundles.items()}
                out = plan.execute(
                    comm, srcs, len(dst.local_indices(comm.rank)),
                    obs=obs.fork(comm.rank) if obs is not None else NULL_OBS,
                )
                return {n: av.data.copy() for n, av in out.items()}
            return program

        clean = SimWorld(N_RANKS, timeout=5.0).run(make_program(plan_clean, None))

        obs = Obs()
        fault_plan = FaultPlan(comm=[
            CommFault(kind="transient", src=0, dst=3, match=0, times=2)])
        world = SimWorld(
            N_RANKS, timeout=5.0, faults=CommFaultInjector(fault_plan, obs=obs))
        faulted = world.run(make_program(plan_faulted, obs))

        for a, b in zip(faulted, clean):
            for name in bundles:
                assert np.array_equal(a[name], b[name])
        retries = sum(
            h.metrics.get("resilience.retries").value
            for h in obs.all_ranks()
            if "resilience.retries" in h.metrics.names()
        )
        assert retries == 2

    def test_mixed_none_sources_rejected(self, router):
        plan = RearrangePlan.compile(router, {"a": ["f"], "b": ["g"]})

        def program(comm):
            srcs = {"a": AttrVect.from_dict({"f": np.zeros(PER_RANK)}), "b": None}
            with pytest.raises(ValueError, match="all present or all None"):
                plan._pack(srcs)
            with pytest.raises(KeyError, match="missing source bundle"):
                plan._pack({"a": None})
            return True

        assert all(SimWorld(N_RANKS, timeout=5.0).run(program))


def _same_router(a, b):
    return a.send.keys() == b.send.keys() and all(
        np.array_equal(a.send[k], b.send[k]) and np.array_equal(a.recv[k], b.recv[k])
        for k in a.send
    )


class TestCouplerCache:
    def test_miss_then_hit(self, tmp_path, maps):
        src, dst = maps
        cache = CouplerCache(tmp_path)
        r1 = cache.get_router("g1", "g2", src, dst)
        assert (cache.hits, cache.misses) == (0, 1)
        r2 = cache.get_router("g1", "g2", src, dst)
        assert (cache.hits, cache.misses) == (1, 1)
        assert _same_router(r2, r1)
        assert cache.build_time_saved_s >= 0.0
        stats = cache.stats()
        assert stats["hits"] == 1.0 and stats["entries"] >= 1.0

    def test_torn_entry_is_a_miss_and_gets_repaired(self, tmp_path, maps):
        """A half-written ``.npz`` (crash mid-save) must not brick the
        directory: the next lookup rebuilds over it."""
        src, dst = maps
        CouplerCache(tmp_path).get_router("g1", "g2", src, dst)
        (entry,) = tmp_path.glob("router-*.npz")
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        cache = CouplerCache(tmp_path)
        assert _same_router(cache.get_router("g1", "g2", src, dst), Router.build(src, dst))
        assert (cache.hits, cache.misses) == (0, 1)
        assert _same_router(Router.from_file(entry), Router.build(src, dst))
        assert [q.name for q in tmp_path.glob("*.npz")] == [entry.name]  # no temp left
        cache.get_router("g1", "g2", src, dst)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_gsmap_roundtrip(self, tmp_path):
        owners = np.arange(12) % 3
        cache = CouplerCache(tmp_path)
        g1 = cache.get_gsmap("grid", owners)
        g2 = cache.get_gsmap("grid", owners)
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(g1.owner_array(), g2.owner_array())

    def test_grid_id_differentiates(self, tmp_path):
        owners = np.arange(8) % 2
        cache = CouplerCache(tmp_path)
        cache.get_gsmap("atm", owners)
        cache.get_gsmap("ocn", owners)
        assert cache.misses == 2

    def test_elastic_shrink_invalidates(self, tmp_path, maps):
        """The stale-table hazard the key design removes: after a rank
        failure rewrites the owner arrays, the pre-failure Router cannot
        be served — the new content hashes to a different key."""
        src, dst = maps
        cache = CouplerCache(tmp_path)
        cache.get_router("cpl", "ocn", src, dst)
        # Shrink-the-world repair: rank 3 dies, its points redistribute.
        owners = dst.owner_array()
        shrunk = GlobalSegMap.from_owners(np.where(owners == 3, 0, owners))
        cache.get_router("cpl", "ocn", src, shrunk)
        assert cache.misses == 2 and cache.hits == 0
        # The original decomposition still hits its own entry.
        cache.get_router("cpl", "ocn", src, dst)
        assert cache.hits == 1

    def test_obs_counters(self, tmp_path, maps):
        src, dst = maps
        obs = Obs()
        cache = CouplerCache(tmp_path, obs=obs)
        cache.get_router("a", "b", src, dst)
        cache.get_router("a", "b", src, dst)
        assert obs.metrics.get("coupler.cache.misses").value == 1
        assert obs.metrics.get("coupler.cache.hits").value == 1
        assert "coupler.cache.build_time_saved" in obs.metrics.names()


class TestFieldRegistryEdges:
    def test_unknown_path_raises(self):
        reg = FieldRegistry()
        with pytest.raises(KeyError, match="unknown path"):
            reg.pruned("nope")
        with pytest.raises(KeyError, match="unknown path"):
            reg.n_used("nope")

    def test_empty_registration(self):
        reg = FieldRegistry()
        reg.register("empty", [])
        assert reg.pruned("empty") == []
        assert reg.n_used("empty") == 0
        s = reg.savings("empty", lsize=100)
        assert s["fraction_saved"] == 0.0  # an empty path saves nothing
        assert s["bytes_before"] == 0.0

    def test_all_pruned(self):
        reg = FieldRegistry()
        reg.register("p", ["a", "b", "c"])
        assert reg.pruned("p") == []
        assert reg.n_used("p") == 0
        assert reg.savings("p", lsize=10)["fraction_saved"] == 1.0

    def test_nothing_pruned(self):
        reg = FieldRegistry()
        reg.register("p", ["a", "b"])
        reg.mark_used("p", ["b", "a"])
        assert reg.pruned("p") == ["a", "b"]  # registration order
        assert reg.savings("p", lsize=10)["fraction_saved"] == 0.0


class TestCoupledExchange:
    @pytest.fixture()
    def registry(self):
        reg = FieldRegistry()
        reg.register("o2x", ["sst", "u", "v", "ssh", "freezing"])
        reg.mark_used("o2x", ["sst", "freezing"])
        return reg

    def test_round_trip_preserves_dtype_and_shape(self, registry):
        ex = CoupledExchange(registry)
        values = {
            "sst": np.random.default_rng(0).normal(size=(4, 3)),
            "u": np.arange(12, dtype=np.float32).reshape(4, 3),
            "v": np.zeros((4, 3)),
            "ssh": np.ones(12),
            "freezing": np.array([True, False, True] * 4),
        }
        out = ex.transfer("o2x", values)
        assert set(out) == set(values)
        for name, arr in values.items():
            assert out[name].dtype == np.asarray(arr).dtype, name
            assert out[name].shape == np.asarray(arr).shape, name
            assert np.array_equal(out[name], arr), name

    def test_pruning_drops_unused_exactly(self, registry):
        ex = CoupledExchange(registry, prune=True)
        values = {n: np.full(6, i, dtype=float)
                  for i, n in enumerate(registry.registered["o2x"])}
        values["freezing"] = np.array([True] * 6)
        out = ex.transfer("o2x", values)
        assert sorted(out) == ["freezing", "sst"]
        assert np.array_equal(out["sst"], values["sst"])
        assert np.array_equal(out["freezing"], values["freezing"])
        rep = ex.report()["o2x"]
        assert rep["fields_pruned"] == 3
        assert rep["bytes_saved"] == 3 * 6 * 8

    def test_unknown_path_and_fields_rejected(self, registry):
        ex = CoupledExchange(registry)
        with pytest.raises(KeyError, match="unknown coupling path"):
            ex.transfer("a2x", {})
        with pytest.raises(KeyError, match="unregistered fields"):
            ex.transfer("o2x", {"sst": np.zeros(3), "freezing": np.zeros(3),
                                "bogus": np.zeros(3)})

    def test_missing_used_field_rejected(self, registry):
        ex = CoupledExchange(registry)
        with pytest.raises(KeyError, match="missing used fields"):
            ex.transfer("o2x", {"sst": np.zeros(3)})  # no freezing

    def test_registered_unused_field_may_be_absent(self, registry):
        """Optional diagnostics the producer did not emit are tolerated —
        they would not survive pruning anyway."""
        ex = CoupledExchange(registry)
        out = ex.transfer("o2x", {"sst": np.zeros(3), "freezing": np.zeros(3, bool)})
        assert sorted(out) == ["freezing", "sst"]

    def test_obs_counters(self, registry):
        obs = Obs()
        ex = CoupledExchange(registry, prune=True, obs=obs)
        values = {"sst": np.zeros(5), "freezing": np.ones(5, bool),
                  "u": np.zeros(5)}
        ex.transfer("o2x", values)
        assert obs.metrics.get("coupler.exchange.transfers").value == 1
        assert obs.metrics.get("coupler.exchange.fields").value == 2
        assert obs.metrics.get("coupler.exchange.fields_pruned").value == 1


class TestDriverFastPath:
    """The driver wiring: pruning is bitwise-neutral on surviving fields,
    a warm cache skips Router.build, and coupler_report tells the story."""

    CFG = dict(atm_level=2, ocn_nlon=24, ocn_nlat=16, ocn_levels=4)

    @staticmethod
    def _run(tmp_path=None, prune=False, obs=None, couplings=6):
        from repro.esm import AP3ESM, AP3ESMConfig

        cfg = AP3ESMConfig(
            **TestDriverFastPath.CFG,
            prune_fields=prune,
            coupler_cache_dir=str(tmp_path) if tmp_path is not None else None,
        )
        m = AP3ESM(cfg, obs=obs)
        m.init()
        m.run_couplings(couplings)
        return m

    def test_pruning_is_bitwise_neutral(self):
        base = self._run(prune=False)
        pruned = self._run(prune=True)
        assert first_difference(snapshot(base), snapshot(pruned)) is None
        # But the pruned run genuinely moved fewer bytes.
        assert pruned.exchange.report()["a2x"]["bytes_saved"] > 0
        assert sorted(pruned._o2x) == sorted(pruned.fields.pruned("o2x"))

    def test_warm_cache_skips_router_build(self, tmp_path):
        cold_obs = Obs()
        cold = self._run(tmp_path, obs=cold_obs, couplings=2)
        assert cold.coupler_cache.misses > 0
        assert cold.coupler_cache.hits == 0

        warm_obs = Obs()
        warm = self._run(tmp_path, obs=warm_obs, couplings=2)
        assert warm.coupler_cache.misses == 0
        assert warm.coupler_cache.hits == cold.coupler_cache.misses
        # The obs ledger records the skip (the acceptance counter).
        assert warm_obs.metrics.get("coupler.cache.hits").value == warm.coupler_cache.hits
        assert "coupler.cache.hits" not in cold_obs.metrics.names()
        assert first_difference(snapshot(cold), snapshot(warm)) is None

    def test_compiled_plans_and_report(self, tmp_path):
        m = self._run(tmp_path, prune=True, couplings=2)
        assert set(m.plans) == {"x2o", "o2x"}
        report = m.coupler_report()
        assert set(report) >= {"exchange", "pruning", "cache", "plans"}
        for name, plan in m.plans.items():
            mc = report["plans"][name]
            assert mc["message_reduction"] == plan.n_fields
            assert mc["message_reduction"] >= 4.0
        # Pruned plans carry only used fields.
        assert plan_fields(m.plans["x2o"]) == tuple(m.fields.pruned("x2o"))
        o2x = m.plans["o2x"]
        assert o2x.bundle_fields("o2x") == tuple(m.fields.pruned("o2x"))
        assert o2x.bundle_fields("i2x") == tuple(m.fields.pruned("i2x"))

    def test_driver_registry_matches_components(self):
        m = self._run(couplings=1)
        assert m.fields.n_used("x2o") == len(m.fields.registered["x2o"])
        assert 0 < m.fields.n_used("a2x") < len(m.fields.registered["a2x"])
        savings = m.coupler_report()["pruning"]
        assert savings["a2x"]["fraction_saved"] > 0


def plan_fields(plan):
    return plan.bundle_fields(plan.bundles[0][0])


class TestCLIGrouping:
    """run-coupled flags are organized into stable argument groups; this
    snapshot (by introspection, not help text) is the satellite's test."""

    def _groups(self, command="run-coupled"):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        run = sub.choices[command]
        groups = {}
        for g in run._action_groups:
            opts = sorted(
                s for a in g._group_actions for s in a.option_strings
            )
            if opts:
                groups[g.title] = opts
        return groups

    def test_group_snapshot(self):
        groups = self._groups()
        assert set(groups) >= {"core", "precision", "resilience", "coupler",
                               "observability"}
        assert groups["coupler"] == ["--coupler-cache", "--prune-fields"]
        assert "--precision" in groups["precision"]
        assert "--trace" in groups["observability"]
        assert {"--days", "--atm-level", "--ocn-nlon",
                "--backend", "--backend-workers"} <= set(groups["core"])
        assert {"--checkpoint-every", "--faults"} <= set(groups["resilience"])

    def test_run_ensemble_group_snapshot(self):
        """run-ensemble reuses run-coupled's shared groups verbatim and
        adds its own 'ensemble' group (no resilience: chaos/checkpoints
        don't compose with multi-member sessions yet)."""
        coupled = self._groups("run-coupled")
        ens = self._groups("run-ensemble")
        assert set(ens) >= {"core", "ensemble", "precision", "coupler",
                            "observability"}
        assert "resilience" not in ens
        for shared in ("core", "precision", "coupler", "observability"):
            assert ens[shared] == coupled[shared]
        assert ens["ensemble"] == ["--batch-physics", "--members",
                                   "--perturb-amplitude", "--perturb-seed"]

    def test_run_ensemble_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run-ensemble"])
        assert args.members == 2
        assert args.perturb_seed == 0
        assert args.perturb_amplitude == 1e-3
        assert args.batch_physics is False
        args = build_parser().parse_args(
            ["run-ensemble", "--members", "4", "--batch-physics",
             "--perturb-seed", "9"])
        assert (args.members, args.perturb_seed, args.batch_physics) == \
            (4, 9, True)

    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run-coupled", "--days", "1"])
        assert args.coupler_cache is None
        assert args.prune_fields is False
        args = build_parser().parse_args(
            ["run-coupled", "--coupler-cache", "/tmp/c", "--prune-fields"])
        assert args.coupler_cache == "/tmp/c"
        assert args.prune_fields is True
