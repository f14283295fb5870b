"""Tests for the structured observability layer (repro.obs):

span nesting, virtual-clock spans, Chrome-trace schema, metric
aggregation across ranks, and end-to-end wiring through the coupled
driver, the rearranger, subfile I/O, and the distributed ocean run.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.coupler import AttrVect, GlobalSegMap, Rearranger, Router
from repro.io import SubfileLayout, read_subfiles, write_subfiles
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    Obs,
    Tracer,
    chrome_trace_events,
    text_report,
    timing_summary,
    write_chrome_trace,
)
from repro.parallel import SimWorld


class FakeClock:
    """Manually advanced clock: virtual-time spans, deterministic tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTracer:
    def test_span_nesting_paths_and_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("step"):
            clock.advance(1.0)
            with tracer.span("atm", steps=4):
                clock.advance(2.0)
            with tracer.span("ocn"):
                clock.advance(3.0)
        assert [s.name for s in tracer.spans] == ["atm", "ocn", "step"]
        atm, ocn, step = tracer.spans
        assert atm.path == ("step", "atm")
        assert atm.parent == "step"
        assert atm.depth == 1
        assert atm.duration == pytest.approx(2.0)
        assert atm.attrs == {"steps": 4}
        assert step.path == ("step",)
        assert step.parent is None
        assert step.duration == pytest.approx(6.0)
        assert ocn.start == pytest.approx(3.0)

    def test_mismatched_end_raises(self):
        tracer = Tracer(clock=FakeClock())
        tracer.begin("a")
        with pytest.raises(RuntimeError, match="nesting violation"):
            tracer.end("b")
        with pytest.raises(RuntimeError, match="no span is open"):
            Tracer(clock=FakeClock()).end()

    def test_virtual_clock_spans_use_injected_time(self):
        """Spans on a machine-model virtual clock: durations are exactly
        the simulated seconds, independent of host wall time."""
        clock = FakeClock()
        clock.t = 1000.0  # nonzero epoch
        tracer = Tracer(clock=clock)
        with tracer.span("simulated_phase"):
            clock.advance(123.456)
        span = tracer.spans[0]
        assert span.start == pytest.approx(0.0)
        assert span.duration == pytest.approx(123.456)

    def test_text_report_golden_shape(self):
        """The nested table straight off ``Span.path``: a header, one row
        per distinct path, indentation = depth, calls/total/mean/min/max."""
        clock = FakeClock()
        tracer = Tracer(clock=clock, rank=3)
        for elapsed in (1.0, 3.0):
            with tracer.span("run"):
                with tracer.span("atm"):
                    with tracer.span("dycore"):
                        clock.advance(elapsed)
                with tracer.span("ocn"):
                    clock.advance(0.5)
        lines = text_report([tracer]).splitlines()
        assert lines[0] == "== rank 3 =="
        assert lines[1].split() == [
            "span", "calls", "total(s)", "mean(s)", "min(s)", "max(s)"
        ]
        rows = [(len(ln) - len(ln.lstrip()), ln.split()) for ln in lines[2:]]
        assert rows == [
            (0, ["run", "2", "5.000000", "2.500000", "1.500000", "3.500000"]),
            (2, ["atm", "2", "4.000000", "2.000000", "1.000000", "3.000000"]),
            (4, ["dycore", "2", "4.000000", "2.000000", "1.000000", "3.000000"]),
            (2, ["ocn", "2", "1.000000", "0.500000", "0.500000", "0.500000"]),
        ]

    def test_timing_summary_matches_get_timing(self):
        tracers = []
        for rank, seconds in enumerate((10.0, 20.0, 15.0)):
            clock = FakeClock()
            tracer = Tracer(clock=clock, rank=rank)
            with tracer.span("run_loop"):
                clock.advance(seconds)
            tracers.append(tracer)
        rep = timing_summary(tracers, "run_loop", simulated_days=1.0)
        assert rep.max_seconds == pytest.approx(20.0)
        assert rep.min_seconds == pytest.approx(10.0)
        assert rep.mean_seconds == pytest.approx(15.0)
        assert rep.n_ranks == 3
        # 1 simulated day in 20 s wall -> 86400/20 = 4320 SDPD -> /365 SYPD
        assert rep.sdpd == pytest.approx(4320.0)
        assert rep.sypd == pytest.approx(4320.0 / 365.0)
        # A lane that never opened the span (a forked task domain) sits out.
        idle = Tracer(clock=FakeClock(), rank=9)
        assert timing_summary(tracers + [idle], "run_loop", 1.0).n_ranks == 3
        with pytest.raises(ValueError):
            timing_summary(tracers, "run_loop", simulated_days=0.0)
        with pytest.raises(KeyError):
            timing_summary(tracers, "missing", simulated_days=1.0)
        with pytest.raises(KeyError):
            timing_summary([], "run_loop", simulated_days=1.0)


class TestChromeTrace:
    def _one_tracer(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, rank=2)
        with tracer.span("step", coupling=0):
            clock.advance(0.25)
        return tracer

    def test_event_schema(self):
        events = chrome_trace_events([self._one_tracer()])
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta and spans
        ev = spans[0]
        assert ev["name"] == "step"
        assert ev["pid"] == 2
        assert ev["tid"] == 0
        assert ev["ts"] == pytest.approx(0.0)
        assert ev["dur"] == pytest.approx(0.25e6)  # microseconds
        assert ev["args"] == {"coupling": 0}
        json.dumps(events)  # must be JSON-serializable

    def test_written_file_is_valid_json(self, tmp_path):
        reg = MetricsRegistry(rank=2)
        reg.counter("x.bytes").inc(100)
        path = write_chrome_trace(
            tmp_path / "trace.json", [self._one_tracer()], [reg]
        )
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["x.bytes"]["sum"] == 100.0

    def test_non_jsonable_attrs_coerced(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("s", arr=np.arange(3)):
            clock.advance(1.0)
        json.dumps(chrome_trace_events([tracer]))


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5.0
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5
        h = reg.histogram("h")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(7.0)
        assert h.min == pytest.approx(1.0)
        assert h.max == pytest.approx(4.0)
        assert h.mean == pytest.approx(7.0 / 3.0)

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_aggregate_across_ranks(self):
        regs = []
        for rank, value in enumerate((10.0, 30.0, 20.0)):
            reg = MetricsRegistry(rank=rank)
            reg.counter("bytes").inc(value)
            regs.append(reg)
        agg = MetricsRegistry.aggregate(regs)
        assert agg["bytes"]["n_ranks"] == 3.0
        assert agg["bytes"]["min"] == 10.0
        assert agg["bytes"]["max"] == 30.0
        assert agg["bytes"]["sum"] == 60.0
        assert agg["bytes"]["mean"] == pytest.approx(20.0)

    def test_aggregate_handles_missing_metrics(self):
        a = MetricsRegistry(rank=0)
        a.counter("only_on_a").inc(7)
        b = MetricsRegistry(rank=1)
        agg = MetricsRegistry.aggregate([a, b])
        assert agg["only_on_a"]["n_ranks"] == 1.0
        assert agg["only_on_a"]["sum"] == 7.0


class TestObsFacade:
    def test_disabled_obs_records_nothing(self):
        obs = Obs(enabled=False)
        with obs.span("s"):
            obs.counter("c").inc()
            obs.gauge("g").set(1.0)
            obs.histogram("h").observe(1.0)
        assert obs.tracer.spans == []
        assert obs.metrics.names() == []

    def test_fork_is_idempotent_and_per_rank(self):
        obs = Obs(clock=FakeClock())
        a = obs.fork(1)
        b = obs.fork(1)
        assert a is b
        c = obs.fork(2)
        assert c.rank == 2
        assert [o.rank for o in obs.all_ranks()] == [0, 1, 2]

    def test_report_contains_spans_and_metrics(self):
        clock = FakeClock()
        obs = Obs(clock=clock)
        with obs.span("phase"):
            clock.advance(1.0)
        obs.counter("io.bytes").inc(512)
        report = obs.report()
        assert "phase" in report
        assert "io.bytes" in report

    def test_prefixed_views_chain_into_the_root_registry(self):
        obs = Obs()
        obs.prefixed("a").prefixed("b").counter("x").inc()
        assert obs.metrics.names() == ["a.b.x"]
        assert obs.metrics.get("a.b.x").value == 1.0

    def test_prefixed_returns_an_obs(self):
        view = Obs().prefixed("m")
        assert isinstance(view, Obs)
        assert view.prefix == "m"

    def test_disabled_prefixed_is_itself(self):
        assert NULL_OBS.prefixed("m") is NULL_OBS

    def test_view_fork_keeps_prefix_and_takes_next_free_rank(self):
        obs = Obs(clock=FakeClock())
        held = obs.fork(1)
        view = obs.prefixed("member.0")
        lane = view.fork(1)
        assert lane is not held and lane.rank == 2
        assert view.fork(1) is lane and lane.prefix == "member.0"
        with lane.span("ocn.run"):
            lane.counter("ocn.steps").inc()
        assert [s.name for s in lane.tracer.spans] == ["member.0.ocn.run"]
        assert lane.metrics.names() == ["member.0.ocn.steps"]

    def test_concurrent_view_forks_get_one_lane_each(self):
        """Forks race on the root's lane table: each view still gets one
        lane, and no two views share a rank."""
        obs = Obs(clock=FakeClock())
        views = [obs.prefixed(f"member.{k}") for k in range(4)]
        got = [[] for _ in views]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda k=k: got[k % 4].append(views[k % 4].fork(1)))
                for k in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        lanes = [lanes_k[0] for lanes_k in got]
        assert all(all(lane is lanes[k] for lane in got[k]) for k in range(4))
        assert sorted(lane.rank for lane in lanes) == [1, 2, 3, 4]
        assert [h.rank for h in obs.all_ranks()] == [0, 1, 2, 3, 4]

    def test_view_fork_lane_is_in_root_all_ranks(self):
        obs = Obs(clock=FakeClock())
        obs.fork(1)
        lane = obs.prefixed("member.0").fork(1)
        assert any(h is lane for h in obs.all_ranks())
        assert [h.rank for h in obs.all_ranks()] == [0, 1, 2]


class TestWiring:
    def test_rearrange_metrics_match_ledger(self):
        """Per-rank rearranger counters sum to the world's p2p ledger."""
        gsize, n_pes = 64, 4
        src = GlobalSegMap.from_owners(np.repeat(np.arange(n_pes), gsize // n_pes))
        dst = GlobalSegMap.from_owners(np.roll(np.repeat(np.arange(n_pes), gsize // n_pes), 5))
        router = Router.build(src, dst)
        rearranger = Rearranger(router, method="p2p")
        obs = Obs()
        gfield = np.arange(gsize, dtype=float)

        def program(comm):
            me = comm.rank
            av = AttrVect.from_dict({"f": gfield[src.local_indices(me)]})
            out = rearranger.rearrange(
                comm, av, len(dst.local_indices(me)), obs=obs.fork(me)
            )
            return out.get("f")

        world = SimWorld(n_pes)
        results = world.run(program)
        for pe, got in enumerate(results):
            assert np.array_equal(got, gfield[dst.local_indices(pe)])

        agg = MetricsRegistry.aggregate(
            [o.metrics for o in obs.all_ranks() if o.metrics.names()]
        )
        assert agg["cpl.rearrange.messages"]["sum"] == world.ledger.p2p_messages
        assert agg["cpl.rearrange.bytes"]["sum"] == world.ledger.p2p_bytes
        # Every rank recorded a span for its rearrange call.
        ranks_with_spans = {
            o.rank for o in obs.all_ranks() if o.tracer.find("cpl.rearrange")
        }
        assert ranks_with_spans == set(range(n_pes))

    def test_rearrange_without_obs_unchanged(self):
        """obs=None (the default) must not record or allocate anything."""
        gsize, n_pes = 24, 3
        src = GlobalSegMap.from_owners(np.repeat(np.arange(n_pes), 8))
        dst = GlobalSegMap.from_owners(np.arange(gsize) % n_pes)
        router = Router.build(src, dst)
        gfield = np.arange(gsize, dtype=float)

        def program(comm):
            me = comm.rank
            av = AttrVect.from_dict({"f": gfield[src.local_indices(me)]})
            return Rearranger(router).rearrange(comm, av, len(dst.local_indices(me)))

        for av in SimWorld(n_pes).run(program):
            assert av is not None

    def test_subfile_io_records_bytes(self, tmp_path):
        obs = Obs()
        layout = SubfileLayout(n_ranks=8, n_groups=4)
        data = np.arange(64.0)
        from repro.parallel import block_ranges

        slices = [(s, data[s:e]) for s, e in block_ranges(64, 8)]
        write_subfiles(tmp_path, "x", layout, slices, obs=obs)
        back = read_subfiles(tmp_path, "x", layout, 64, obs=obs)
        assert np.array_equal(back, data)
        assert obs.counter("io.subfiles_written").value == 4.0
        assert obs.counter("io.bytes_written").value > 64 * 8  # data + headers
        assert obs.counter("io.bytes_read").value == back.nbytes
        assert obs.tracer.find("io.write_subfiles")
        assert obs.tracer.find("io.read_subfiles")

    def test_distributed_ocean_run_traced(self):
        from repro.grids.tripolar import TripolarGrid
        from repro.ocn.parallel_run import distributed_barotropic_run

        grid = TripolarGrid.build(nlon=24, nlat=16, n_levels=3)
        obs = Obs()
        state, norms = distributed_barotropic_run(grid, n_steps=2, n_ranks=2, obs=obs)
        assert len(norms) == 2
        rank_handles = [o for o in obs.all_ranks() if o.rank in (0, 1) and o.tracer.spans]
        assert len(rank_handles) == 2
        for handle in rank_handles:
            steps = handle.tracer.find("ocn.parallel_step")
            assert len(steps) == 2
            assert handle.tracer.find("ocn.halo_exchange")
            assert handle.tracer.find("ocn.solve")
        # The world's traffic landed in the parent metrics.
        assert obs.metrics.gauge("ocn.comm.p2p_messages").value > 0


class TestCoupledTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        from repro.esm import AP3ESM, AP3ESMConfig

        obs = Obs()
        model = AP3ESM(
            AP3ESMConfig(atm_level=2, ocn_nlon=32, ocn_nlat=24, ocn_levels=4),
            obs=obs,
        )
        model.init()
        model.run_couplings(5)  # ratio 5 -> exactly one ocean coupling
        return model, obs

    def test_every_coupling_step_has_component_spans(self, traced):
        model, obs = traced
        tracer = obs.tracer
        assert len(tracer.find("cpl.step")) == 5
        domain1 = tracer.find("cpl.domain.domain1")
        assert len(domain1) == 5
        assert all(s.parent == "cpl.step" for s in domain1)
        for phase in ("atm.run", "lnd.step", "cpl.a2o_remap", "ice.step", "cpl.o2a_merge"):
            spans = tracer.find(phase)
            assert len(spans) == 5, phase
            assert all(s.parent == "cpl.domain.domain1" for s in spans)
        ocn = tracer.find("ocn.run")
        assert len(ocn) == 1
        assert ocn[0].parent == "cpl.domain.domain2"
        assert tracer.find("esm.init")

    def test_metrics_track_component_steps(self, traced):
        model, obs = traced
        assert obs.counter("cpl.steps").value == 5.0
        assert obs.counter("atm.steps").value == 5.0
        assert obs.counter("ocn.couplings").value == 1.0
        assert obs.counter("ocn.steps").value == float(model.ocn_steps_per_coupling)

    def test_chrome_trace_export_is_valid(self, traced, tmp_path):
        model, obs = traced
        path = obs.write_chrome_trace(tmp_path / "coupled_trace.json")
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"cpl.step", "atm.run", "ice.step", "ocn.run"} <= names
        # Timestamps are non-negative microseconds with positive duration.
        for ev in doc["traceEvents"]:
            if ev.get("ph") == "X":
                assert ev["ts"] >= 0.0
                assert ev["dur"] >= 0.0
        assert doc["otherData"]["cpl.steps"]["sum"] == 5.0

    def test_sypd_summary_from_trace(self, traced):
        model, obs = traced
        days = model.n_couplings * model.dt_couple / 86400.0
        rep = obs.timing("cpl.step", simulated_days=days)
        assert rep.sypd > 0
        assert rep.n_ranks == 1