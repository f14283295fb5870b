"""The GPTL timer contract, checked on the one clock that is left.

``repro.utils.timers`` is gone; what its registry promised — accumulate,
nest, refuse a wrong stop, report calls/min/max, max-across-ranks SYPD —
is now the :class:`repro.obs.Obs` facade's job.  These tests keep their
ids and drive that facade (``tests/test_obs.py`` covers the tracer and
the exporters underneath it).
"""

import pytest

from repro.obs import Obs


class FakeClock:
    """Manually advanced clock for deterministic timer tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _rows(report: str):
    """(indent, name, calls, total, mean, min, max) per span-table row."""
    lines = report.splitlines()
    table = lines[lines.index("== rank 0 ==") + 2:]
    return [(len(ln) - len(ln.lstrip()), *ln.split()) for ln in table]


def test_start_stop_accumulates():
    clock = FakeClock()
    obs = Obs(clock=clock)
    for elapsed in (2.5, 1.5):
        obs.tracer.begin("run")
        clock.advance(elapsed)
        obs.tracer.end("run")
    assert obs.tracer.total("run") == pytest.approx(4.0)
    assert len(obs.tracer.find("run")) == 2


def test_nesting_structure_and_report():
    clock = FakeClock()
    obs = Obs(clock=clock)
    with obs.span("run"):
        with obs.span("atm"):
            clock.advance(1.0)
        with obs.span("ocn"):
            clock.advance(2.0)
    assert obs.tracer.total("run") == pytest.approx(3.0)
    assert obs.tracer.total("atm") == pytest.approx(1.0)
    assert [(r[0], r[1]) for r in _rows(obs.report())] == [
        (0, "run"), (2, "atm"), (2, "ocn"),
    ]


def test_stop_wrong_timer_raises():
    obs = Obs(clock=FakeClock())
    obs.tracer.begin("a")
    with pytest.raises(RuntimeError, match="nesting violation"):
        obs.tracer.end("b")
    # The refused stop left "a" open; it still closes cleanly.
    assert obs.tracer.end("a").name == "a"


def test_get_timing_uses_max_across_ranks():
    clock = FakeClock()
    obs = Obs(clock=clock)
    for rank, seconds in ((0, 10.0), (1, 20.0), (2, 15.0)):
        handle = obs if rank == 0 else obs.fork(rank)
        with handle.span("run_loop"):
            clock.advance(seconds)
    rep = obs.timing("run_loop", simulated_days=1.0)
    assert rep.max_seconds == pytest.approx(20.0)
    assert rep.n_ranks == 3
    # 1 simulated day in 20 s wall -> 86400/20 = 4320 SDPD -> /365 SYPD
    assert rep.sdpd == pytest.approx(4320.0)
    assert rep.sypd == pytest.approx(4320.0 / 365.0)


def test_get_timing_rejects_bad_inputs():
    clock = FakeClock()
    obs = Obs(clock=clock)
    with obs.span("run"):
        clock.advance(1.0)
    with pytest.raises(ValueError):
        obs.timing("run", simulated_days=0.0)
    with pytest.raises(KeyError):
        obs.timing("missing", simulated_days=1.0)
    with pytest.raises(KeyError):
        Obs(clock=clock).timing("run", simulated_days=1.0)


def test_timed_context_manager():
    clock = FakeClock()
    obs = Obs(clock=clock)
    with obs.span("step"):
        clock.advance(0.5)
    assert obs.tracer.total("step") == pytest.approx(0.5)
    # A body that raises still closes its span.
    with pytest.raises(ZeroDivisionError):
        with obs.span("step"):
            clock.advance(0.25)
            1 / 0
    assert obs.tracer.total("step") == pytest.approx(0.75)
    assert not obs.tracer._stack


def test_unrecorded_timer_min_is_finite():
    """Regression: a never-recorded node reported min = inf, which leaked
    into reports.  A report printed from inside an open span lists that
    span with zero calls and finite statistics."""
    clock = FakeClock()
    obs = Obs(clock=clock)
    with obs.span("outer"):
        with obs.span("inner"):
            clock.advance(2.0)
        rows = _rows(obs.report())
    assert rows == [
        (0, "outer", "0", "0.000000", "0.000000", "0.000000", "0.000000"),
        (2, "inner", "1", "2.000000", "2.000000", "2.000000", "2.000000"),
    ]


def test_report_surfaces_min_max():
    """Regression: report() omitted the min/max columns GPTL prints."""
    clock = FakeClock()
    obs = Obs(clock=clock)
    for elapsed in (1.0, 3.0):
        with obs.span("phase"):
            clock.advance(elapsed)
    report = obs.report()
    header = report.splitlines()[1]
    assert "min(s)" in header and "max(s)" in header
    assert _rows(report) == [
        (0, "phase", "2", "4.000000", "2.000000", "1.000000", "3.000000"),
    ]
