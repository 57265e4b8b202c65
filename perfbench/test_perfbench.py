"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import signal
import types

import pytest

from hostspeed import REF_NOMINAL_S, HostSpeed
from measure import percentile, quartile_spread
from spans import Tracer, patched, self_times


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children():
    spans = [
        span("update", 0.0, 10.0),
        span("interp", 1.0, 3.0, parent=0),
        span("marginal", 4.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 5.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 8.0, parent=0),  # overlaps a on [4, 6]
        span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_ignores_grandchildren():
    spans = [
        span("run", 0.0, 10.0),
        span("update", 1.0, 9.0, parent=0),
        span("marginal", 2.0, 8.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 6.0])


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: [x] * 3, counter=lambda args, result: {"n": len(result)})
    outer_fn = tracer.wrap(lambda: inner(1))
    outer_fn()
    outer, call = tracer.spans
    assert outer["parent"] == -1 and call["parent"] == 0
    assert call["counts"] == {"n": 3}
    assert outer["start"] <= call["start"] <= call["end"] <= outer["end"]


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 1001))
    assert percentile(xs, 99) == 990  # nearest rank: 10 samples above it
    assert percentile(xs, 50) == 500
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(xs[:999], 99)
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10.0)


def _double(x):
    return 2 * x


def test_patched_restores_attributes():
    mod = types.SimpleNamespace(f=_double)
    tracer = Tracer()
    with patched(tracer, [(mod, "f", None)]):
        assert mod.f is not _double
        assert mod.f(2) == 4
    assert mod.f is _double
    assert [s["name"] for s in tracer.spans] == ["test_perfbench._double"]


def test_patched_restores_attributes_when_the_body_raises():
    mod = types.SimpleNamespace(f=_double, g=len)
    with pytest.raises(KeyError):
        with patched(Tracer(), [(mod, "f", None), (mod, "g", None)]):
            raise KeyError("boom")
    assert mod.f is _double and mod.g is len


def test_end_to_end_reports_every_benchmark_metric():
    import json

    import numpy as np
    import run

    def op(t0, ms, err):
        ticks = t0 + 1.0 + np.arange(501) * ms / 1e3  # 500 epochs after 1 s of set-up
        return {"t0": t0, "ticks": ticks, "range_err_m": err, "depth_err_m": 1.0}

    res = types.SimpleNamespace(
        imports=[(0.2, 0.0, 1.0), (0.4, 1.0, 2.0), (0.3, 2.0, 3.0)],
        setups=[(0.0, 1.0), (5.0, 7.0)],
        attempted=4, failed=1,
        builds=[(0.0, 2.0), (2.0, 5.0), (5.0, 14.0)],
        ops=[op(0.0, 2.0, 5.0), None, op(10.0, 4.0, 7.0)],
    )
    values = run.end_to_end(res, run.WALL)
    bench = json.loads(run.Path("BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} <= set(values)
    assert values["setup_s"] == pytest.approx(0.3 + 1.5)
    assert values["ok_frac"] == 0.75
    assert values["build_s"] == pytest.approx(3.0)
    assert values["epochs_per_s"] == pytest.approx(1000 / 5.0)
    assert values["epoch_ms_p50"] == pytest.approx(3.0)
    assert values["epoch_ms_p99"] == pytest.approx(4.0)
    assert values["tracking.range_err_m"] == 6.0


def test_host_speed_scales_by_the_samples_around_each_interval():
    hs = HostSpeed()
    hs.t = [0.1 * i for i in range(100)]                 # samples over 10 s
    hs.dur = [REF_NOMINAL_S] * 50 + [2 * REF_NOMINAL_S] * 50  # the host halves its speed at 5 s
    # a short interval takes the mean of the samples within 1 s of its middle
    assert hs.seconds(1.0, 1.1)[0] == pytest.approx(0.1)
    assert hs.seconds(8.0, 8.1)[0] == pytest.approx(0.05)
    assert hs.seconds(5.0, 5.1)[0] == pytest.approx(0.1 * 20 / 31)  # 9 samples at 1x, 11 at 2x
    # a long one the mean of the samples within it: 20 at 1x, 50 at 2x
    assert hs.seconds([0.0, 2.95], [4.5, 9.95]) == pytest.approx([4.5, 7.0 * 70 / 120])
    with pytest.raises(ValueError, match="host-speed samples"):
        hs.seconds(20.0, 20.1)
    assert HostSpeed(sample=False).seconds([1.0, 2.0], [1.5, 4.0]) == pytest.approx([0.5, 2.0])


def test_host_speed_samples_while_open_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as hs:
        t0 = hs.now()
        while hs.now() - t0 < 0.35:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(hs.dur) >= 2 and hs.busy_s == pytest.approx(sum(hs.dur))


def test_traced_run_restores_swfocal_functions():
    """The benchmark's own target list leaves swfocal as it found it."""
    import run

    sw = run.load_program(run.Path.cwd())
    before = [(m, a, getattr(m, a)) for m, a, _ in run.trace_targets(sw)]
    with patched(Tracer(), run.trace_targets(sw)):
        assert all(getattr(m, a) is not f for m, a, f in before)
    assert all(getattr(m, a) is f for m, a, f in before)
