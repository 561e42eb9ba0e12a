"""Checks of the benchmark's span tracer and metric list.

Run from the repository root: python3 -m pytest -q bench/check_spans.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (puts src/ on sys.path)
from spans import Tracer  # noqa: E402

from gatedlora import adapter, gating, numerics, subspace  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        t_leaf()
        clock.advance(0.5)

    def outer():
        t_middle()
        clock.advance(3.0)
        t_leaf()

    t_leaf = tracer.wrap("leaf", leaf)
    t_middle = tracer.wrap("middle", middle)
    t_outer = tracer.wrap("outer", outer)
    t_outer()

    st = tracer.stats
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (2, 4.0, 4.0)
    assert (st["middle"].calls, st["middle"].total_s, st["middle"].self_s) == (1, 3.5, 1.5)
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 8.5, 3.0)
    assert sum(s.self_s for s in st.values()) == st["outer"].total_s
    assert tracer.edges == {
        (None, "outer"): 1,
        ("outer", "middle"): 1,
        ("middle", "leaf"): 1,
        ("outer", "leaf"): 1,
    }


def test_raising_span_is_timed_and_unwinds():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    def outer():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            t_failing()

    t_failing = tracer.wrap("failing", failing)
    tracer.wrap("outer", outer)()

    assert (tracer.stats["failing"].calls, tracer.stats["failing"].self_s) == (1, 1.0)
    assert (tracer.stats["outer"].total_s, tracer.stats["outer"].self_s) == (3.0, 2.0)
    assert tracer._stack == []


def test_install_wraps_each_binding_and_uninstall_restores():
    before = (
        numerics.sym_eig,
        subspace.sym_eig,
        adapter.sym_eig,
        gating.GatingModule.forward_values,
        gating.GateFn.scalar,
    )
    tracer = Tracer()
    with tracer:
        assert subspace.sym_eig is not before[1]
        assert adapter.sym_eig is not before[2]
        assert gating.GateFn.scalar is before[4]
        subspace.sym_eig(np.eye(3))
        adapter.sym_eig(np.eye(3))
    after = (
        numerics.sym_eig,
        subspace.sym_eig,
        adapter.sym_eig,
        gating.GatingModule.forward_values,
        gating.GateFn.scalar,
    )
    assert all(a is b for a, b in zip(after, before))
    assert tracer.stats["numerics.sym_eig"].calls == 2
    assert not any(name.startswith("gating.GateFn") for name in tracer.stats)


def test_metric_lists_match_benchmark_json():
    import run

    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_probe_scales_wall_time_by_host_speed():
    from hostprobe import REFERENCE_S, HostProbe

    clock = FakeClock()
    probe = HostProbe(clock=clock)
    kernel_times = iter([REFERENCE_S, 2 * REFERENCE_S])
    probe.kernel = lambda: clock.advance(next(kernel_times))

    def op():
        # One second at the reference speed, one at half speed.
        clock.advance(1.0)
        probe.sample()
        clock.advance(1.0)
        probe.sample()
        return "out"

    out, wall, scaled = probe.timed(op)
    assert out == "out"
    assert wall == pytest.approx(2.0)  # the probe's own time is taken out
    assert scaled == pytest.approx(2.0 * (1.0 + 0.5) / 2)


def test_probe_samples_after_an_operation_shorter_than_its_interval():
    from hostprobe import REFERENCE_S, HostProbe

    clock = FakeClock()
    probe = HostProbe(clock=clock)
    probe.kernel = lambda: clock.advance(4 * REFERENCE_S)
    _, wall, scaled = probe.timed(clock.advance, 0.01)
    assert (wall, len(probe.samples)) == (pytest.approx(0.01), 1)
    assert scaled == pytest.approx(0.01 / 4)


def test_probe_disarms_its_timer_and_restores_the_handler():
    import signal

    from hostprobe import HostProbe

    before = signal.getsignal(signal.SIGALRM)
    with HostProbe() as probe:
        probe.timed(sum, range(10**6))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.samples
