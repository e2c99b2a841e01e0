"""Tests of the benchmark itself: seeded inputs, span arithmetic, wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import SPANS  # noqa: E402
from spans import Point, SpanRecorder, resolve_target  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda seed: workloads.warm_trace(seed, n=24),
    lambda seed: workloads.churn_trace(seed, n=24),
])
def test_trace_is_a_function_of_the_seed(make):
    first = workloads.trace_digest(make(5))
    assert workloads.trace_digest(make(5)) == first
    assert workloads.trace_digest(make(6)) != first


def test_train_plan_is_a_function_of_seed_and_round():
    assert workloads.train_plan(5, 0) == workloads.train_plan(5, 0)
    assert workloads.train_plan(5, 0) != workloads.train_plan(6, 0)
    assert workloads.train_plan(5, 0) != workloads.train_plan(5, 1)


def test_chaos_config_is_a_function_of_the_seed():
    assert workloads.chaos_config(3, 1e6) == workloads.chaos_config(3, 1e6)
    assert workloads.chaos_config(3, 1e6) != workloads.chaos_config(4, 1e6)


# ----------------------------------------------------------------------
# Span arithmetic on a fake module and a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake():
    """A throwaway package ``fakepkg`` with a module of traced functions."""
    clock = FakeClock()
    package = types.ModuleType("fakepkg")
    module = types.ModuleType("fakepkg.mod")

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        module.inner()
        clock.now += 2.0
        module.inner()

    def recursive(depth):
        clock.now += 1.0
        if depth:
            module.recursive(depth - 1)

    def search():
        module.inner()
        module.helper()

    def helper():
        clock.now += 5.0

    def spawn():
        clock.now += 7.0
        module.inner()

    def round_trip():
        clock.now += 1.0
        module.spawn()

    for fn in (inner, outer, recursive, search, helper, spawn, round_trip):
        setattr(module, fn.__name__, fn)
    package.mod = module
    sys.modules["fakepkg"] = package
    sys.modules["fakepkg.mod"] = module
    try:
        yield clock, module
    finally:
        del sys.modules["fakepkg.mod"]
        del sys.modules["fakepkg"]


def _recorder(clock, *points):
    return SpanRecorder(points, clock=clock, package="fakepkg")


def test_self_time_is_duration_minus_children(fake):
    clock, module = fake
    rec = _recorder(
        clock,
        Point("fakepkg.mod:outer", "outer", "a", group_root=True),
        Point("fakepkg.mod:inner", "inner", "b"),
    )
    with rec.installed(), rec.active():
        module.outer()
    assert rec.calls("outer") == 1 and rec.calls("inner") == 2
    assert rec.inclusive_s("outer") == pytest.approx(9.0)
    assert rec.self_s("outer") == pytest.approx(3.0)
    assert rec.self_s("inner") == pytest.approx(6.0)
    assert rec.layer_self == pytest.approx({"a": 3.0, "b": 6.0})
    assert rec.root_s == pytest.approx(9.0)
    assert sum(rec.layer_self.values()) == pytest.approx(rec.root_s)

    events = rec.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner", "inner"]
    root = events[0]["args"]
    assert root["parent"] == 0
    for child in events[1:]:
        assert child["args"]["parent"] == root["id"]
        assert child["args"]["group"] == root["group"] != 0
    assert events[0]["dur"] == pytest.approx(9e6)


def test_recursion_folds_into_the_outer_call(fake):
    clock, module = fake
    rec = _recorder(clock, Point("fakepkg.mod:recursive", "rec", "a",
                                 reentrant=False))
    with rec.installed(), rec.active():
        module.recursive(3)
    assert rec.calls("rec") == 1
    assert rec.self_s("rec") == pytest.approx(4.0)


def test_cold_only_points_record_inside_cold_searches_only(fake):
    clock, module = fake
    rec = _recorder(
        clock,
        Point("fakepkg.mod:search", "search", "selection", cold=True),
        Point("fakepkg.mod:helper", "helper", "selection", cold_only=True),
        Point("fakepkg.mod:inner", "inner", "pricing", cold_name="inner.cold",
              cold_layer="selection"),
    )
    with rec.installed(), rec.active():
        module.helper()
        module.inner()
        module.search()
    assert rec.calls("helper") == 1  # only the call under search
    assert rec.calls("inner") == 1 and rec.calls("inner.cold") == 1
    assert rec.layer_self == pytest.approx({"pricing": 3.0, "selection": 8.0})
    # helper outside the search left no span: 5s of wall time is not covered
    assert rec.root_s == pytest.approx(11.0)


def test_muted_span_leaves_the_traced_wall_time(fake):
    clock, module = fake
    rec = _recorder(
        clock,
        Point("fakepkg.mod:round_trip", "trip", "transport"),
        Point("fakepkg.mod:spawn", "spawn", "lifecycle", mute=True),
        Point("fakepkg.mod:inner", "inner", "b"),
    )
    with rec.installed(), rec.active():
        module.round_trip()
    assert rec.muted_s == pytest.approx(10.0)
    assert rec.calls("inner") == 0  # nothing below a muted span
    assert rec.self_s("trip") == pytest.approx(1.0)
    assert rec.root_s == pytest.approx(1.0)
    assert sum(rec.layer_self.values()) == pytest.approx(rec.root_s)


def test_calls_from_other_threads_pass_through(fake):
    clock, module = fake
    rec = _recorder(clock, Point("fakepkg.mod:inner", "inner", "b"))
    with rec.installed(), rec.active():
        worker = threading.Thread(target=module.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert rec.calls("inner") == 0


def test_nothing_is_recorded_while_inactive(fake):
    clock, module = fake
    rec = _recorder(clock, Point("fakepkg.mod:inner", "inner", "b"))
    with rec.installed():
        module.inner()
    assert rec.calls("inner") == 0 and not rec.events


def test_tag_splits_names_by_result(fake):
    clock, module = fake
    rec = _recorder(clock, Point("fakepkg.mod:inner", "inner", "b",
                                 tag=lambda result, kids: "none"))
    with rec.installed(), rec.active():
        module.inner()
    assert rec.calls("inner.none") == 1


# ----------------------------------------------------------------------
# Wrappers are installed on the real program and removed again
# ----------------------------------------------------------------------
def _snapshot(points) -> dict:
    """Every attribute a recorder may replace, by identity."""
    state = {}
    for point in points:
        owner, attr = resolve_target(point.target)
        if isinstance(owner, type):
            state[(id(owner), attr)] = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
            for name, module in list(sys.modules.items()):
                if module is None or not name.startswith("repro"):
                    continue
                for key, value in vars(module).items():
                    if value is original:
                        state[(id(module), key)] = value
    return state


def test_wrappers_are_restored():
    importlib.import_module("repro.runtime")
    before = _snapshot(SPANS)
    rec = SpanRecorder(SPANS)
    with rec.installed():
        owner, attr = resolve_target("repro.runtime.engine:run_transformer")
        assert getattr(owner, attr).__wrapped_by_perfbench__
        serving = importlib.import_module("repro.runtime.serving")
        assert serving.run_transformer.__wrapped_by_perfbench__
    after = _snapshot(SPANS)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value


def test_a_failed_install_restores_what_it_patched():
    before = _snapshot(SPANS)
    rec = SpanRecorder(SPANS + (Point("repro.runtime.engine:missing",
                                      "missing", "pricing"),))
    with pytest.raises(AttributeError):
        rec.install()
    after = _snapshot(SPANS)
    assert all(after[key] is value for key, value in before.items())


# ----------------------------------------------------------------------
# Without the program, the command fails without printing a result
# ----------------------------------------------------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "layers.py", "workloads.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
