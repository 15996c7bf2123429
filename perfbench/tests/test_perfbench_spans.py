"""Span arithmetic and wrapper hygiene of the benchmark's traced run."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_spans as spans  # noqa: E402


class Base:
    def inherited(self):
        return "base"


class Outer(Base):
    def __init__(self):
        self.inner = Inner()

    def run(self, depth):
        return self.inner.work(depth)


class Inner:
    def work(self, depth):
        if depth:
            return self.work(depth - 1) + 1
        return 0

    @staticmethod
    def helper(value):
        return value * 2


def free_function(value):
    return value + 1


HERE = __name__


def test_self_time_of_nested_synthetic_spans():
    spans_list = [
        (-1, "engine", 0.0, 10.0),
        (0, "l2", 1.0, 4.0),
        (1, "forecast", 2.0, 3.0),
        (0, "l1", 5.0, 9.0),
        (3, "l1", 6.0, 7.0),  # same layer nested: one call, self split
        (-1, "engine", 20.0, 21.5),
    ]
    totals = spans.layer_totals(spans_list)
    assert totals["engine"].self_s == pytest.approx((10.0 - 3.0 - 4.0) + 1.5)
    assert totals["l2"].self_s == pytest.approx(3.0 - 1.0)
    assert totals["forecast"].self_s == pytest.approx(1.0)
    assert totals["l1"].self_s == pytest.approx((4.0 - 1.0) + 1.0)
    assert totals["engine"].calls == 2
    assert totals["l1"].calls == 1
    assert sum(t.self_s for t in totals.values()) == pytest.approx(
        spans.root_seconds(spans_list)
    )


def test_open_spans_are_skipped():
    totals = spans.layer_totals([(-1, "engine", 0.0, 2.0), None])
    assert totals["engine"].calls == 1
    assert totals["engine"].self_s == pytest.approx(2.0)


def test_recorded_spans_nest_and_account_for_the_root():
    layers = (
        spans.Layer("outer", (f"{HERE}:Outer.run",)),
        spans.Layer("inner", (f"{HERE}:Inner.work",)),
    )
    recorder = spans.SpanRecorder()
    recorder.install(layers)
    try:
        assert Outer().run(3) == 3
    finally:
        recorder.uninstall()
    totals = spans.layer_totals(recorder.spans)
    assert totals["outer"].calls == 1
    assert totals["inner"].calls == 1  # the three recursive calls nest in one
    assert len([s for s in recorder.spans if s[1] == "inner"]) == 4
    assert all(s[0] >= 0 for s in recorder.spans if s[1] == "inner")
    assert sum(t.self_s for t in totals.values()) == pytest.approx(
        spans.root_seconds(recorder.spans)
    )


def _namespace_snapshot(owners):
    return {owner: dict(vars(owner)) for owner in owners}


def _assert_same_namespaces(before):
    for owner, namespace in before.items():
        after = dict(vars(owner))
        assert after.keys() == namespace.keys(), owner
        for name, value in namespace.items():
            assert after[name] is value, (owner, name)


def test_install_and_uninstall_leave_attributes_as_found():
    module = sys.modules[HERE]
    layers = (
        spans.Layer(
            "synthetic",
            (
                f"{HERE}:Outer.run",
                f"{HERE}:Outer.inherited",  # lives on Base, not Outer
                f"{HERE}:Inner.helper",  # staticmethod
                f"{HERE}:free_function",
            ),
        ),
    )
    before = _namespace_snapshot((Base, Outer, Inner))
    before_function = module.free_function
    recorder = spans.SpanRecorder()
    recorder.install(layers)
    assert "inherited" in vars(Outer)
    assert Outer().inherited() == "base"
    assert Inner.helper(4) == 8 and Inner().helper(4) == 8
    assert module.free_function(1) == 2
    assert len(recorder.spans) == 4
    recorder.uninstall()
    _assert_same_namespaces(before)
    assert module.free_function is before_function


def test_every_layer_entry_point_is_restored():
    pytest.importorskip("repro")
    owners = {
        owner
        for layer in spans.LAYERS
        for entry_point in layer.entry_points
        for owner, _ in spans.resolve_entry_point(entry_point)
    }
    before = _namespace_snapshot(owners)
    recorder = spans.SpanRecorder()
    recorder.install(spans.LAYERS)
    assert not recorder.missing, recorder.missing
    assert any(dict(vars(owner)) != before[owner] for owner in owners)
    recorder.uninstall()
    _assert_same_namespaces(before)


def test_missing_entry_points_mark_the_layer_absent():
    layers = (
        spans.Layer(
            "gone",
            (
                "repro_no_such_module:Thing.decide",
                f"{HERE}:NoSuchClass.step",
                f"{HERE}:Inner.no_such_method",
                f"{HERE}:NO_REGISTRY[*].act",
            ),
        ),
    )
    recorder = spans.SpanRecorder()
    recorder.install(layers)
    recorder.uninstall()
    assert recorder.missing == {"gone": list(layers[0].entry_points)}
