import types

import numpy as np
import pytest

import child
from tracer import Tracer, is_wrapper, self_times


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_nested_calls_aggregate_by_name():
    t = Tracer(clock=FakeClock())
    leaf = t.wrap(lambda: None, "leaf")

    def body():
        leaf()
        leaf()

    outer = t.wrap(body, "outer")
    outer()
    # outer spans clock 1..6 (5 s) around leaves 2..3 and 4..5
    assert t.by_name() == {"leaf": (2, 2.0), "outer": (1, 3.0)}
    assert list(t.parent) == [-1, 0, 0]


def test_span_closes_when_the_call_raises():
    t = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom")()
    assert t.by_name() == {"boom": (1, 1.0)}


def test_tally_sees_arguments_and_result():
    t = Tracer()

    def tally(counts, args, result):
        counts["rows"] = counts.get("rows", 0) + len(args[0]) + len(result)

    f = t.wrap(lambda xs: xs[:1], "f", tally)
    assert f([1, 2, 3]) == [1]
    assert t.counts == {"rows": 4}


def test_install_and_restore_module_attribute_and_method():
    def hello():
        return "hi"

    class Thing:
        def twice(self, x):
            return 2 * x

    module = types.SimpleNamespace(hello=hello)
    original_method = Thing.__dict__["twice"]
    t = Tracer()
    t.install(module, "hello", "m.hello")
    t.install(Thing, "twice", "thing.twice")
    assert is_wrapper(module.hello) and is_wrapper(Thing.__dict__["twice"])
    assert module.hello() == "hi" and Thing().twice(4) == 8
    assert {name: calls for name, (calls, _) in t.by_name().items()} == {
        "m.hello": 1,
        "thing.twice": 1,
    }
    with pytest.raises(RuntimeError):
        t.install(module, "hello", "again")
    t.restore()
    assert module.hello is hello
    assert Thing.__dict__["twice"] is original_method


def test_install_rejects_non_function_class_attributes():
    class Thing:
        @staticmethod
        def s():
            return 1

    with pytest.raises(TypeError):
        Tracer().install(Thing, "s", "thing.s")


def test_every_socsim_target_is_restored():
    t = Tracer()
    targets = child.socsim_targets()
    for owner, attr, name, tally in targets:
        t.install(owner, attr, name, tally)
    assert len(child.wrapped_targets()) == len(targets)
    t.restore()
    assert child.wrapped_targets() == []
    assert not any(is_wrapper(getattr(o, a)) for o, a, *_ in targets)
