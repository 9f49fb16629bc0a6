"""Span recording: self-time arithmetic and a balanced stack when calls raise.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import END, NAME, PARENT, START, Tracer, self_times, summarize  # noqa: E402


def test_self_time_on_a_hand_built_tree():
    # study [0, 10] has children coefficients [1, 6] and mc [7, 9];
    # coefficients has children pyramid [2, 3] and pyramid [4, 5.5].
    spans = [
        ["study", 0.0, 10.0, None],
        ["coefficients", 1.0, 6.0, 0],
        ["pyramid", 2.0, 3.0, 1],
        ["pyramid", 4.0, 5.5, 1],
        ["mc", 7.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    summary = summarize(spans)
    assert summary["pyramid"] == {"calls": 2, "total_s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    assert summary["study"]["total_s"] == pytest.approx(10.0)
    assert summary["study"]["self_s"] == pytest.approx(3.0)


def test_nested_spans_of_one_name_count_their_time_once():
    spans = [["f", 0.0, 4.0, None], ["f", 1.0, 2.0, 0]]
    assert summarize(spans)["f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def fake_clock():
    ticks = iter(range(100))
    return lambda: float(next(ticks))


def test_wrapped_calls_nest_and_report_results():
    tracer = Tracer(clock=fake_clock())
    seen = []
    inner = tracer.wrap(
        "inner", lambda x: x + 1, on_result=lambda span, a, k, r: seen.append((span[NAME], r))
    )
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert seen == [("inner", 2), ("inner", 3)]
    assert [span[NAME] for span in tracer.spans] == ["outer", "inner", "inner"]
    assert [span[PARENT] for span in tracer.spans] == [None, 0, 0]
    assert all(span[END] > span[START] for span in tracer.spans)
    assert tracer.depth == 0


def test_the_stack_stays_balanced_when_a_wrapped_call_raises():
    tracer = Tracer(clock=fake_clock())

    def boom():
        raise ValueError("boom")

    failing = tracer.wrap("failing", boom)
    outer = tracer.wrap("outer", lambda: failing())
    with pytest.raises(ValueError):
        outer()
    assert tracer.depth == 0
    assert all(span[END] is not None for span in tracer.spans)
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[-1][PARENT] is None


def test_patch_rebinds_the_name_and_restore_undoes_it():
    module = types.SimpleNamespace(f=lambda: 7)
    original = module.f
    tracer = Tracer()
    tracer.patch(module, "f", "layer.f")
    assert module.f is not original and module.f() == 7
    assert [span[NAME] for span in tracer.spans] == ["layer.f"]
    tracer.restore()
    assert module.f is original
