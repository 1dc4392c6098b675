"""Span bookkeeping: self times and the layer table."""

import json

from e2ebench.tracing import ROOT_SPAN, Tracer, layer_table


def _pass(tracer, stage_a, stage_b, child):
    tracer.pass_number += 1
    root = tracer.add(ROOT_SPAN, 0.0, stage_a + stage_b + 1.0, None)
    tracer.add("a", 0.0, stage_a, root)
    b = tracer.add("b", stage_a, stage_a + stage_b, root)
    tracer.add("b.child", stage_a, stage_a + child, b)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    _pass(tracer, 2.0, 3.0, 1.0)
    assert tracer.self_times() == [1.0, 2.0, 2.0, 1.0]


def test_layer_table_takes_the_minimum_per_position_and_closes():
    tracer = Tracer()
    _pass(tracer, 2.0, 3.0, 1.0)
    _pass(tracer, 1.5, 4.0, 0.5)
    table = layer_table(tracer)
    assert table == {ROOT_SPAN: 1.0, "a": 1.5, "b": 2.0, "b.child": 0.5}


def test_span_context_manager_nests_and_round_trips(tmp_path):
    tracer = Tracer()
    tracer.pass_number = 1
    with tracer.span(ROOT_SPAN, None) as root:
        with tracer.span("layer.call", root) as call:
            assert call == 1
    tracer.write_jsonl(tmp_path / "spans.jsonl")
    rows = [json.loads(line)
            for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == [ROOT_SPAN, "layer.call"]
    assert rows[1]["parent"] == 0 and rows[0]["parent"] is None
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] \
        <= rows[0]["end"]
    assert all(r["pass"] == 1 for r in rows)
