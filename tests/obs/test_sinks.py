"""The JSONL span sink behind ``repro run --trace-out``."""

import json

from repro.obs import JsonlSink


class TestJsonlSink:
    def test_one_sorted_key_line_per_span_readable_before_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"b": 2, "a": 1})
        sink.emit({"kind": "l0-bank", "seq": 1})
        # Flushed per record: a killed process leaves every span behind.
        lines = path.read_text().splitlines()
        sink.close()
        assert lines == ['{"a": 1, "b": 2}', '{"kind": "l0-bank", "seq": 1}']

    def test_emit_after_close_is_dropped_and_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"seq": 0})
        sink.close()
        sink.emit({"seq": 1})
        sink.close()
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"seq": 0}
        ]

    def test_opening_truncates_an_earlier_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"stale": true}\n')
        sink = JsonlSink(str(path))
        sink.close()
        assert path.read_text() == ""
