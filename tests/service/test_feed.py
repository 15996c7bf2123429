"""Observation wire format and the two feed transports."""

import asyncio
import json

import pytest

from repro.common.errors import ControlError
from repro.service import (
    FileTailFeed,
    Observation,
    SocketFeed,
    observation_line,
    parse_observation,
    send_observations,
)
from repro.service.feed import END_LINE


class TestWireFormat:
    def test_round_trip_is_exact(self):
        # JSON float repr round-trips IEEE doubles bit-exactly; the
        # replay-parity guarantee rests on this.
        value = 123.456789012345678
        observation = parse_observation(observation_line(3, value))
        assert observation == Observation(step=3, arrivals=value)
        assert observation.arrivals == value

    def test_work_field_round_trips(self):
        observation = parse_observation(observation_line(0, 5.0, work=0.125))
        assert observation.work == 0.125

    def test_end_marker_parses_to_none(self):
        assert parse_observation(END_LINE) is None

    def test_line_is_sorted_keys_json(self):
        line = observation_line(1, 2.0)
        assert line == json.dumps(json.loads(line), sort_keys=True)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"arrivals": 1.0}',  # missing step
            '{"step": -1, "arrivals": 1.0}',
            '{"step": 0, "arrivals": "many"}',
            '{"step": 0, "arrivals": true}',
            '{"step": 0, "arrivals": 1.0, "work": "light"}',
        ],
    )
    def test_junk_raises_control_error(self, line):
        with pytest.raises(ControlError):
            parse_observation(line)

    @pytest.mark.parametrize(
        "line, field",
        [
            ('{"step": 3, "arrivals": NaN}', "arrivals"),
            ('{"step": 3, "arrivals": Infinity}', "arrivals"),
            ('{"step": 3, "arrivals": -Infinity}', "arrivals"),
            ('{"step": 3, "arrivals": 1e999}', "arrivals"),
            pytest.param(
                '{"step": 3, "arrivals": 1' + "0" * 400 + "}",
                "arrivals",
                id="arrivals-int-beyond-float",
            ),
            ('{"step": 5, "arrivals": -7.0}', "arrivals"),
            ('{"step": 4, "arrivals": 5.0, "work": NaN}', "work"),
            ('{"step": 4, "arrivals": 5.0, "work": Infinity}', "work"),
            ('{"step": 4, "arrivals": 5.0, "work": -Infinity}', "work"),
            ('{"step": 4, "arrivals": 5.0, "work": 0.0}', "work"),
            ('{"step": 4, "arrivals": 5.0, "work": -0.0175}', "work"),
        ],
    )
    def test_non_finite_or_out_of_range_numbers_raise(self, line, field):
        with pytest.raises(ControlError, match=f"observation '{field}' must be") as caught:
            parse_observation(line)
        assert "\n" not in str(caught.value)

    def test_zero_arrivals_and_integer_fields_parse(self):
        observation = parse_observation('{"step": 0, "arrivals": 0, "work": 1}')
        assert observation == Observation(step=0, arrivals=0.0, work=1.0)


class TestSocketFeed:
    def test_lines_arrive_in_order_and_end(self):
        lines = [observation_line(k, float(k)) for k in range(5)]

        async def run():
            feed = await SocketFeed(port=0).start()
            sender = asyncio.get_running_loop().run_in_executor(
                None,
                lambda: send_observations(
                    lines + [END_LINE], host=feed.host, port=feed.port
                ),
            )
            received = []
            while True:
                observation = await feed.next()
                if observation is None:
                    break
                received.append(observation)
            sent = await sender
            await feed.close()
            return sent, received

        sent, received = asyncio.run(run())
        assert sent == 6
        assert [o.step for o in received] == list(range(5))
        assert [o.arrivals for o in received] == [float(k) for k in range(5)]

    def test_bad_line_surfaces_as_control_error(self):
        async def run():
            feed = await SocketFeed(port=0).start()
            await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: send_observations(
                    ["garbage"], host=feed.host, port=feed.port
                ),
            )
            try:
                await feed.next()
            finally:
                await feed.close()

        with pytest.raises(ControlError):
            asyncio.run(run())


class TestFileTailFeed:
    def test_tails_a_growing_file(self, tmp_path):
        path = tmp_path / "observations.jsonl"
        path.write_text(observation_line(0, 1.0) + "\n")

        async def run():
            feed = await FileTailFeed(str(path), poll_seconds=0.01).start()
            first = await feed.next()
            with open(path, "a") as handle:
                handle.write(observation_line(1, 2.0) + "\n")
                handle.write(END_LINE + "\n")
            second = await feed.next()
            end = await feed.next()
            await feed.close()
            return first, second, end

        first, second, end = asyncio.run(run())
        assert first == Observation(step=0, arrivals=1.0)
        assert second == Observation(step=1, arrivals=2.0)
        assert end is None
