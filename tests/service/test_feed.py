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
            "[5, 1.0]",  # JSON, but not an object
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

    def test_poll_interval_must_be_positive(self, tmp_path):
        for poll in (0.0, -1.0, float("nan")):
            with pytest.raises(ControlError, match="poll_seconds must be positive"):
                FileTailFeed(str(tmp_path / "feed.jsonl"), poll_seconds=poll)

    def test_a_missing_file_fails_at_start_in_one_line(self, tmp_path):
        feed = FileTailFeed(str(tmp_path / "absent.jsonl"))
        with pytest.raises(ControlError, match="^cannot open feed file") as caught:
            asyncio.run(feed.start())
        assert "\n" not in str(caught.value)

    def test_reading_before_start_or_after_close_is_an_error(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(observation_line(0, 1.0) + "\n")

        async def run():
            feed = FileTailFeed(str(path))
            with pytest.raises(ControlError, match="feed not started"):
                await feed.next()
            await feed.start()
            await feed.close()
            await feed.close()  # a second close is harmless
            with pytest.raises(ControlError, match="feed not started"):
                await feed.next()

        asyncio.run(run())

    def test_a_partial_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        line = observation_line(0, 7.5)
        path.write_text(line[:10])

        async def run():
            feed = await FileTailFeed(str(path), poll_seconds=0.01).start()
            pending = asyncio.ensure_future(feed.next())
            await asyncio.sleep(0.1)
            assert not pending.done()  # a writer mid-append is not junk
            with open(path, "a") as handle:
                handle.write(line[10:] + "\n")
            observation = await asyncio.wait_for(pending, timeout=10.0)
            await feed.close()
            return observation

        assert asyncio.run(run()) == Observation(step=0, arrivals=7.5)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("\n  \n" + observation_line(0, 2.0) + "\n\n" + END_LINE + "\n")

        async def run():
            feed = await FileTailFeed(str(path), poll_seconds=0.01).start()
            first = await asyncio.wait_for(feed.next(), timeout=10.0)
            end = await asyncio.wait_for(feed.next(), timeout=10.0)
            await feed.close()
            return first, end

        assert asyncio.run(run()) == (Observation(step=0, arrivals=2.0), None)

    def test_a_hostile_line_is_a_one_line_error_and_the_tail_goes_on(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            '{"step": 0, "arrivals": NaN}\n'
            + '{"step": 0, "arrivals"\n'
            + observation_line(0, 3.0) + "\n"
        )

        async def run():
            feed = await FileTailFeed(str(path), poll_seconds=0.01).start()
            errors = []
            for _ in range(2):
                with pytest.raises(ControlError) as caught:
                    await asyncio.wait_for(feed.next(), timeout=10.0)
                errors.append(str(caught.value))
            good = await asyncio.wait_for(feed.next(), timeout=10.0)
            await feed.close()
            return errors, good

        errors, good = asyncio.run(run())
        assert errors[0].startswith("observation 'arrivals' must be a finite number")
        assert errors[1].startswith("bad observation line")
        assert all("\n" not in error for error in errors)
        assert good == Observation(step=0, arrivals=3.0)
