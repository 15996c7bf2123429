"""Observation feeds: how external traffic reaches a live controller run.

One observation is one T_L0 step of the plant's arrival process, as a
single JSON line::

    {"arrivals": 3122.0, "step": 17}
    {"arrivals": 2981.5, "step": 18, "work": 0.0175}
    {"end": true}

``step`` indexes T_L0 periods from 0 and must arrive in order — the
controllers consume a time series, not a bag of samples. ``work`` is the
optional per-step mean service demand (seconds/request). The ``end``
marker closes the feed; the supervisor then finishes or keeps holding,
depending on whether the horizon completed.

Floats survive the JSON trip exactly (``json`` renders them via
``repr``, which round-trips IEEE doubles), which is what makes a replay
through :class:`~repro.service.plant.ReplayPlant` *bit-identical* to the
batch engine rather than merely close.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import time
from dataclasses import dataclass

from repro.common.errors import ControlError

#: The line that marks end-of-feed.
END_LINE = json.dumps({"end": True}, sort_keys=True)


@dataclass(frozen=True)
class Observation:
    """One T_L0 step of observed arrivals (and optional service demand)."""

    step: int
    arrivals: float
    work: "float | None" = None


def observation_line(step: int, arrivals: float, work: "float | None" = None) -> str:
    """Render one observation as its wire line (no trailing newline)."""
    payload: dict = {"arrivals": float(arrivals), "step": int(step)}
    if work is not None:
        payload["work"] = float(work)
    return json.dumps(payload, sort_keys=True)


def parse_observation(line: str) -> "Observation | None":
    """Parse one wire line; ``None`` for the end-of-feed marker.

    Junk surfaces as a one-line :class:`ControlError` naming the line,
    so a malformed producer fails loudly instead of skewing the filters.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ControlError(f"bad observation line {line!r}: {error}") from None
    if not isinstance(payload, dict):
        raise ControlError(f"observation lines are JSON objects, got {line!r}")
    if payload.get("end"):
        return None
    if "step" not in payload or "arrivals" not in payload:
        raise ControlError(
            f"observation line needs 'step' and 'arrivals' fields: {line!r}"
        )
    step = payload["step"]
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise ControlError(
            f"observation 'step' must be a non-negative int, got {step!r}"
        )
    arrivals = _number(payload["arrivals"], "arrivals")
    if not math.isfinite(arrivals) or arrivals < 0:
        raise ControlError(
            f"observation 'arrivals' must be a finite number >= 0, got {arrivals!r}"
        )
    work = payload.get("work")
    if work is not None:
        work = _number(work, "work")
        if not math.isfinite(work) or work <= 0:
            raise ControlError(
                f"observation 'work' must be a finite number > 0, got {work!r}"
            )
    return Observation(step=step, arrivals=arrivals, work=work)


def _number(value: object, field: str) -> float:
    """A JSON number field as a float (an int too large for one is inf).

    ``json.loads`` also accepts the ``NaN``/``Infinity`` literals, so
    callers still check the result is finite.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ControlError(f"observation {field!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


class SocketFeed:
    """Newline-JSON observations over a TCP socket.

    The feed listens; producers connect and stream lines. Lines from
    consecutive connections concatenate into one ordered feed (the
    ``step`` ordering is enforced downstream by the plant), so a
    producer may reconnect mid-run. A malformed line is re-raised to
    the consumer on its next :meth:`next` call.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._server: "asyncio.base_events.Server | None" = None

    async def start(self) -> "SocketFeed":
        """Bind and listen; resolves ``port`` when 0 was requested."""
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _serve_client(self, reader, writer) -> None:
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                line = raw.decode().strip()
                if not line:
                    continue
                try:
                    observation = parse_observation(line)
                except ControlError as error:
                    await self._queue.put(error)
                    return
                await self._queue.put(observation)
                if observation is None:
                    return
        finally:
            writer.close()

    async def next(self) -> "Observation | None":
        """The next observation; ``None`` once the feed ended."""
        item = await self._queue.get()
        if isinstance(item, Exception):
            raise item
        return item

    async def close(self) -> None:
        """Stop listening; safe to call more than once."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class FileTailFeed:
    """Observations tailed from a growing newline-JSON file.

    Reads from the start of the file and polls for appended lines every
    ``poll_seconds`` — the file-drop analogue of :class:`SocketFeed`,
    for producers that would rather write a log than hold a socket.
    Partial trailing lines (a writer mid-append) are buffered until
    their newline arrives.
    """

    def __init__(self, path: str, poll_seconds: float = 0.05) -> None:
        if not poll_seconds > 0:
            raise ControlError(
                f"poll_seconds must be positive, got {poll_seconds!r}"
            )
        self.path = str(path)
        self.poll_seconds = float(poll_seconds)
        self._handle = None
        self._buffer = ""

    async def start(self) -> "FileTailFeed":
        """Open the file (which must already exist)."""
        try:
            self._handle = open(self.path)
        except OSError as error:
            raise ControlError(f"cannot open feed file: {error}") from None
        return self

    async def next(self) -> "Observation | None":
        """The next observation; ``None`` once the end marker is read."""
        if self._handle is None:
            raise ControlError("feed not started; call start() first")
        while True:
            chunk = self._handle.readline()
            if not chunk:
                await asyncio.sleep(self.poll_seconds)
                continue
            self._buffer += chunk
            if not self._buffer.endswith("\n"):
                continue
            line = self._buffer.strip()
            self._buffer = ""
            if not line:
                continue
            return parse_observation(line)

    async def close(self) -> None:
        """Close the file handle; safe to call more than once."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def send_observations(
    lines,
    host: str = "127.0.0.1",
    port: int = 7701,
    connect_timeout: float = 120.0,
    retry_seconds: float = 0.2,
) -> int:
    """Stream observation lines to a :class:`SocketFeed` (blocking client).

    Retries the connection until ``connect_timeout`` elapses — the serve
    daemon may still be training its abstraction maps when the producer
    starts. Returns the number of lines sent (end marker included).
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            connection = socket.create_connection((host, port), timeout=30.0)
            break
        except OSError as error:
            if time.monotonic() >= deadline:
                raise ControlError(
                    f"could not connect to feed {host}:{port} within "
                    f"{connect_timeout:.0f}s: {error}"
                ) from None
            time.sleep(retry_seconds)
    sent = 0
    with connection:
        for line in lines:
            connection.sendall((line + "\n").encode())
            sent += 1
    return sent
