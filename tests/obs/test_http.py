"""The GET /metrics + /status + /healthz listener."""

import asyncio
import json

from helpers import parse_prometheus_text

from repro.obs import CONTENT_TYPE, MetricsRegistry
from repro.obs.http import ObservabilityHTTPServer


async def fetch(port, path, method="GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    status = int(head.split()[1])
    headers = {}
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    return status, headers, body


def serve_and_fetch(registry, path, status_provider=None, method="GET"):
    async def scenario():
        server = ObservabilityHTTPServer(
            registry, status_provider=status_provider, port=0
        )
        await server.start()
        try:
            return await fetch(server.port, path, method=method)
        finally:
            await server.close()

    return asyncio.run(scenario())


class TestEndpoints:
    def test_metrics_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_steps_total", "Steps.").inc(5)
        status, headers, body = serve_and_fetch(registry, "/metrics")
        assert status == 200
        assert headers["content-type"] == CONTENT_TYPE
        kinds, samples = parse_prometheus_text(body)
        assert samples[("repro_steps_total", ())] == 5.0

    def test_status_serves_provider_json(self):
        payload = {"state": "running", "step": 7}
        status, headers, body = serve_and_fetch(
            MetricsRegistry(), "/status", status_provider=lambda: payload
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == payload

    def test_status_404_without_provider(self):
        status, _, _ = serve_and_fetch(MetricsRegistry(), "/status")
        assert status == 404

    def test_healthz(self):
        status, _, body = serve_and_fetch(MetricsRegistry(), "/healthz")
        assert status == 200
        assert body == "ok\n"

    def test_unknown_path_404(self):
        status, _, _ = serve_and_fetch(MetricsRegistry(), "/nope")
        assert status == 404

    def test_post_is_405(self):
        status, _, _ = serve_and_fetch(
            MetricsRegistry(), "/metrics", method="POST"
        )
        assert status == 405

    def test_provider_error_is_500_not_crash(self):
        def exploding():
            raise RuntimeError("boom")

        status, _, body = serve_and_fetch(
            MetricsRegistry(), "/status", status_provider=exploding
        )
        assert status == 500
        assert "boom" in body
