"""HTTP front end: routes, framing, concurrent clients, error mapping."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.api import StudySpec, SystemSpec, evaluate
from repro.runner.backends import ProcessPoolBackend
from repro.service import (EvaluationServer, EvaluationService,
                           ServiceHTTPClient)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _spec_dict(n=5, **extra):
    payload = {"system": {"kind": "symmetric", "n": n, "mu": 1.0,
                          "lam": 0.5},
               "metrics": ["mean"]}
    payload.update(extra)
    return payload


def _run_with_server(coro_factory, **service_kwargs):
    """Start a server on an ephemeral port, run the coroutine, tear down."""
    async def main():
        service = EvaluationService(**service_kwargs)
        server = EvaluationServer(service, port=0)
        await server.start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()
    return asyncio.run(main())


class TestRoutes:
    def test_health(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            payload = await client.health()
            await client.close()
            return payload

        assert _run_with_server(scenario) == {"status": "ok",
                                              "service": "repro"}

    def test_evaluate_round_trip(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, payload = await client.evaluate(_spec_dict())
            await client.close()
            return status, payload

        status, payload = _run_with_server(scenario)
        assert status == 200
        assert payload["ok"] is True
        cell = payload["cells"][0]
        assert cell["source"] == "computed"
        assert cell["key"]
        direct = evaluate(StudySpec.from_dict(_spec_dict()))
        value = cell["result"]["rows"][0]["values"]["value"]
        assert value == direct.metrics["mean"]

    def test_stats_reflects_traffic(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            await client.evaluate(_spec_dict())
            await client.evaluate(_spec_dict())      # LRU hit
            stats = await client.stats()
            await client.close()
            return stats

        stats = _run_with_server(scenario)
        assert stats["cells_submitted"] == 2
        assert stats["cells_executed"] == 1
        assert stats["lru"]["hits"] == 1
        assert stats["dedup_hit_rate"] == 0.5

    def test_unknown_route_404(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, _payload = await client.request("GET", "/nope")
            await client.close()
            return status

        assert _run_with_server(scenario) == 404

    def test_wrong_method_405(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, _payload = await client.request("POST", "/v1/health",
                                                    {"x": 1})
            await client.close()
            return status

        assert _run_with_server(scenario) == 405


class TestErrorMapping:
    def test_bad_spec_is_400(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, payload = await client.evaluate(
                {"system": {"kind": "nope"}})
            await client.close()
            return status, payload

        status, payload = _run_with_server(scenario)
        assert status == 400
        assert payload["ok"] is False
        assert "nope" in payload["error"]

    def test_non_json_body_is_400(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, payload = await client.request("POST", "/v1/evaluate",
                                                   None)
            await client.close()
            return status, payload

        status, payload = _run_with_server(scenario)
        assert status == 400
        assert payload["ok"] is False


class TestOversizedBody:
    # Regression: declaring Content-Length > MAX_BODY_BYTES used to raise
    # IncompleteReadError inside _read_request, which _handle swallowed as
    # "client went away" — the connection closed with no response and the
    # 413 in _REASONS was unreachable.

    def test_oversized_body_gets_a_real_413(self):
        from repro.service.server import MAX_BODY_BYTES

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            body = b"x" * (MAX_BODY_BYTES + 1)
            writer.write((f"POST /v1/evaluate HTTP/1.1\r\n"
                          f"Host: 127.0.0.1:{server.port}\r\n"
                          "Content-Type: application/json\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          "\r\n").encode("latin-1") + body)
            await writer.drain()
            status_line = await reader.readline()
            headers = {}
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw = await reader.readexactly(int(headers["content-length"]))
            trailing = await reader.read()       # server must close after
            writer.close()
            await writer.wait_closed()
            return status_line, headers, raw, trailing

        status_line, headers, raw, trailing = _run_with_server(scenario)
        assert b"413" in status_line and b"Payload Too Large" in status_line
        assert headers["connection"] == "close"
        payload = json.loads(raw.decode("utf-8"))
        assert payload["ok"] is False
        assert "exceeds" in payload["error"]
        assert trailing == b""                   # connection really closed

    def test_client_sees_the_413_payload(self):
        from repro.service.server import MAX_BODY_BYTES

        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            status, payload = await client.evaluate(
                {"padding": "x" * (MAX_BODY_BYTES + 1)})
            # The 413 came with Connection: close; the same client object
            # must transparently reconnect for the next request.
            health = await client.health()
            await client.close()
            return status, payload, health

        status, payload, health = _run_with_server(scenario)
        assert status == 413
        assert payload["ok"] is False
        assert health == {"status": "ok", "service": "repro"}


class TestClientConnectionHandling:
    # Regression: the client never read the response's Connection header and
    # only reconnected on is_closing(), so the request after a server
    # `Connection: close` raced the FIN and could die with an IndexError
    # from parsing an empty status line.

    def test_client_honors_server_connection_close(self):
        async def handler(reader, writer):
            handler.connections += 1
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line in (b"\r\n", b"\n"):
                    body = b'{"status": "ok"}'
                    writer.write((f"HTTP/1.1 200 OK\r\n"
                                  "Content-Type: application/json\r\n"
                                  f"Content-Length: {len(body)}\r\n"
                                  "Connection: close\r\n"
                                  "\r\n").encode("latin-1") + body)
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                    return
        handler.connections = 0

        async def main():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceHTTPClient(port=port)
            statuses = [(await client.request("GET", "/v1/health"))[0]
                        for _ in range(3)]
            await client.close()
            server.close()
            await server.wait_closed()
            return statuses

        statuses = asyncio.run(main())
        assert statuses == [200, 200, 200]
        assert handler.connections == 3          # one connection per response

    def test_empty_status_line_raises_connection_error(self):
        async def handler(reader, writer):
            await reader.readline()              # swallow the request line
            writer.close()                       # hang up with no response
            await writer.wait_closed()

        async def main():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceHTTPClient(port=port)
            with pytest.raises(ConnectionError,
                               match="before sending a status line"):
                await client.request("GET", "/v1/health")
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(main())


class TestMultiTenant:
    def test_three_clients_identical_spec_single_flight(self):
        async def scenario(server):
            clients = [ServiceHTTPClient(port=server.port) for _ in range(3)]
            spec = _spec_dict(seed=7, reps=64)
            results = await asyncio.gather(
                *(client.evaluate(spec, method="mc") for client in clients))
            stats = await clients[0].stats()
            for client in clients:
                await client.close()
            return results, stats

        results, stats = _run_with_server(scenario)
        assert all(status == 200 for status, _payload in results)
        values = {json.dumps(payload["cells"][0]["result"], sort_keys=True)
                  for _status, payload in results}
        assert len(values) == 1               # same bits for every tenant
        assert stats["cells_executed"] == 1   # one backend execution
        sources = sorted(payload["cells"][0]["source"]
                         for _status, payload in results)
        assert sources.count("computed") == 1

    def test_keep_alive_serves_many_requests_per_connection(self):
        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            statuses = []
            for n in (3, 4, 5):
                status, _payload = await client.evaluate(_spec_dict(n=n))
                statuses.append(status)
            await client.close()
            return statuses, server.requests

        statuses, requests = _run_with_server(scenario)
        assert statuses == [200, 200, 200]
        assert requests == 3


def _exit_worker(_task):
    os._exit(1)


class _DiesOnceBackend(ProcessPoolBackend):
    """A process backend whose first map kills the worker running it."""

    def __init__(self):
        super().__init__(workers=2)
        self.armed = True

    def map(self, func, tasks):
        if self.armed:
            self.armed, func = False, _exit_worker
        return super().map(func, tasks)


class TestPoolRecovery:
    def test_worker_death_fails_its_batch_and_the_pool_recovers(self):
        sweep = _spec_dict(sweep={"n": [3, 4]})     # two tasks: one pool map

        async def scenario(server):
            client = ServiceHTTPClient(port=server.port)
            broken = await client.evaluate(sweep)
            healed = await client.evaluate(sweep)
            await client.close()
            return broken, healed

        (status, payload), (again, healed) = _run_with_server(
            scenario, backend=_DiesOnceBackend())
        assert status == 500
        assert "BrokenProcessPool" in payload["error"]
        assert again == 200
        assert [cell["source"] for cell in healed["cells"]] == ["computed"] * 2
        direct = evaluate(StudySpec.from_dict(_spec_dict(n=4)))
        value = healed["cells"][1]["result"]["rows"][0]["values"]["value"]
        assert value == direct.metrics["mean"]


def _default_sigint():
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class TestServeProcess:
    def test_ctrl_c_to_the_process_group_exits_cleanly(self, tmp_path):
        """SIGINT to the whole group (a terminal Ctrl-C) after one pool batch:
        the pool's workers ignore it and the server drains and exits 0."""
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--backend", "process", "--workers", "2"],
                env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                start_new_session=True, preexec_fn=_default_sigint)
        try:
            line = proc.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", line).group(1))

            async def one_batch():
                client = ServiceHTTPClient(port=port)
                status, payload = await client.evaluate(
                    _spec_dict(sweep={"n": [3, 4, 5]}))
                await client.close()
                return status, payload

            status, payload = asyncio.run(one_batch())
            assert status == 200 and len(payload["cells"]) == 3
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
        assert "Traceback" not in err_path.read_text()
