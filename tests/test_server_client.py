"""Integration tests: the DjiNN TCP service end-to-end."""

import gc
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    DjinnServiceError,
    ModelRegistry,
    RemoteBackend,
)
from repro.models import lenet5, senna
from repro.tonic import DigApp, digit_dataset


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec("dig", lenet5(), seed=0)
    reg.register_spec("pos", senna("pos"), seed=1)
    reg.register_spec("chk", senna("chk"), seed=2)
    return reg


@pytest.fixture
def server(registry):
    with DjinnServer(registry) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with DjinnClient(host, port) as cli:
        yield cli


class TestBasicService:
    def test_list_models(self, client):
        assert client.list_models() == ["chk", "dig", "pos"]

    def test_infer_matches_local_forward(self, client, registry, rng):
        x = rng.normal(size=(4, 1, 32, 32)).astype(np.float32)
        remote = client.infer("dig", x)
        local = registry.get("dig").forward(x)
        np.testing.assert_allclose(remote, local, rtol=1e-5)

    def test_multiple_models_on_one_connection(self, client, rng):
        assert client.infer("dig", rng.normal(size=(1, 1, 32, 32))).shape == (1, 10)
        assert client.infer("pos", rng.normal(size=(5, 300))).shape == (5, 45)

    def test_unknown_model_error(self, client):
        with pytest.raises(DjinnServiceError, match="not loaded"):
            client.infer("asr", np.zeros((1, 440), np.float32))

    def test_wrong_shape_error_and_connection_survives(self, client, rng):
        with pytest.raises(DjinnServiceError, match="expects inputs"):
            client.infer("dig", np.zeros((1, 3, 32, 32), np.float32))
        # the connection keeps working after an application-level error
        assert client.infer("dig", rng.normal(size=(1, 1, 32, 32))).shape == (1, 10)

    def test_stats_accumulate(self, client, rng):
        before = client.stats().get("pos", {}).get("requests", 0)
        client.infer("pos", rng.normal(size=(2, 300)))
        after = client.stats()["pos"]["requests"]
        assert after == before + 1


class TestConcurrency:
    def test_parallel_clients(self, server, registry, rng):
        host, port = server.address
        inputs = rng.normal(size=(8, 3, 300)).astype(np.float32)
        expected = [registry.get("pos").forward(x) for x in inputs]
        results = [None] * 8

        def worker(i):
            with DjinnClient(host, port) as cli:
                results[i] = cli.infer("pos", inputs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_server_with_batching_coalesces_concurrent_load(self, registry, rng):
        with DjinnServer(registry, batching=BatchPolicy(max_batch=16, timeout_ms=10.0)) as srv:
            host, port = srv.address
            outs = [None] * 6

            def worker(i):
                with DjinnClient(host, port) as cli:
                    outs[i] = cli.infer("pos", np.full((1, 300), float(i), np.float32))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i in range(6):
                expected = registry.get("pos").forward(np.full((1, 300), float(i), np.float32))
                np.testing.assert_allclose(outs[i], expected, rtol=1e-5)


class TestLifecycle:
    def test_port_zero_picks_free_port(self, registry):
        with DjinnServer(registry) as a, DjinnServer(registry) as b:
            assert a.address[1] != b.address[1]

    def test_double_start_rejected(self, registry):
        srv = DjinnServer(registry).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
        finally:
            srv.stop()

    def test_stop_is_idempotent(self, registry):
        srv = DjinnServer(registry).start()
        srv.stop()
        srv.stop()

    def test_shutdown_via_client(self, registry):
        srv = DjinnServer(registry).start()
        host, port = srv.address
        client = DjinnClient(host, port)
        client.shutdown_server()
        deadline = time.time() + 5
        while srv._running.is_set() and time.time() < deadline:
            time.sleep(0.01)
        assert not srv._running.is_set()

    def test_address_before_start_raises(self, registry):
        with pytest.raises(RuntimeError, match="not started"):
            DjinnServer(registry).address

    def test_finished_connection_threads_are_not_retained(self, registry):
        """The server keeps no reference to a connection's worker thread
        once the connection is gone (no per-connection leak)."""
        srv = DjinnServer(registry)
        refs = []
        serve = srv._serve_connection

        def tracked(conn):
            refs.append(weakref.ref(threading.current_thread()))
            serve(conn)

        srv._serve_connection = tracked
        srv.start()
        try:
            for _ in range(100):
                socket.create_connection(srv.address).close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                    len(refs) < 100 or any(
                        ref() is not None and ref().is_alive()
                        for ref in refs)):
                time.sleep(0.01)
            assert len(refs) == 100
            gc.collect()
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            srv.stop()


class TestRemoteBackend:
    def test_tonic_app_over_the_wire(self, client):
        """A Tonic app runs unchanged against the live service (Fig 3)."""
        app = DigApp(RemoteBackend(client))
        images, _ = digit_dataset(5, seed=9)
        preds = app.run(images)
        assert len(preds) == 5

    def test_remote_equals_local_backend(self, client, registry):
        from repro.tonic import LocalBackend

        images, _ = digit_dataset(4, seed=11)
        remote = DigApp(RemoteBackend(client)).run(images)
        local = DigApp(LocalBackend(registry.get("dig"))).run(images)
        assert remote == local
