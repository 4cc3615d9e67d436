"""Response-caching battery: correctness pins for the gateway's
content-addressed response cache and the shared duplication planner.

The battery is organized around these load-bearing claims:

* **byte identity** — a cache hit is indistinguishable on the wire from
  the miss that populated it, for every golden-zoo model;
* **budget invariants** — the response cache never retains more bytes
  than its budget, with eviction counters that account exactly;
* **collision honesty** — a digest collision (forced via the injectable
  digest hook) degrades to a counted miss, never a wrong answer;
* **key discipline** — the response key covers exactly the QoS-invariant
  identity of a request: distinct (model, kind, payload) never share a
  key (fuzzed), while QoS-only differences always do;
* **shared duplication semantics** — the seeded near-duplicate planner is
  one source of truth: the load generator and the Tonic dataset surface
  must draw identical duplicate streams per seed.
"""

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DjinnClient, ModelRegistry
from repro.core.duplication import (
    apply_duplicates,
    jitter_duplicate,
    plan_duplicates,
)
from repro.core.protocol import (
    Message,
    MessageType,
    encode_message,
    recv_message,
    send_message,
)
from repro.gateway import (
    ClusterLauncher,
    GatewayServer,
    ResponseCache,
    response_key,
)
from repro.models import build_net
from repro.obs import Tracer

from conftest import TEST_SEED

SETTINGS = dict(max_examples=25, deadline=None)

#: every golden-zoo model with an affordable plan width (FACE is 120M
#: params; width 2 keeps its arena and forward cost CI-sized)
ZOO_WIDTHS = {"imc": 2, "dig": 8, "face": 2, "asr": 8, "pos": 8}


@pytest.fixture(scope="module")
def zoo():
    """Materialized golden-zoo nets, built once for the whole battery."""
    return {app: build_net(app, materialize=True) for app in ZOO_WIDTHS}


@pytest.fixture(scope="module")
def zoo_registry(zoo):
    reg = ModelRegistry()
    for app, net in zoo.items():
        reg.register(app, net)
    return reg


def batch_for(net, n, seed=TEST_SEED):
    gen = np.random.default_rng(seed)
    return gen.standard_normal((n,) + tuple(net.input_shape)).astype(np.float32)


# ============================================================ response key
class TestResponseKey:
    def test_distinct_identity_distinct_keys(self):
        x = np.arange(6, dtype=np.float32)
        keys = {
            response_key("dig", 0, x),
            response_key("imc", 0, x),          # model participates
            response_key("dig", 1, x),          # payload kind participates
            response_key("dig", 0, x + 1.0),    # bytes participate
            response_key("dig", 0, x.reshape(2, 3)),  # shape participates
            response_key("dig", 0, x.astype(np.float64)),  # dtype too
            response_key("dig", 0, "hello"),    # text vs tensor tag
        }
        assert len(keys) == 7

    def test_equal_identity_equal_keys(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert response_key("dig", 0, x) == response_key("dig", 0, x.copy())
        assert response_key("dig", 2, "abc") == response_key("dig", 2, "abc")

    @settings(**SETTINGS)
    @given(
        model_a=st.text(max_size=8),
        model_b=st.text(max_size=8),
        kind_a=st.integers(0, 255),
        kind_b=st.integers(0, 255),
        data_a=st.binary(max_size=48),
        data_b=st.binary(max_size=48),
    )
    def test_fuzz_no_cross_identity_collisions(self, model_a, model_b,
                                               kind_a, kind_b,
                                               data_a, data_b):
        """Distinct (model, kind, bytes) identities never share a key."""
        key_a = response_key(model_a, kind_a,
                             np.frombuffer(data_a, dtype=np.uint8))
        key_b = response_key(model_b, kind_b,
                             np.frombuffer(data_b, dtype=np.uint8))
        same = (model_a, kind_a, data_a) == (model_b, kind_b, data_b)
        assert (key_a == key_b) == same

    def test_length_prefixing_blocks_field_slides(self):
        """Bytes migrating between fields must change the key (the
        structural-collision shape length prefixes exist to prevent)."""
        assert (response_key("ab", 0, "c")
                != response_key("a", 0, "bc"))
        assert (response_key("", 0, "abc")
                != response_key("abc", 0, ""))


# ======================================================== response cache
class TestResponseCacheUnit:
    @staticmethod
    def _tensor(i, floats=8):
        return np.full((floats,), float(i), dtype=np.float32)

    def test_bytes_never_exceed_budget(self):
        budget = 10 * self._tensor(0).nbytes
        cache = ResponseCache(budget)
        evicted_total = 0
        for i in range(50):
            key = response_key("m", 0, self._tensor(i))
            evicted_total += cache.put(key, "m", 0, tensor=self._tensor(i))
            assert cache.bytes <= budget
        stats = cache.stats()
        assert stats["entries"] == 10
        assert stats["evictions"] == evicted_total == 40
        assert stats["bytes"] == cache.bytes <= budget

    def test_oversize_insert_refused_and_counted(self):
        cache = ResponseCache(16)
        evicted = cache.put(b"k", "m", 0,
                            tensor=np.zeros(64, dtype=np.float32))
        assert evicted == 1
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 1
        assert cache.bytes == 0

    def test_lru_recency_decides_eviction(self):
        one = self._tensor(0).nbytes
        cache = ResponseCache(3 * one)
        keys = [response_key("m", 0, self._tensor(i)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, "m", 0, tensor=self._tensor(i))
        assert cache.get(keys[0], "m", 0) is not None  # refresh entry 0
        cache.put(response_key("m", 0, self._tensor(9)), "m", 0,
                  tensor=self._tensor(9))
        assert cache.get(keys[0], "m", 0) is not None  # survived
        assert cache.get(keys[1], "m", 0) is None      # LRU victim

    def test_digest_collision_refused_not_cross_served(self):
        cache = ResponseCache(1 << 20)
        cache.put(b"same-digest", "dig", 0, tensor=self._tensor(1))
        # same key arriving under a different identity must not be served
        assert cache.get(b"same-digest", "imc", 0) is None
        assert cache.get(b"same-digest", "dig", 3) is None
        stats = cache.stats()
        assert stats["collisions"] == 2
        assert stats["misses"] == 2
        # the honest identity still hits
        entry = cache.get(b"same-digest", "dig", 0)
        assert entry is not None
        np.testing.assert_array_equal(entry.tensor, self._tensor(1))

    def test_concurrent_probe_insert_stays_invariant(self):
        one = self._tensor(0).nbytes
        budget = 8 * one
        cache = ResponseCache(budget)
        probes_per_thread, threads_n = 200, 8
        errors = []

        def worker(tid):
            try:
                for i in range(probes_per_thread):
                    which = (tid * 3 + i) % 16
                    key = response_key("m", 0, self._tensor(which))
                    entry = cache.get(key, "m", 0)
                    if entry is None:
                        cache.put(key, "m", 0, tensor=self._tensor(which))
                    else:
                        np.testing.assert_array_equal(
                            entry.tensor, self._tensor(which))
                    assert cache.bytes <= budget
            except Exception as exc:  # surface across the thread boundary
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == probes_per_thread * threads_n
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 8


# ==================================================== gateway end to end
class TestGatewayCache:
    @pytest.fixture()
    def fleet(self, zoo_registry):
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, cache_mb=32.0,
                                    health_interval_s=30.0)
            gateway.start()
            try:
                yield gateway
            finally:
                gateway.stop()

    def test_hit_byte_identical_per_zoo_model(self, fleet, zoo):
        """For every golden-zoo model: the cached answer is byte-equal to
        the miss that populated it, and the hit/miss counters move."""
        with DjinnClient(*fleet.address) as cli:
            for app, net in zoo.items():
                x = batch_for(net, 1)
                before = fleet.cache.stats()
                miss = cli.infer(app, x)
                hit = cli.infer(app, x)
                after = fleet.cache.stats()
                assert miss.tobytes() == hit.tobytes(), app
                assert after["misses"] == before["misses"] + 1, app
                assert after["hits"] == before["hits"] + 1, app

    def test_wire_frames_byte_identical(self, fleet, zoo):
        """Raw frames: hit and miss responses encode to identical bytes."""
        x = batch_for(zoo["dig"], 2)
        frames = []
        for _ in range(2):
            with socket.create_connection(fleet.address) as sock:
                send_message(sock, Message(MessageType.INFER_REQUEST,
                                           name="dig", tensor=x))
                frames.append(encode_message(recv_message(sock)))
        assert frames[0] == frames[1]

    def test_qos_only_differences_share_an_entry(self, fleet, zoo):
        """Deadline/priority/tenant are not part of the key: the same
        payload under different QoS must hit the same entry."""
        x = batch_for(zoo["pos"], 1, seed=TEST_SEED + 1)
        with DjinnClient(*fleet.address) as cli:
            base = cli.infer("pos", x)
            before = fleet.cache.stats()
            variants = [
                dict(deadline_ms=2500.0),
                dict(priority=7),
                dict(tenant="other-tenant"),
                dict(deadline_ms=2500.0, priority=-3, tenant="third"),
            ]
            for qos in variants:
                out = cli.infer("pos", x, **qos)
                assert out.tobytes() == base.tobytes()
        after = fleet.cache.stats()
        assert after["hits"] == before["hits"] + len(variants)
        assert after["misses"] == before["misses"]

    def test_cache_metrics_exported(self, fleet, zoo):
        with DjinnClient(*fleet.address) as cli:
            x = batch_for(zoo["dig"], 1, seed=TEST_SEED + 2)
            cli.infer("dig", x)
            cli.infer("dig", x)
        dump = fleet.metrics.dump()["metrics"]
        assert "gateway_cache_hits_total" in dump
        assert "gateway_cache_misses_total" in dump
        assert "gateway_cache_evictions_total" in dump
        assert "gateway_cache_bytes" in dump

    def test_cache_off_exports_no_cache_surface(self, zoo_registry, zoo):
        """Disabled cache: no cache metric families, no gateway.cache
        span — the pre-PR observability surface, unchanged."""
        tracer = Tracer(enabled=True)
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, tracer=tracer,
                                    health_interval_s=30.0)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    x = batch_for(zoo["pos"], 1)
                    cli.infer("pos", x)
                    cli.infer("pos", x)
            finally:
                gateway.stop()
        assert gateway.cache is None
        dump = gateway.metrics.dump()["metrics"]
        assert not any(name.startswith("gateway_cache") for name in dump)
        assert "gateway.cache" not in {s.name for s in tracer.spans()}

    def test_hit_and_miss_emit_gateway_cache_span(self, zoo_registry, zoo):
        tracer = Tracer(enabled=True)
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, cache_mb=8.0,
                                    tracer=tracer, health_interval_s=30.0)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    x = batch_for(zoo["pos"], 1)
                    cli.infer("pos", x)   # miss
                    cli.infer("pos", x)   # hit
            finally:
                gateway.stop()
        probes = [s for s in tracer.spans() if s.name == "gateway.cache"]
        assert len(probes) == 2
        assert {s.attrs.get("outcome") for s in probes} == {"hit", "miss"}
        assert all(s.end_s is not None for s in probes)


# ===================================================== shared duplication
class TestDuplicationUnified:
    def test_plan_is_deterministic_and_bounded(self):
        plan = plan_duplicates(64, 0.5, TEST_SEED)
        assert plan == plan_duplicates(64, 0.5, TEST_SEED)
        assert 0 not in plan                     # item 0 never duplicates
        assert all(0 <= src < idx for idx, src in plan.items())
        assert plan_duplicates(64, 0.0, TEST_SEED) == {}
        assert plan_duplicates(1, 1.0, TEST_SEED) == {}
        assert all(idx in plan_duplicates(64, 1.0, TEST_SEED)
                   for idx in range(1, 64))

    def test_loadgen_and_dataset_surfaces_draw_identical_streams(self):
        """Regression pin for the unification: the load generator's
        input_for() composition and the dataset surface's
        apply_duplicates() must produce the same stream per seed."""
        count, dup_frac, seed, jitter = 40, 0.4, TEST_SEED, 0.01
        gen = np.random.default_rng(3)
        items = gen.standard_normal((count, 5)).astype(np.float32)

        # the loadgen composition (repro.core.loadgen.run_open_loop_load)
        dup_of = plan_duplicates(count, dup_frac, seed)

        def input_for(i):
            src = dup_of.get(i)
            if src is None:
                return items[i]
            return jitter_duplicate(items[src], i, seed, jitter)

        loadgen_stream = np.stack([input_for(i) for i in range(count)])
        # the dataset composition (repro.tonic.datasets.with_duplicates)
        dataset_stream = apply_duplicates(items, dup_frac=dup_frac,
                                          seed=seed, jitter=jitter)
        np.testing.assert_array_equal(loadgen_stream, dataset_stream)
        assert dup_of, "chosen (count, dup_frac, seed) must exercise dups"

    def test_zero_jitter_duplicates_are_byte_identical(self):
        gen = np.random.default_rng(4)
        items = gen.standard_normal((32, 3)).astype(np.float32)
        out = apply_duplicates(items, dup_frac=0.6, seed=TEST_SEED,
                               jitter=0.0)
        plan = plan_duplicates(32, 0.6, TEST_SEED)
        assert plan
        for idx, src in plan.items():
            assert out[idx].tobytes() == items[src].tobytes()

    def test_duplicate_sources_are_originals_not_jittered_copies(self):
        """A duplicate of a duplicate replays the pristine item: noise
        must not accumulate along duplication chains."""
        items = np.zeros((48, 4), dtype=np.float32)
        out = apply_duplicates(items, dup_frac=1.0, seed=TEST_SEED,
                               jitter=0.05)
        plan = plan_duplicates(48, 1.0, TEST_SEED)
        for idx, src in plan.items():
            expected = jitter_duplicate(items[src], idx, TEST_SEED, 0.05)
            np.testing.assert_array_equal(out[idx], expected)

    def test_labels_ride_along_with_their_sources(self):
        gen = np.random.default_rng(5)
        items = gen.standard_normal((32, 3)).astype(np.float32)
        labels = np.arange(32, dtype=np.int64)
        out, out_labels = apply_duplicates(items, labels, dup_frac=0.5,
                                           seed=TEST_SEED, jitter=0.0)
        plan = plan_duplicates(32, 0.5, TEST_SEED)
        for idx in range(32):
            assert out_labels[idx] == labels[plan.get(idx, idx)]

    def test_dup_frac_validation_is_shared(self):
        with pytest.raises(ValueError):
            plan_duplicates(8, -0.1, 0)
        with pytest.raises(ValueError):
            plan_duplicates(8, 1.5, 0)
