"""The service contract: protocol, registry lifecycle, errors, shutdown.

Pins the serving layer's ground rules:

* the wire protocol round-trips documents and floats bitwise,
* the dataset registry registers/evicts/re-registers both in-RAM and
  store-mapped datasets, bumping the revision every registration,
* every bad request — malformed line, unknown op/dataset/algorithm, bad
  params — produces a structured error reply (never a hung client),
* shutdown is graceful: in-flight requests finish and reply before the
  server's threads are joined.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.core.miner import mine
from repro.db.store import ColumnarStore
from repro.service import (
    DatasetRegistry,
    MiningClient,
    MiningServer,
    ServiceError,
    record_keys,
)
from repro.core.itemset import Itemset
from repro.core.results import FrequentItemset
from repro.service import protocol
from repro.service.protocol import (
    EncodedRecords,
    decode_line,
    decode_records,
    encode_itemsets,
    encode_line,
    encode_records,
    error_reply,
    ok_reply,
)

from helpers import make_random_database


def _inline_spec(database) -> dict:
    return {
        "kind": "inline",
        "records": [
            [[item, probability] for item, probability in sorted(t.units.items())]
            for t in database.transactions
        ],
    }


@pytest.fixture(scope="module")
def database():
    return make_random_database(n_transactions=30, n_items=6, density=0.5, seed=7)


class TestProtocol:
    def test_line_round_trip(self):
        document = {"id": 3, "op": "mine", "params": {"dataset": "x", "min_esup": 0.25}}
        assert decode_line(encode_line(document)) == document

    def test_floats_round_trip_bitwise(self):
        rng = random.Random(99)
        values = [rng.random() * rng.choice([1e-9, 1.0, 1e9]) for _ in range(200)]
        values += [0.1 + 0.2, 1e-308, 1.7976931348623157e308]
        recovered = decode_line(encode_line({"values": values}))["values"]
        assert all(a == b for a, b in zip(values, recovered))

    def test_records_round_trip_bitwise(self, database):
        result = mine(database, algorithm="dpb", min_sup=0.3, pft=0.5)
        wire = json.loads(json.dumps(encode_records(result.itemsets)))
        assert record_keys(decode_records(wire)) == record_keys(result.itemsets)

    def test_records_round_trip_none_fields(self, database):
        result = mine(database, algorithm="uapriori", min_esup=0.3)
        assert result.itemsets[0].frequent_probability is None
        wire = json.loads(json.dumps(encode_records(result.itemsets)))
        assert record_keys(decode_records(wire)) == record_keys(result.itemsets)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"{not json")
        assert excinfo.value.type == "malformed-request"
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"[1, 2, 3]")
        assert excinfo.value.type == "malformed-request"
        with pytest.raises(ServiceError) as excinfo:
            decode_line(b"\xff\xfe")
        assert excinfo.value.type == "malformed-request"

    def test_service_error_vocabulary_is_closed(self):
        with pytest.raises(ValueError, match="unknown error type"):
            ServiceError("out-of-vocabulary", "nope")

    def test_reply_shapes(self):
        assert ok_reply(1, {"x": 2}) == {"id": 1, "ok": True, "result": {"x": 2}}
        reply = error_reply(None, ServiceError("unknown-op", "what"))
        assert reply == {
            "id": None,
            "ok": False,
            "error": {"type": "unknown-op", "message": "what"},
        }


def _reference_line(document) -> bytes:
    """A reply framed the one-pass way: the whole document in one ``json.dumps``,
    its records in :func:`encode_records` form."""

    def plain(value):
        if isinstance(value, EncodedRecords):
            return encode_records(value)
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value

    return (json.dumps(plain(document), separators=(",", ":")) + "\n").encode("utf-8")


#: dataset names that would break a splice that searched for a marker
WIRE_NAMES = [
    "plain",
    'q"uote',
    "back\\slash",
    "nul\x00byte",
    "ünï€\U0001f600",
    '"itemsets":[1,2]',
    "itemsets",
]


class TestPreencodedReplies:
    """Spliced replies equal the one-pass encoding, byte for byte, in every shape."""

    def test_encode_itemsets_is_the_compact_dump(self, database):
        records = mine(database, algorithm="dpb", min_sup=0.3, pft=0.5).itemsets
        assert encode_itemsets(records) == json.dumps(
            encode_records(records), separators=(",", ":")
        ).encode("utf-8")
        assert EncodedRecords(records).encoded == encode_itemsets(records)
        assert EncodedRecords().encoded == b"[]"

    def test_none_fields_and_awkward_keys(self):
        records = EncodedRecords(
            [
                FrequentItemset(Itemset((0, 3)), 1.5, None, None),
                FrequentItemset(Itemset((2,)), 0.1 + 0.2, 2.5e-310, None),
                FrequentItemset(Itemset((1,)), 1e-300, None, 0.9999999999999999),
            ]
        )
        for name in WIRE_NAMES:
            # A key equal to the name sits before "itemsets" (or is it).
            result = {name: [name], "dataset": name, "itemsets": records, "z": None}
            for document in (
                ok_reply(name, result),
                ok_reply(1, {"itemsets": records}),
                {"result": {"n": 3, "itemsets": records}, "id": name, "tail": {"k": name}},
            ):
                line = encode_line(document)
                assert line == _reference_line(document)
                decoded = decode_line(line)
                assert decoded["result"]["itemsets"] == encode_records(records)

    @pytest.mark.parametrize("name", WIRE_NAMES)
    def test_every_reply_shape_matches_one_pass_encoding(self, database, name):
        plan = [
            ("mine", {"algorithm": "uapriori", "min_esup": 0.15}, "miss"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.15}, "hit"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.3}, "filter"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.3}, "hit"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.15, "cache": False}, "off"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.15, "limit": 2}, "hit"),
            ("mine", {"algorithm": "uapriori", "min_esup": 0.15, "limit": 10**6}, "hit"),
            ("mine", {"algorithm": "dpnb", "min_sup": 0.3, "pft": 0.5}, "miss"),
            ("mine", {"algorithm": "dpnb", "min_sup": 0.3, "pft": 0.7}, "filter"),
            ("mine-topk", {"algorithm": "uapriori", "k": 6}, "miss"),
            ("mine-topk", {"algorithm": "uapriori", "k": 3}, "filter"),
            ("mine-topk", {"algorithm": "uapriori", "k": 3}, "hit"),
            ("mine-topk", {"algorithm": "uapriori", "k": 10_000}, "miss"),
            ("mine-topk", {"algorithm": "uapriori", "k": 20_000}, "filter"),
            ("mine-topk", {"algorithm": "dpb", "k": 4, "min_sup": 0.3}, "miss"),
            ("mine-topk", {"algorithm": "uapriori", "k": 2, "cache": False}, "off"),
        ]
        with MiningServer(max_workers=2, max_queue=4) as server:
            server.registry.register(name, _inline_spec(database))
            for request_id, (op, params, status) in enumerate(plan):
                line = json.dumps(
                    {"id": request_id, "op": op, "params": {"dataset": name, **params}}
                ).encode("utf-8")
                reply = server.handle_line(line)
                assert reply["ok"], reply
                assert reply["result"]["cache"] == status, (op, params)
                assert isinstance(reply["result"]["itemsets"], EncodedRecords)
                assert encode_line(reply) == _reference_line(reply)
            for bad in (
                {"id": 1, "op": "mine", "params": {"dataset": name + "?"}},
                {"id": name, "op": "mine-topk", "params": {"dataset": name, "k": 0}},
                {"id": None, "op": "no-such-op", "params": {}},
            ):
                reply = server.handle_line(json.dumps(bad).encode("utf-8"))
                assert not reply["ok"]
                assert encode_line(reply) == _reference_line(reply)

    def test_hits_serve_stored_bytes_and_misses_encode_once(self, database, monkeypatch):
        calls = []
        original = protocol.encode_itemsets

        def counted(records):
            calls.append(len(records))
            return original(records)

        monkeypatch.setattr(protocol, "encode_itemsets", counted)
        with MiningServer(max_workers=2, max_queue=4) as server:
            server.registry.register("d", _inline_spec(database))

            def encodings(op, **params):
                del calls[:]
                line = json.dumps({"id": 1, "op": op, "params": {"dataset": "d", **params}})
                encode_line(server.handle_line(line.encode("utf-8")))
                return len(calls)

            assert encodings("mine", min_esup=0.15) == 1  # miss: stored once
            assert encodings("mine", min_esup=0.15) == 0  # hit: stored bytes
            assert encodings("mine", min_esup=0.15, limit=10**6) == 0
            assert encodings("mine", min_esup=0.15, limit=1) == 1  # a cut answer
            assert encodings("mine", min_esup=0.3) == 1  # filter: stored once
            assert encodings("mine", min_esup=0.3) == 0
            assert encodings("mine", min_esup=0.3, cache=False) == 1  # fresh
            assert encodings("mine-topk", k=5) == 1
            assert encodings("mine-topk", k=2) == 1  # prefix: stored once
            assert encodings("mine-topk", k=2) == 0

    def test_stats_report_the_stored_encodings(self, database):
        with MiningServer(max_workers=2, max_queue=4) as server:
            host, port = server.address
            with MiningClient(host, port) as client:
                client.register("d", **_inline_spec(database))
                assert client.stats()["result_cache"]["encoded_bytes"] == 0
                first = client.mine("d", algorithm="uapriori", min_esup=0.15)
                second = client.mine("d", algorithm="uapriori", min_esup=0.3)
                cache = client.stats()["result_cache"]
                wire = sum(
                    len(json.dumps(reply["itemsets"], separators=(",", ":")))
                    for reply in (first, second)
                )
                assert cache["entries"] == 2
                assert cache["encoded_bytes"] == wire
                assert wire < cache["nbytes"] <= cache["budget_bytes"]


class TestRegistryLifecycle:
    def test_register_checkout_warm(self, database):
        registry = DatasetRegistry(budget_bytes=1 << 20)
        handle = registry.register("d", _inline_spec(database))
        assert handle.revision == "r1"
        assert handle.n_transactions == len(database)
        assert registry.is_warm("d")
        got_handle, got = registry.checkout("d")
        assert got_handle is handle
        assert registry.rebuilds == 0
        assert len(got) == len(database)

    def test_register_in_ram_dataset_leaves_rows_unbuilt(self):
        from repro.datasets import load_dataset

        registry = DatasetRegistry(budget_bytes=1 << 30)
        spec = {"kind": "benchmark", "dataset": "accident", "scale": 0.001}
        handle = registry.register("acc", spec)
        warm = registry._warm.get(("acc", handle.revision))
        assert warm.database._rows is None
        fresh = load_dataset("accident", scale=0.001)
        units = sum(len(t) for t in fresh.transactions)
        assert warm.payload_nbytes == 16 * units + 512
        assert handle.n_items == len({item for t in fresh for item in t.units})
        _, served = registry.checkout("acc")
        assert served._rows is None

    def test_reregister_bumps_revision(self, database):
        registry = DatasetRegistry(budget_bytes=1 << 20)
        first = registry.register("d", _inline_spec(database))
        second = registry.register("d", _inline_spec(database))
        assert first.revision != second.revision
        handle, _ = registry.checkout("d")
        assert handle.revision == second.revision

    def test_eviction_degrades_to_cold_rebuild(self, database):
        spec = _inline_spec(database)
        # Budget fits exactly one warm in-RAM payload; registering the
        # second evicts the first, whose next checkout must rebuild.
        units = sum(len(t) for t in database.transactions)
        registry = DatasetRegistry(budget_bytes=16 * units + 600)
        registry.register("a", spec)
        registry.register("b", spec)
        assert not registry.is_warm("a")
        assert registry.is_warm("b")
        _, rebuilt = registry.checkout("a")
        assert registry.rebuilds == 1
        assert registry.is_warm("a")
        fresh_keys = {t.items() for t in database.transactions}
        assert {t.items() for t in rebuilt.transactions} == fresh_keys

    def test_unregister_removes_handle_and_payload(self, database):
        registry = DatasetRegistry(budget_bytes=1 << 20)
        registry.register("d", _inline_spec(database))
        assert registry.unregister("d")
        assert not registry.unregister("d")
        assert registry.names() == []
        with pytest.raises(ServiceError) as excinfo:
            registry.checkout("d")
        assert excinfo.value.type == "unknown-dataset"

    def test_store_backed_registration(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        registry = DatasetRegistry(budget_bytes=1 << 20)
        handle = registry.register("mapped", {"kind": "store", "directory": directory})
        assert handle.kind == "store"
        assert "-s" in handle.revision  # carries the store stamp
        assert registry.is_warm("mapped")
        _, mapped = registry.checkout("mapped")
        result_mapped = mine(mapped, algorithm="uapriori", min_esup=0.3)
        result_ram = mine(database, algorithm="uapriori", min_esup=0.3)
        assert record_keys(result_mapped.itemsets) == record_keys(result_ram.itemsets)

    def test_mapped_payload_charge_is_nominal(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        registry = DatasetRegistry(budget_bytes=1 << 20)
        registry.register("mapped", {"kind": "store", "directory": directory})
        assert registry._warm.nbytes <= 4096

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "benchmark", "dataset": "no-such-benchmark"},
            {"kind": "file", "path": "/no/such/file.dat"},
            {"kind": "store", "directory": "/no/such/store"},
            {"kind": "inline", "records": "not-a-list-of-rows"},
            {"kind": "teleport"},
            {},
        ],
    )
    def test_bad_specs_are_bad_params(self, spec):
        registry = DatasetRegistry(budget_bytes=1 << 20)
        with pytest.raises(ServiceError) as excinfo:
            registry.register("d", spec)
        assert excinfo.value.type == "bad-params"


class TestServerErrors:
    @pytest.fixture()
    def server(self, database):
        with MiningServer(max_workers=2, max_queue=4) as server:
            server.registry.register("d", _inline_spec(database))
            yield server

    def _raw_exchange(self, server, payload: bytes) -> dict:
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(payload)
            buffer = b""
            while b"\n" not in buffer:
                buffer += sock.recv(1 << 16)
        return json.loads(buffer.split(b"\n", 1)[0])

    def test_malformed_line_gets_structured_reply(self, server):
        reply = self._raw_exchange(server, b"this is not json\n")
        assert reply["ok"] is False
        assert reply["id"] is None
        assert reply["error"]["type"] == "malformed-request"

    def test_missing_op_and_bad_params_shape(self, server):
        reply = self._raw_exchange(server, encode_line({"id": 5}))
        assert reply["error"]["type"] == "malformed-request"
        assert reply["id"] == 5
        reply = self._raw_exchange(
            server, encode_line({"id": 6, "op": "mine", "params": [1, 2]})
        )
        assert reply["error"]["type"] == "malformed-request"

    def test_unknown_everything(self, server):
        host, port = server.address
        with MiningClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("teleport")
            assert excinfo.value.type == "unknown-op"
            with pytest.raises(ServiceError) as excinfo:
                client.mine("never-registered")
            assert excinfo.value.type == "unknown-dataset"
            with pytest.raises(ServiceError) as excinfo:
                client.mine("d", algorithm="no-such-miner")
            assert excinfo.value.type == "unknown-algorithm"
            with pytest.raises(ServiceError) as excinfo:
                client.mine_topk("d", 0)
            assert excinfo.value.type == "bad-params"
            with pytest.raises(ServiceError) as excinfo:
                client.register("x")
            assert excinfo.value.type == "bad-params"
            with pytest.raises(ServiceError) as excinfo:
                client.mine("d", min_esup=-3.0)
            assert excinfo.value.type == "bad-params"

    def test_plan_op_and_auto_plan_are_gone(self, server):
        host, port = server.address
        with MiningClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("plan", {"dataset": "d"})
            assert excinfo.value.type == "unknown-op"
            with pytest.raises(ServiceError) as excinfo:
                client.mine("d", min_esup=0.2, plan="auto")
            assert excinfo.value.type == "bad-params"
            assert "knob=value" in str(excinfo.value)
            reply = client.mine("d", min_esup=0.2, plan="workers=auto")
            assert reply["plan"]["workers"] >= 1

    def test_retired_backend_knob_is_a_bad_param(self, server):
        retired = {
            "backend": "rows",
            "dense_cache_bytes": "4m",
            "bitmap_cache_bytes": "4m",
            "prefix_cache_bytes": "8m",
            "mapped_cache_bytes": "8m",
        }
        host, port = server.address
        with MiningClient(host, port) as client:
            for name, value in retired.items():
                with pytest.raises(ServiceError) as excinfo:
                    client.mine("d", min_esup=0.2, plan=f"{name}={value}")
                assert excinfo.value.type == "bad-params"
                assert "unknown plan knob" in str(excinfo.value)
                # The server keeps serving on the same connection.
                reply = client.mine("d", min_esup=0.2)
                assert name not in reply["plan"]
                assert reply["n"] > 0

    def test_errors_do_not_poison_the_connection(self, server):
        host, port = server.address
        with MiningClient(host, port) as client:
            for _ in range(3):
                with pytest.raises(ServiceError):
                    client.call("teleport")
            assert client.ping()["pong"] is True


class TestGracefulShutdown:
    def test_inflight_request_finishes_and_replies(self, database):
        server = MiningServer(max_workers=2, max_queue=4).start()
        try:
            server.registry.register("d", _inline_spec(database))
            host, port = server.address
            replies = {}

            def slow_request():
                with MiningClient(host, port) as client:
                    replies["ping"] = client.ping(delay_seconds=0.4)

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.15)  # request is in flight on a worker
            server.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert replies["ping"]["pong"] is True
        finally:
            server.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_requests_during_stop_get_shutting_down(self):
        server = MiningServer(max_workers=1, max_queue=1)
        server._stopping.set()
        reply = server.handle_line(encode_line({"id": 1, "op": "list"}))
        assert reply["ok"] is False
        assert reply["error"]["type"] == "shutting-down"

    def test_shutdown_op_stops_the_server(self, database):
        server = MiningServer(max_workers=2, max_queue=4).start()
        server.registry.register("d", _inline_spec(database))
        host, port = server.address
        with MiningClient(host, port) as client:
            assert client.shutdown() == {"stopping": True}
        assert server.wait(timeout=10.0)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_close_is_idempotent(self):
        server = MiningServer(max_workers=1, max_queue=0).start()
        server.close()
        server.close()
        assert server.wait(timeout=0.0)


class TestServeEndToEnd:
    def test_cached_and_fresh_replies_are_bitwise_equal(self, database):
        with MiningServer(max_workers=2, max_queue=4) as server:
            host, port = server.address
            with MiningClient(host, port) as client:
                client.register("d", **_inline_spec(database))
                first = client.mine("d", algorithm="uapriori", min_esup=0.2)
                assert first["cache"] == "miss"
                assert first["statistics"] is not None
                again = client.mine("d", algorithm="uapriori", min_esup=0.2)
                assert again["cache"] == "hit"
                assert again["itemsets"] == first["itemsets"]
                stricter = client.mine("d", algorithm="uapriori", min_esup=0.35)
                assert stricter["cache"] == "filter"
                fresh = client.mine(
                    "d", algorithm="uapriori", min_esup=0.35, cache=False
                )
                assert fresh["cache"] == "off"
                assert stricter["itemsets"] == fresh["itemsets"]

    def test_reregistration_invalidates_served_results(self, database):
        other = make_random_database(n_transactions=30, n_items=6, density=0.3, seed=8)
        with MiningServer(max_workers=2, max_queue=4) as server:
            host, port = server.address
            with MiningClient(host, port) as client:
                client.register("d", **_inline_spec(database))
                first = client.mine("d", algorithm="uapriori", min_esup=0.2)
                client.register("d", **_inline_spec(other))
                second = client.mine("d", algorithm="uapriori", min_esup=0.2)
                assert second["cache"] == "miss"
                assert second["revision"] != first["revision"]
                expected = mine(other, algorithm="uapriori", min_esup=0.2)
                assert record_keys(decode_records(second["itemsets"])) == record_keys(
                    expected.itemsets
                )


class TestTransportEdges:
    """Hostile transports: truncated frames, partial writes, dead peers.

    The serving contract under a misbehaving network layer — the server
    never hangs, never crashes a connection thread, and keeps answering
    well-formed clients; the client maps every transport death to one
    typed ``connection-lost`` ServiceError.
    """

    @pytest.fixture()
    def server(self, database):
        with MiningServer(max_workers=2, max_queue=4) as server:
            server.registry.register("d", _inline_spec(database))
            yield server

    def test_truncated_request_frame_is_harmless(self, server):
        # half a request line, then the peer vanishes: no reply owed, and
        # the server must keep serving everyone else
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(b'{"id": 1, "op": "pi')
        with MiningClient(*server.address) as client:
            assert client.ping()["pong"] is True

    def test_partial_writes_assemble_into_one_request(self, server):
        payload = encode_line({"id": 9, "op": "ping", "params": {}})
        with socket.create_connection(server.address, timeout=10.0) as sock:
            for index in range(0, len(payload), 7):
                sock.sendall(payload[index : index + 7])
                time.sleep(0.005)
            buffer = b""
            while b"\n" not in buffer:
                buffer += sock.recv(1 << 16)
        reply = json.loads(buffer.split(b"\n", 1)[0])
        assert reply["id"] == 9 and reply["ok"] is True

    def test_mid_handshake_disconnect_is_harmless(self, server):
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=10.0)
            sock.close()
        with MiningClient(*server.address) as client:
            assert client.ping()["pong"] is True

    def test_two_requests_in_one_write_get_two_replies(self, server):
        payload = encode_line({"id": 1, "op": "ping", "params": {}}) + encode_line(
            {"id": 2, "op": "list", "params": {}}
        )
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(payload)
            buffer = b""
            while buffer.count(b"\n") < 2:
                buffer += sock.recv(1 << 16)
        first, second = buffer.split(b"\n")[:2]
        assert json.loads(first)["id"] == 1
        assert json.loads(second)["id"] == 2

    def test_oversize_frame_is_rejected_structurally(self, database):
        with MiningServer(max_workers=1, max_frame_bytes=200) as server:
            with MiningClient(*server.address, retries=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.ping(pad="x" * 512)
            assert excinfo.value.type == "bad-request"
            assert "200" in excinfo.value.message
            # a fresh connection with a small frame still works
            with MiningClient(*server.address) as client:
                assert client.ping()["pong"] is True

    def test_server_death_mid_reply_is_connection_lost(self, database):
        # a bare socket server that sends half a reply line then resets
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def half_reply():
            conn, _ = listener.accept()
            conn.recv(1 << 16)
            conn.sendall(b'{"id": 1, "ok": tr')
            conn.close()

        thread = threading.Thread(target=half_reply)
        thread.start()
        try:
            client = MiningClient(*listener.getsockname(), retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.type == "connection-lost"
            client.close()
        finally:
            thread.join()
            listener.close()

    def test_connect_refused_is_connection_lost(self):
        # bind-then-close guarantees a dead port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        client = MiningClient(host, port, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.ping()
        assert excinfo.value.type == "connection-lost"
        assert excinfo.value.request_sent is False
