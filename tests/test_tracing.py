"""Tests for causal trace identity and the Perfetto/Chrome trace export."""

import json
import threading

from repro.obs import Observability, observe
from repro.obs.export import to_perfetto, validate_perfetto
from repro.obs.tracer import Tracer


class TestCausalIdentity:
    def test_root_span_starts_a_fresh_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            pass
        (event,) = tracer.events()
        assert event.trace_id is not None
        assert event.span_id is not None
        assert event.parent_id is None

    def test_nested_span_inherits_trace_and_parents(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.events()
        assert a.trace_id != b.trace_id

    def test_point_event_chains_to_enclosing_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("op"):
            tracer.event("mark")
        mark, op = tracer.events()
        assert mark.span_id is None  # point events carry no span identity
        assert mark.parent_id == op.span_id
        assert mark.trace_id == op.trace_id

    def test_point_event_outside_any_span_has_no_parent(self):
        tracer = Tracer(enabled=True)
        tracer.event("orphan")
        (event,) = tracer.events()
        assert event.parent_id is None and event.trace_id is None

    def test_threads_build_independent_trees_with_dense_tids(self):
        tracer = Tracer(enabled=True)
        barrier = threading.Barrier(2)  # overlap workers: idents are reused

        def work():
            barrier.wait(timeout=10)
            with tracer.span("thread-op"):
                with tracer.span("thread-inner"):
                    pass
            barrier.wait(timeout=10)

        with tracer.span("main-op"):
            pass
        workers = [threading.Thread(target=work) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        events = tracer.events()
        tids = {event.tid for event in events}
        assert len(tids) == 3  # main + two workers
        assert tids <= {1, 2, 3}  # dense numbering, not raw idents
        # Each thread's inner span parents to that thread's own root.
        for tid in tids:
            mine = [e for e in events if e.tid == tid]
            roots = [e for e in mine if e.parent_id is None]
            children = [e for e in mine if e.parent_id is not None]
            assert len(roots) == 1
            for child in children:
                assert child.parent_id == roots[0].span_id
                assert child.trace_id == roots[0].trace_id

    def test_to_dict_includes_causal_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("op"):
            pass
        doc = tracer.events()[0].to_dict()
        assert {"trace_id", "span_id", "tid"} <= set(doc)
        assert "parent_id" not in doc  # None fields stay out of the JSON

    def test_snapshot_reports_truncation(self):
        tracer = Tracer(capacity=2, enabled=True)
        for i in range(5):
            tracer.event(f"e{i}")
        snap = tracer.snapshot()
        assert snap == {"recorded": 5, "dropped": 3, "capacity": 2,
                        "truncated": True}


class TestComponentCausality:
    def test_sware_operations_root_causal_trees(self):
        from repro.btree.btree import BPlusTree
        from repro.core.config import SWAREConfig
        from repro.core.sware import SortednessAwareIndex
        from repro.storage.costmodel import Meter

        obs = Observability(trace=True)
        with observe(obs):
            index = SortednessAwareIndex(
                BPlusTree(), config=SWAREConfig(buffer_capacity=64), meter=Meter()
            )
        for key in range(300):
            index.insert(key, key)
        index.get(5)

        events = obs.tracer.events()
        by_name = {}
        for event in events:
            by_name.setdefault(event.name, []).append(event)
        assert "sware.put" in by_name
        assert "sware.get" in by_name
        # Flush cycles are caused by a put: they parent inside its span.
        flushes = by_name.get("sware.flush_cycle", [])
        assert flushes
        put_span_ids = {e.span_id for e in by_name["sware.put"]}
        for flush in flushes:
            assert flush.parent_id in put_span_ids
            assert flush.trace_id is not None

    def test_wal_appends_chain_into_the_writing_operation(self, tmp_path):
        from repro.btree.btree import BPlusTree
        from repro.core.sware import SortednessAwareIndex
        from repro.storage.costmodel import Meter
        from repro.storage.wal import WriteAheadLog

        obs = Observability(trace=True)
        with observe(obs):
            index = SortednessAwareIndex(BPlusTree(), meter=Meter())
            index.wal = WriteAheadLog(str(tmp_path / "t.wal"))
        index.insert(1, "a")
        index.wal.close()
        appends = [e for e in obs.tracer.events() if e.name == "wal.append"]
        assert appends
        assert all(e.parent_id is not None for e in appends)

    def test_concurrent_writes_carry_thread_ids(self):
        from repro.btree.btree import BPlusTree
        from repro.core.concurrent import ConcurrentSortednessAwareIndex

        obs = Observability(trace=True)
        with observe(obs):
            index = ConcurrentSortednessAwareIndex(BPlusTree())

        # Both threads must be alive at once: Python reuses thread idents,
        # so sequential threads could legitimately share a dense tid.
        barrier = threading.Barrier(2)

        def writer(base):
            barrier.wait(timeout=10)
            for key in range(base, base + 50):
                index.insert(key, key)
            barrier.wait(timeout=10)

        threads = [threading.Thread(target=writer, args=(i * 1000,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        writes = [e for e in obs.tracer.events() if e.name == "sware.put"]
        assert len(writes) == 100
        assert len({e.tid for e in writes}) == 2

    def test_concurrent_checkpoint_is_traced(self, tmp_path):
        """The front-end checkpoints through the inner index's own step, so
        its checkpoint records the same span as the plain index's."""
        from repro.btree.btree import BPlusTree
        from repro.core.concurrent import ConcurrentSortednessAwareIndex
        from repro.storage.pagefile import CheckpointStore
        from repro.storage.wal import WriteAheadLog

        obs = Observability(trace=True)
        wal = WriteAheadLog(str(tmp_path / "t.wal"), fsync_policy="never")
        index = ConcurrentSortednessAwareIndex(BPlusTree(), obs=obs, wal=wal)
        index.put_many([(key, key) for key in range(100)])
        store = CheckpointStore(str(tmp_path / "t.db"))
        pages = index.checkpoint(store)
        assert wal.tail_bytes() == 0
        wal.close()
        (span,) = [e for e in obs.tracer.events() if e.name == "sware.checkpoint"]
        assert pages > 0 and span.attrs == {"pages": pages, "epoch": store.last_epoch}


class TestPerfettoExport:
    def _traced(self):
        tracer = Tracer(enabled=True)
        with tracer.span("sware.put", key=1):
            tracer.event("bloom.skip", page=3)
            with tracer.span("sware.flush_cycle", entries=8):
                pass
        return tracer

    def test_document_is_schema_valid(self):
        tracer = self._traced()
        doc = to_perfetto(tracer.events(), tracer=tracer)
        assert validate_perfetto(doc) == []
        assert json.loads(json.dumps(doc)) == doc

    def test_spans_become_complete_events(self):
        tracer = self._traced()
        doc = to_perfetto(tracer.events())
        complete = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert {r["name"] for r in complete} == {"sware.put", "sware.flush_cycle"}
        for row in complete:
            assert row["dur"] >= 0
            assert row["cat"] == "sware"
            assert "trace_id" in row["args"] and "span_id" in row["args"]

    def test_point_events_become_instants(self):
        doc = to_perfetto(self._traced().events())
        (instant,) = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert instant["name"] == "bloom.skip"
        assert instant["s"] == "t"
        assert instant["args"]["page"] == 3

    def test_metadata_names_process_and_threads(self):
        doc = to_perfetto(self._traced().events(), process_name="unit")
        meta = [r for r in doc["traceEvents"] if r["ph"] == "M"]
        assert meta[0]["args"]["name"] == "unit"
        assert any(r["name"] == "thread_name" for r in meta)

    def test_tracer_accounting_rides_in_other_data(self):
        tracer = self._traced()
        doc = to_perfetto(tracer.events(), tracer=tracer)
        assert doc["otherData"]["trace"]["recorded"] == tracer.recorded
        assert doc["otherData"]["trace"]["truncated"] is False

    def test_non_json_attrs_are_stringified(self):
        tracer = Tracer(enabled=True)
        with tracer.span("op", where=object()):
            pass
        doc = to_perfetto(tracer.events())
        (row,) = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert isinstance(row["args"]["where"], str)
        assert validate_perfetto(doc) == []

    def test_empty_trace_still_valid(self):
        doc = to_perfetto([])
        assert validate_perfetto(doc) == []
        assert len(doc["traceEvents"]) == 1  # just the process metadata


class TestPerfettoValidator:
    def test_rejects_non_object(self):
        assert validate_perfetto([]) == ["trace document is not a JSON object"]
        assert validate_perfetto({"x": 1}) == ["traceEvents must be a list"]

    def test_flags_malformed_rows(self):
        doc = {
            "traceEvents": [
                "not-a-row",
                {"name": "", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0},
                {"name": "a", "ph": "Z", "pid": 1, "tid": 1, "ts": 0.0},
                {"name": "b", "ph": "X", "pid": 1, "tid": "t", "ts": 0.0},
                {"name": "c", "ph": "X", "pid": 1, "tid": 1},
                {"name": "d", "ph": "i", "pid": 1, "tid": 1, "ts": 0.0,
                 "s": "x"},
                {"name": "e", "ph": "i", "pid": 1, "tid": 1, "ts": 0.0,
                 "s": "t", "args": []},
            ]
        }
        errors = validate_perfetto(doc)
        assert any("not an object" in e for e in errors)
        assert any("name" in e for e in errors)
        assert any("'Z'" in e for e in errors)
        assert any("tid" in e for e in errors)
        assert any(".ts" in e for e in errors)
        assert any(".dur" in e for e in errors)
        assert any(".s must" in e for e in errors)
        assert any("args" in e for e in errors)

    def test_metadata_rows_need_no_timestamp(self):
        doc = {"traceEvents": [{"name": "process_name", "ph": "M",
                                "pid": 1, "tid": 0, "args": {"name": "x"}}]}
        assert validate_perfetto(doc) == []
