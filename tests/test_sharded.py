"""Sharded index tests: routing, splits, manifest durability, recovery.

That every read (point, batch, scatter-gather range) answers like one
ordered map however many shards the keyspace has fissioned into is the
oracle's ``Sharded`` shape (``tests/test_oracle.py``); this file pins the
mechanisms behind it.
"""

import json
import os
import random
import sys
import threading

import pytest

from repro.core.config import SWAREConfig
from repro.storage import wal as wal_module
from repro.net.sharded import (
    MANIFEST_NAME,
    ShardedConfig,
    ShardedIndexError,
    ShardedSortednessAwareIndex,
    read_manifest,
    recover_sharded,
)

SMALL = SWAREConfig(buffer_capacity=32, page_size=8)


def make_sharded(tmp_path, **kw):
    kw.setdefault("n_shards", 4)
    kw.setdefault("split_threshold", 0)
    kw.setdefault("initial_key_range", (0, 10_000))
    kw.setdefault("index_config", SMALL)
    return ShardedSortednessAwareIndex(
        str(tmp_path / "db"), config=ShardedConfig(**kw)
    )


class TestRouting:
    def test_every_key_routes_even_outside_initial_range(self, tmp_path):
        idx = make_sharded(tmp_path)
        for key in (-(10**15), -1, 0, 2500, 9_999, 10**15):
            idx.put(key, key)
        assert idx.items() == sorted((k, k) for k in
                                     (-(10**15), -1, 0, 2500, 9_999, 10**15))
        assert idx.get(-(10**15)) == -(10**15)
        assert idx.get(10**15) == 10**15
        idx.close()

    def test_initial_boundaries_partition_the_range(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=4, initial_key_range=(0, 8000))
        bounds = [lower for lower, _sid in idx.shard_map()]
        assert bounds == [None, 2000, 4000, 6000]
        idx.close()

    def test_get_many_preserves_input_order_across_shards(self, tmp_path):
        idx = make_sharded(tmp_path)
        for k in range(0, 10_000, 100):
            idx.put(k, k * 2)
        keys = [9_900, 0, 5_000, 123, 2_500, 9_900]
        assert idx.get_many(keys) == [
            k * 2 if k % 100 == 0 else None for k in keys
        ]
        idx.close()

    def test_range_clamps_to_assigned_ranges(self, tmp_path):
        idx = make_sharded(tmp_path)
        for k in range(0, 10_000, 7):
            idx.put(k, k)
        got = idx.range_query(2_400, 7_700)  # spans three shard boundaries
        assert got == [(k, k) for k in range(0, 10_000, 7) if 2_400 <= k <= 7_700]
        idx.close()


class TestSplits:
    def test_split_fires_and_preserves_contents(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=100)
        expect = {}
        for k in range(400):
            idx.put(k, f"v{k}")
            expect[k] = f"v{k}"
        assert idx.splits >= 1
        assert idx.n_shards >= 2
        assert idx.items() == sorted(expect.items())
        assert idx.range_query(-(10**9), 10**9) == sorted(expect.items())
        idx.close()

    def test_routing_follows_every_split(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=2, split_threshold=60)
        rng = random.Random(8)
        for _ in range(600):
            key = rng.randrange(-500, 10_500)
            idx.put(key, key)
        assert idx.splits >= 3
        for key in range(-600, 10_600, 7):
            owner = [s for s in idx._shards if s.lower is None or s.lower <= key][-1]
            assert idx._route(key) is owner
        idx.close()

    def test_split_is_durable_in_manifest(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=100)
        for k in range(300):
            idx.put(k, k)
        splits = idx.splits
        assert splits >= 1
        doc = read_manifest(str(tmp_path / "db"))
        assert len(doc["shards"]) == idx.n_shards
        assert doc["next_shard_id"] == idx._next_shard_id
        # Every shard dir in the manifest exists with a WAL + checkpoint.
        for row in doc["shards"]:
            shard_dir = tmp_path / "db" / row["dir"]
            assert (shard_dir / "wal.log").exists()
            assert (shard_dir / "checkpoint.db").exists()
        idx.close()

    def test_split_inherits_parent_config(self, tmp_path):
        odd = SWAREConfig(buffer_capacity=24, page_size=8)
        idx = make_sharded(
            tmp_path, n_shards=1, split_threshold=100, index_config=odd
        )
        for k in range(300):
            idx.put(k, k)
        assert idx.n_shards >= 2
        for shard in idx._shards:
            assert shard.config.buffer_capacity == 24
        idx.close()

    def test_split_waits_for_threshold_live_keys(self, tmp_path):
        # Overwrites push tree entries plus buffered records past the
        # threshold while 40 keys are live: no split until 50 distinct keys.
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=50)
        shard = idx._shards[0]
        for k in range(40):
            idx.put(k, k)
        reached = 0
        for round_ in range(3):
            for k in range(0, 40, 3):
                reached += idx._shard_size(shard) + 1 >= 50  # this put reaches it
                idx.put(k, -round_)
        assert reached and idx.splits == 0
        # After the refusal (at 40 live keys in the tree) the split waits
        # for a flush to change the tree's count: by 40 + 32 live keys at
        # the latest, 32 being the buffer's capacity.
        for k in range(40, 40 + 32 + 1):
            idx.put(k, k)
            if idx.splits:
                break
            assert k < 40 + 32
        assert k + 1 >= 50 and idx.n_shards == 2
        assert [k for k, _v in idx.items()] == list(range(k + 1))
        idx.close()

    def test_a_refused_split_does_not_drain_again_on_overwrites(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=50)
        for k in range(49):
            idx.put(k, k)
        attempts = []
        split_shard = idx._split_shard

        def counting(shard, *args):
            attempts.append(shard.shard_id)
            return split_shard(shard, *args)

        idx._split_shard = counting
        for i in range(500):  # tree entries plus buffered records >= 50
            idx.put(i % 49, -i)
        assert attempts == [0] and idx.splits == 0
        for k in range(49, 49 + 32):  # new keys, till a flush moves the count
            idx.put(k, k)
            if idx.splits:
                break
        assert idx.splits == 1 and attempts == [0, 0]
        assert [k for k, _v in idx.items()] == list(range(k + 1))
        idx.close()

    def test_all_equal_keys_never_split(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=10)
        for i in range(50):
            idx.put(7, i)  # one live key can't yield a boundary
        assert idx.splits == 0
        assert idx.get(7) == 49
        idx.close()


class TestRecovery:
    def test_recover_roundtrip_after_checkpoint(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=3, split_threshold=120)
        oracle = {}
        for k in range(0, 600):
            idx.put(k * 3 % 10_000, k)
            oracle[k * 3 % 10_000] = k
        idx.checkpoint_all()
        idx.close()
        rec, reports = recover_sharded(str(tmp_path / "db"))
        assert set(reports) == {s.shard_id for s in rec._shards}
        assert rec.items() == sorted(oracle.items())
        rec.close()

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("hash_family", "splitmix64", id="splitmix64"),
            pytest.param("hash_family", "murmur3", id="murmur3"),
            pytest.param("kl_k_threshold", 0.20, id="kl_k_threshold"),
            pytest.param("kl_l_threshold", 0.05, id="kl_l_threshold"),
        ],
    )
    def test_recovers_a_manifest_with_a_hash_family(self, tmp_path, key, value):
        # Knobs older manifests recorded and this version retired.
        idx = make_sharded(tmp_path, n_shards=2)
        idx.put_many([(k, k) for k in range(0, 10_000, 500)])
        idx.commit()
        idx.close()
        path = tmp_path / "db" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        for row in doc["shards"]:
            row["config"][key] = value
        path.write_text(json.dumps(doc))
        rec, _reports = recover_sharded(str(tmp_path / "db"))
        assert rec.items() == [(k, k) for k in range(0, 10_000, 500)]
        rec.close()

    def test_recover_replays_wal_tail(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=2)
        for k in range(100):
            idx.put(k, k)
        idx.checkpoint_all()
        for k in range(100, 150):  # post-checkpoint tail lives only in WALs
            idx.put(k, k)
        idx.delete(5)
        idx.commit()
        idx.close()
        rec, reports = recover_sharded(str(tmp_path / "db"))
        assert sum(r.wal_records_replayed for r in reports.values()) >= 51
        assert rec.get(5) is None
        assert rec.get(149) == 149
        assert rec.items() == [(k, k) for k in range(150) if k != 5]
        rec.close()

    def test_each_wal_is_decoded_once(self, tmp_path, monkeypatch):
        idx = make_sharded(tmp_path, n_shards=3)
        idx.put_many([(k, k) for k in range(0, 10_000, 50)])
        idx.checkpoint_all()
        idx.put_many([(k, -k) for k in range(0, 10_000, 70)])
        idx.put(3, "single")
        idx.delete(50)
        idx.commit()
        expected = idx.items()
        idx.close()
        scanned = []
        real_scan = wal_module._scan

        def counting_scan(fobj):
            scanned.append(os.path.basename(os.path.dirname(fobj.name)))
            return real_scan(fobj)

        monkeypatch.setattr(wal_module, "_scan", counting_scan)
        rec, reports = recover_sharded(str(tmp_path / "db"))
        assert sorted(scanned) == sorted(row["dir"] for row in read_manifest(rec.root)["shards"])
        assert all(s.wal.recovered.ops == [] for s in rec._shards)
        assert sum(r.wal_records_replayed for r in reports.values()) == 145
        assert rec.items() == expected
        rec.close()

    def test_recovered_index_keeps_working_durably(self, tmp_path):
        idx = make_sharded(tmp_path, n_shards=2)
        idx.put(1, "a")
        idx.commit()
        idx.close()
        rec, _ = recover_sharded(str(tmp_path / "db"))
        rec.put(2, "b")
        rec.commit()
        rec.close()
        again, _ = recover_sharded(str(tmp_path / "db"))
        assert again.items() == [(1, "a"), (2, "b")]
        again.close()

    def test_double_create_rejected(self, tmp_path):
        idx = make_sharded(tmp_path)
        idx.close()
        with pytest.raises(ShardedIndexError, match="recover_sharded"):
            make_sharded(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ShardedIndexError, match="MANIFEST"):
            recover_sharded(str(tmp_path / "nothere"))

    def test_corrupt_manifest_rejected(self, tmp_path):
        idx = make_sharded(tmp_path)
        idx.close()
        path = tmp_path / "db" / MANIFEST_NAME
        path.write_text("{ not json")
        with pytest.raises(ShardedIndexError, match="unreadable"):
            recover_sharded(str(tmp_path / "db"))

    def test_manifest_without_edge_shard_rejected(self, tmp_path):
        idx = make_sharded(tmp_path)
        idx.close()
        path = tmp_path / "db" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        for row in doc["shards"]:
            if row["lower"] is None:
                row["lower"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(ShardedIndexError, match="-inf"):
            recover_sharded(str(tmp_path / "db"))


class TestCrashedSplitRecovery:
    """A crash between a split's manifest commit and the donor cleanup
    leaves the donor still holding copies of the moved keys. After
    recovery every read path — routing, clamped scatter-gather, and the
    full enumeration — must present each key exactly once, and a further
    split of the donor must not let the stale copies push its median past
    the assigned upper bound (which would corrupt the shard map order).
    """

    def _crash_split(self, tmp_path, n_keys=120, threshold=100):
        idx = make_sharded(tmp_path, n_shards=1, split_threshold=threshold)
        real_write = idx._write_manifest

        def write_then_crash():
            real_write()
            raise RuntimeError("simulated crash after manifest commit")

        idx._write_manifest = write_then_crash
        with pytest.raises(RuntimeError, match="simulated crash"):
            for k in range(n_keys):
                idx.put(k, k)
        idx.close()
        rec, _reports = recover_sharded(str(tmp_path / "db"))
        return rec

    def test_no_duplicates_after_crash_recovered_split(self, tmp_path):
        rec = self._crash_split(tmp_path)
        bounds = [lower for lower, _sid in rec.shard_map()]
        assert len(bounds) == 2 and bounds[0] is None
        split_key = bounds[1]
        full = rec.items()
        # Keys 0..crash-point went in contiguously before the crash; each
        # must be present exactly once with its value (no stale copies).
        assert full == [(k, k) for k in range(len(full))]
        assert len(full) >= split_key + 1  # both sides of the split are live

        # The satellite's routing case: a query range entirely inside the
        # -inf edge shard, below the first real split key.
        edge_only = rec.range_query(0, split_key - 1)
        assert edge_only == [(k, k) for k in range(split_key)]
        # And the full scatter-gather agrees with the enumeration.
        assert rec.range_query(-(1 << 60), 1 << 60) == full
        # Moved keys route to (and are served by) the new owner only.
        assert rec.get(split_key) == split_key
        rec.close()

    def test_followup_split_keeps_shard_map_ordered(self, tmp_path):
        rec = self._crash_split(tmp_path)
        split_key = rec.shard_map()[1][0]
        before = dict(rec.items())
        # The donor still carries the stale copies internally; its next
        # split must pick a boundary strictly inside its assigned range
        # (below split_key), not at/above it.
        for k in range(120, 140):  # routed to the upper shard; donor keys stay
            rec.put(k, k)
        rec.put(-1, -1)  # donor write; its size counter crosses the threshold
        before[-1] = -1
        before.update((k, k) for k in range(120, 140))
        bounds = [lower for lower, _sid in rec.shard_map()]
        assert bounds[0] is None
        real = bounds[1:]
        assert real == sorted(set(real)), f"shard map corrupted: {bounds}"
        assert real[-1] == split_key and all(b < split_key for b in real[:-1])
        assert rec.items() == sorted(before.items())
        rec.close()

    def test_refused_split_reclaims_stale_copies(self, tmp_path):
        rec = self._crash_split(tmp_path)
        split_key = rec.shard_map()[1][0]
        donor = rec._shards[0]
        assert donor.index.backend.n_entries > split_key  # stale copies
        rec.put(-1, -1)  # crosses the threshold; too few live keys to split
        assert rec.splits == 0 and rec.n_shards == 2
        assert [k for k, _v in donor.index.items()] == list(range(-1, split_key))
        assert donor.index.backend.n_entries == split_key + 1
        rec.close()
        again, _reports = recover_sharded(str(tmp_path / "db"))
        assert again._shards[0].index.backend.n_entries == split_key + 1
        again.close()


class TestCommit:
    def test_commit_syncs_only_dirty_shards(self, tmp_path):
        idx = make_sharded(tmp_path, fsync_policy="batch", n_shards=4)
        idx.put(1, "a")        # shard 0
        idx.put(9_999, "b")    # last shard
        assert idx.commit() == 2
        assert idx.commit() == 0  # nothing dirty afterwards
        idx.close()

    def test_commit_under_always_policy_is_a_noop_sync(self, tmp_path):
        idx = make_sharded(tmp_path, fsync_policy="always")
        idx.put(1, "a")
        assert idx.commit() == 0  # appends synced inline: nothing past a watermark
        idx.close()

    def test_commit_covers_what_preceded_it_not_what_raced_it(self, tmp_path):
        idx = make_sharded(tmp_path, fsync_policy="batch", n_shards=2)
        idx.put(1, "a")
        wal = idx._route(1).wal
        real_sync = wal.sync

        def sync_with_a_write_landing_mid_commit():
            real_sync()
            idx.put(2, "b")  # same shard, after the sync took its watermark

        wal.sync = sync_with_a_write_landing_mid_commit
        assert idx.commit() == 1
        assert (wal.durable_records, wal.records) == (1, 2)
        wal.sync = real_sync
        assert idx._obs_snapshot()["dirty_shards"] == 1.0
        assert idx.commit() == 1  # the racing write needs the next commit
        assert idx._obs_snapshot()["dirty_shards"] == 0.0
        idx.close()

    def test_commit_on_a_second_thread_while_writes_split_shards(self, tmp_path):
        idx = make_sharded(
            tmp_path, fsync_policy="batch", n_shards=2, split_threshold=60
        )
        done = threading.Event()
        failures = []

        def committer():
            try:
                while not done.is_set():
                    idx.commit()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=committer)
        thread.start()
        try:
            rng = random.Random(5)
            oracle = {}
            for step in range(600):
                key = rng.randrange(0, 10_000)
                oracle[key] = step
                idx.put(key, step)
                if step % 97 == 0:
                    idx.checkpoint_all()
        finally:
            done.set()
            thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not failures, failures
        assert idx.splits > 0, "workload must cross a shard split"
        idx.commit()
        assert all(s.wal.durable_records == s.wal.records for s in idx._shards)
        idx.close()
        recovered, _reports = recover_sharded(str(tmp_path / "db"))
        assert recovered.items() == sorted(oracle.items())
        recovered.close()


class TestObservability:
    def test_without_obs_no_collector_and_no_hub_call(self, tmp_path, monkeypatch):
        # The benchmark's shape: a sharded index built without ``obs``.
        from repro.obs import NULL_OBS
        from repro.obs.monitors import MonitorHub

        def refuse(*_args, **_kwargs):
            raise AssertionError("monitoring-off index touched the obs layer")

        monkeypatch.setattr(type(NULL_OBS), "register_collector", refuse)
        for name in ("observe_insert", "observe_inserts", "observe_flush"):
            monkeypatch.setattr(MonitorHub, name, refuse)
        idx = make_sharded(tmp_path)
        assert idx.obs is NULL_OBS and idx._hub is None
        for key in range(0, 10_000, 7):
            idx.put(key, key)
        idx.put_many([(key, -key) for key in range(1, 10_000, 7)])
        assert all(shard.index.obs is NULL_OBS for shard in idx._shards)
        idx.close()

    def test_hub_sees_arrival_order_and_stats_export_per_shard(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(monitors=True)
        idx = ShardedSortednessAwareIndex(
            str(tmp_path / "db"),
            config=ShardedConfig(
                n_shards=2, split_threshold=0, initial_key_range=(0, 1_000),
                index_config=SMALL,
            ),
            obs=obs,
        )
        idx.put(900, "a")
        idx.put_many([(10, "b"), (950, "c"), (20, "d")])
        sortedness = obs.monitors.sortedness
        assert sortedness.keys_observed == 4
        # Arrival order, not shard order: 900 then 10 is a descent.
        assert sortedness._estimate.n == 4 and sortedness._estimate.k_estimate == 2
        gauges = obs.snapshot()["metrics"]["gauges"]
        assert gauges["shard_0_inserts"] == 2 and gauges["shard_1_inserts"] == 2
        assert gauges["sware_inserts"] == 4
        assert all(shard.index.obs is not obs for shard in idx._shards)
        idx.close()

    def test_put_many_feeds_a_fill_sample(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(monitors=True)
        idx = ShardedSortednessAwareIndex(
            str(tmp_path / "db"),
            config=ShardedConfig(
                n_shards=2, split_threshold=0, initial_key_range=(0, 1_000),
                index_config=SMALL,
            ),
            obs=obs,
        )
        for batch in range(8):
            idx.put_many([(batch * 16 + j, j) for j in range(16)])
        saturation = obs.snapshot()["monitors"]["saturation"]
        assert len(saturation["fill_trajectory"]) >= 1
        idx.close()
