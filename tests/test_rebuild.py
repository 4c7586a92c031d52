"""Rebuild (recovery plus one bulk load): equivalence, layout, crash hygiene.

A rebuild must be *observationally identical* to incremental recovery —
same live items from the same checkpoint + WAL tail, whatever mix of
inserts, updates, and deletes the tail holds — while writing the denser
bulk-loaded layout, and crash-safe: a simulated crash at any I/O boundary
during ``repro recover --out`` leaves the original checkpoint loadable,
and stray ``*.tmp`` wreckage is removed by the next rebuild.
"""

import os
import random

import pytest

from repro.btree.btree import BPlusTree
from repro.core.sware import SortednessAwareIndex
from repro.storage import (
    CheckpointStore,
    FaultyEnv,
    SimulatedCrash,
    WriteAheadLog,
    rebuild_index,
)


def _seeded_state(workdir, n=4000, tail=1500, seed=11):
    """Checkpoint ``n`` keys then log a mixed tail; returns paths + truth."""
    ckpt = os.path.join(workdir, "ck.db")
    walp = os.path.join(workdir, "wal.log")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10_000_000), n))
    wal = WriteAheadLog(walp)
    index = SortednessAwareIndex(BPlusTree(), wal=wal)
    for key in keys:
        index.insert(key, f"v{key}")
    CheckpointStore(ckpt).save_index(index)
    wal.reset()
    for _ in range(tail):
        roll = rng.random()
        if roll < 0.2:
            key = rng.choice(keys)
            index.delete(key)
        elif roll < 0.6:
            key = rng.choice(keys)
            index.insert(key, f"u{key}")
        else:
            key = rng.randrange(10_000_000, 11_000_000)
            index.insert(key, f"n{key}")
    wal.sync()
    wal.close()
    return ckpt, walp, dict(index.items())


class TestRebuildEquivalence:
    def test_matches_incremental_recovery(self, tmp_path):
        ckpt, walp, expected = _seeded_state(str(tmp_path))
        incremental, _ = CheckpointStore(ckpt).recover(walp)
        rebuilt, report = rebuild_index(ckpt, walp)
        assert dict(incremental.items()) == expected
        assert dict(rebuilt.items()) == expected
        rebuilt.backend.check_invariants()
        assert rebuilt.backend.n_entries == len(expected)  # one bulk load of the live entries
        assert report.wal_records_replayed == 1500

    def test_rebuild_without_wal(self, tmp_path):
        ckpt, _walp, _expected = _seeded_state(str(tmp_path), tail=0)
        rebuilt, report = rebuild_index(ckpt)
        loaded = CheckpointStore(ckpt).load_btree()
        assert rebuilt.backend.n_entries == loaded.n_entries
        assert report.wal_records_replayed == 0

    def test_out_path_checkpoint_loads_identically(self, tmp_path):
        ckpt, walp, expected = _seeded_state(str(tmp_path))
        out = str(tmp_path / "rebuilt.db")
        _index, report = rebuild_index(ckpt, walp, out_path=out)
        assert report.out_path == out
        recovered, _ = CheckpointStore(out).recover()
        assert dict(recovered.items()) == expected
        # What a rebuild adds over recovery: the bulk-loaded layout, every
        # leaf but the last at the fill target, so its checkpoint is smaller
        # than one of the recovered tree itself.
        tree = CheckpointStore(out).load_btree()
        fill = int(tree.config.leaf_capacity * tree.config.bulk_fill_factor)
        sizes = []
        leaf = tree._head_leaf
        while leaf is not None:
            sizes.append(len(leaf))
            leaf = leaf.next_leaf
        assert sizes[:-1] == [fill] * (len(sizes) - 1)
        plain = str(tmp_path / "plain.db")
        replayed, _ = CheckpointStore(ckpt).recover(walp)
        CheckpointStore(plain).save_index(replayed)
        assert os.path.getsize(out) < os.path.getsize(plain)

    def test_v1_checkpoint_rebuilds(self, tmp_path):
        """The run streamer handles raw (uncompressed) leaf pages too."""
        ckpt = str(tmp_path / "v1.db")
        walp = str(tmp_path / "wal.log")
        index = SortednessAwareIndex(BPlusTree(), wal=WriteAheadLog(walp))
        for key in range(0, 3000, 3):
            index.insert(key, key)
        CheckpointStore(ckpt, compress=False).save_index(index)
        index.wal.reset()
        for key in range(1, 3001, 30):
            index.insert(key, -key)
        index.wal.sync()
        index.wal.close()
        expected = dict(index.items())
        rebuilt, _ = rebuild_index(ckpt, walp)
        assert dict(rebuilt.items()) == expected


class TestCrashHygiene:
    def test_crash_during_out_checkpoint_preserves_source(self, tmp_path):
        """Sweep every I/O boundary of the --out save: the source checkpoint
        must stay loadable and the rebuilt output must never be half-visible."""
        ckpt, walp, expected = _seeded_state(str(tmp_path), n=800, tail=300)
        out = str(tmp_path / "out.db")
        crashed_at_least_once = False
        for crash_at in range(60):
            env = FaultyEnv(crash_at=crash_at, seed=crash_at)
            try:
                rebuild_index(
                    ckpt, walp, out_path=out,
                    opener=env.open, replace=env.replace,
                )
            except SimulatedCrash:
                crashed_at_least_once = True
            # Whatever happened, the inputs are intact…
            recovered, _ = CheckpointStore(ckpt).recover(walp)
            assert dict(recovered.items()) == expected
            # …and the output path is all-or-nothing.
            if os.path.exists(out):
                out_recovered, _ = CheckpointStore(out).recover()
                assert dict(out_recovered.items()) == expected
                os.unlink(out)
            for stray in (ckpt + ".tmp", out + ".tmp"):
                if os.path.exists(stray):
                    os.unlink(stray)
        assert crashed_at_least_once

    def test_stale_tmp_cleaned_by_next_rebuild(self, tmp_path):
        ckpt, walp, expected = _seeded_state(str(tmp_path), n=500, tail=100)
        for stale in (ckpt + ".tmp", str(tmp_path / "out.db.tmp")):
            with open(stale, "wb") as handle:
                handle.write(b"wreckage from a crashed save")
        rebuilt, report = rebuild_index(
            ckpt, walp, out_path=str(tmp_path / "out.db")
        )
        assert report.stale_tmp_removed
        assert not os.path.exists(ckpt + ".tmp")
        assert not os.path.exists(str(tmp_path / "out.db.tmp"))
        assert dict(rebuilt.items()) == expected

    def test_first_crash_leaves_only_tmp_wreckage(self, tmp_path):
        """The earliest possible crash (first mutating op, a torn write of
        the output's tmp file) leaves nothing but ``*.tmp`` behind — never
        a half-written file at the destination path itself — and the next
        clean rebuild sweeps it."""
        ckpt, walp, expected = _seeded_state(str(tmp_path), n=500, tail=200)
        out = str(tmp_path / "out.db")
        before = set(os.listdir(tmp_path))
        env = FaultyEnv(crash_at=0, seed=3)
        with pytest.raises(SimulatedCrash):
            rebuild_index(
                ckpt, walp, out_path=out, opener=env.open, replace=env.replace
            )
        new_files = set(os.listdir(tmp_path)) - before
        assert all(name.endswith(".tmp") for name in new_files)
        rebuilt, report = rebuild_index(ckpt, walp, out_path=out)
        assert report.stale_tmp_removed
        assert set(os.listdir(tmp_path)) - before == {"out.db"}
        assert dict(rebuilt.items()) == expected
