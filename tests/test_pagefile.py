"""Tests for the file-backed page store and checkpointing."""

import os
import random

import pytest

from repro.btree.btree import BPlusTree, BPlusTreeConfig
from repro.storage.pagefile import CheckpointStore, PageFile, PageFileError


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "pages.db")


class TestPageFile:
    def test_write_read_roundtrip(self, path):
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(1, b"hello")
            pf.write_page(2, b"world" * 10)
            assert pf.read_page(1) == b"hello"
            assert pf.read_page(2) == b"world" * 10

    def test_large_payload_spills_slots(self, path):
        payload = os.urandom(1000)
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(7, payload)
            assert pf.read_page(7) == payload
            assert pf.n_slots >= 8

    def test_overwrite_reuses_slots(self, path):
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(1, b"a" * 500)
            slots_before = pf.n_slots
            pf.write_page(1, b"b" * 500)
            assert pf.read_page(1) == b"b" * 500
            assert pf.n_slots == slots_before  # freed slots reused

    def test_free_page(self, path):
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(1, b"x")
            pf.free_page(1)
            with pytest.raises(PageFileError):
                pf.read_page(1)

    def test_unknown_page(self, path):
        with PageFile(path, slot_size=128) as pf:
            with pytest.raises(PageFileError):
                pf.read_page(99)

    def test_empty_payload(self, path):
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(0, b"")
            assert pf.read_page(0) == b""

    def test_rejects_tiny_slots(self, path):
        with pytest.raises(ValueError):
            PageFile(path, slot_size=16)

    def test_reopen_resumes_slot_allocation(self, path):
        """Regression: reopening an existing file must not leave
        ``_n_slots == 0`` — the next write would silently overwrite slot 0."""
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(1, b"original" * 10)
            slots_before = pf.n_slots
        with PageFile(path, slot_size=128) as pf:
            assert pf.n_slots == slots_before  # allocation resumes after disk
            pf.write_page(2, b"appended")
            assert pf.read_page(2) == b"appended"
            # Slot 0's bytes are untouched by the append.
            assert pf._read_slot(0)[4:14] == b"original" + b"or"

    def test_truncate_resets(self, path):
        with PageFile(path, slot_size=128) as pf:
            pf.write_page(1, b"x" * 300)
            pf.truncate()
            assert pf.n_slots == 0
            assert pf._chains == {}
            pf.write_page(2, b"fresh")
            assert pf.read_page(2) == b"fresh"


class TestCheckpointStore:
    def _tree(self, n=400, seed=5):
        tree = BPlusTree(BPlusTreeConfig(leaf_capacity=8, internal_capacity=8))
        keys = list(range(n))
        random.Random(seed).shuffle(keys)
        for key in keys:
            tree.insert(key, f"value-{key}")
        return tree

    def test_save_and_load(self, path):
        tree = self._tree()
        store = CheckpointStore(path)
        n_pages = store.save_btree(tree)
        assert n_pages > 10
        restored = store.load_btree()
        assert list(restored.iter_items()) == list(tree.iter_items())
        restored.check_invariants()

    def test_restored_tree_accepts_writes(self, path):
        store = CheckpointStore(path)
        store.save_btree(self._tree(n=100))
        restored = store.load_btree()
        restored.insert(10_000, "fresh")
        restored.bulk_load_append([(20_000 + i, i) for i in range(30)])
        restored.check_invariants()
        assert restored.get(10_000) == "fresh"

    def test_empty_tree_checkpoint(self, path):
        store = CheckpointStore(path)
        store.save_btree(BPlusTree())
        restored = store.load_btree()
        assert restored.get(1) is None

    def test_checkpoint_survives_process_boundary(self, path):
        """Simulate a restart: separate store objects, same file."""
        CheckpointStore(path).save_btree(self._tree(n=150, seed=9))
        restored = CheckpointStore(path).load_btree()
        assert restored.get(37) == "value-37"

    def test_missing_file_fails_cleanly(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "nope.db"))
        with pytest.raises((PageFileError, FileNotFoundError, OSError)):
            store.load_btree()

    def test_garbage_file_fails_cleanly(self, path):
        with open(path, "wb") as handle:
            handle.write(os.urandom(4096 * 3))
        with pytest.raises(PageFileError):
            CheckpointStore(path).load_btree()

    def test_sware_index_checkpoint_roundtrip(self, path):
        from repro.core.config import SWAREConfig
        from repro.core.factory import make_sa_btree
        from repro.sortedness.generator import generate_kl_keys

        index = make_sa_btree(SWAREConfig(buffer_capacity=64, page_size=8))
        keys = generate_kl_keys(1500, 0.10, 0.05, seed=6)
        for key in keys:
            index.insert(key, key * 2)
        index.delete(keys[10])
        store = CheckpointStore(path)
        store.save_index(index)
        restored = store.load_index(SWAREConfig(buffer_capacity=64, page_size=8))
        assert restored.get(keys[0]) == keys[0] * 2
        assert restored.get(keys[10]) is None
        # The restored index keeps working as a sortedness-aware index.
        top = max(keys)
        for key in range(top + 1, top + 200):
            restored.insert(key, key)
        restored.flush_all()
        assert restored.stats.bulk_loaded_entries > 0
        restored.backend.check_invariants()

    def test_overwriting_checkpoint(self, path):
        store = CheckpointStore(path)
        store.save_btree(self._tree(n=100, seed=1))
        second = self._tree(n=60, seed=2)
        store2 = CheckpointStore(path + ".2")
        store2.save_btree(second)
        restored = store2.load_btree()
        assert list(restored.iter_items()) == list(second.iter_items())

    def test_smaller_second_checkpoint_wins(self, path):
        """Regression: re-saving a *smaller* tree to the same path must not
        resurrect the previous (larger) checkpoint's directory or serve a
        mix of old directory and new slots."""
        store = CheckpointStore(path, slot_size=128)
        large = self._tree(n=400, seed=1)
        store.save_btree(large)
        small = self._tree(n=25, seed=2)
        store.save_btree(small)
        restored = store.load_btree()
        assert list(restored.iter_items()) == list(small.iter_items())
        # And a fresh store (process restart) agrees.
        again = CheckpointStore(path, slot_size=128).load_btree()
        assert list(again.iter_items()) == list(small.iter_items())

    def test_epoch_monotonic_across_stores(self, path):
        store = CheckpointStore(path, slot_size=128)
        store.save_btree(self._tree(n=30, seed=1))
        store.save_btree(self._tree(n=30, seed=2))
        assert store.last_epoch == 2
        # A new handle resumes after the committed epoch.
        store2 = CheckpointStore(path, slot_size=128)
        store2.save_btree(self._tree(n=30, seed=3))
        assert store2.last_epoch == 3
        CheckpointStore(path, slot_size=128).load_btree()

    def test_corrupt_footer_fails_cleanly(self, path):
        store = CheckpointStore(path, slot_size=128)
        store.save_btree(self._tree(n=50, seed=4))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 10)  # inside the footer
            handle.write(b"\xff\xff")
        with pytest.raises(PageFileError):
            CheckpointStore(path, slot_size=128).load_btree()

    def test_corrupt_directory_fails_cleanly(self, path):
        store = CheckpointStore(path, slot_size=128)
        store.save_btree(self._tree(n=50, seed=4))
        n_slots = os.path.getsize(path) // 128
        with open(path, "r+b") as handle:
            handle.seek((n_slots - 1) * 128 + 40)  # inside the directory pickle
            handle.write(b"\x00\x00\x00")
        with pytest.raises(PageFileError):
            CheckpointStore(path, slot_size=128).load_btree()

    def test_truncated_file_fails_cleanly(self, path):
        store = CheckpointStore(path, slot_size=128)
        store.save_btree(self._tree(n=50, seed=4))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(PageFileError):
            CheckpointStore(path, slot_size=128).load_btree()

    def test_save_is_atomic_no_tmp_left_behind(self, path):
        store = CheckpointStore(path, slot_size=128)
        store.save_btree(self._tree(n=50, seed=4))
        assert not os.path.exists(store.tmp_path)
