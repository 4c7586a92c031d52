"""Cross-backend equivalence: learned and cracking vs the B+-tree oracle.

The SOSD bench only means something if every competitor implements the
same :class:`~repro.core.sware.TreeBackend` semantics. This suite replays
deterministic op programs (inserts with overwrites, deletes including
absent keys, point/batch lookups, inclusive ranges, bulk appends) against
:class:`~repro.learned.LearnedIndex` and
:class:`~repro.learned.CrackingIndex` side by side with a
:class:`~repro.btree.btree.BPlusTree`, in both key domains (int64 keys,
and a mix with keys beyond int64; ``tests/key_domains.py``), and demands
indistinguishable observable behaviour. It also pins batch-vs-
sequential parity and the documented checkpointing contract
(:class:`~repro.errors.CheckpointUnsupportedError` — these backends have no
page-serializable node structure).
"""

import random

import pytest

from repro.btree.btree import BPlusTree
from repro.core.config import SWAREConfig
from repro.core.sware import SortednessAwareIndex, TreeBackend
from repro.errors import BulkLoadError, CheckpointUnsupportedError
from repro.learned import (
    CrackingIndex,
    CrackingIndexConfig,
    LearnedIndex,
    LearnedIndexConfig,
)
from repro.storage.pagefile import CheckpointStore
from tests.key_domains import key_domains

KEY_SPACE = 5_000
FULL = (-(2**80), 2**80)


def make_learned():
    # Small thresholds so programs of a few hundred ops cross the delta
    # fold / model rebuild paths several times.
    return LearnedIndex(LearnedIndexConfig(epsilon=8, delta_capacity=24))


def make_cracking():
    return CrackingIndex(CrackingIndexConfig(delta_capacity=24))


COMPETITORS = [("learned", make_learned), ("cracking", make_cracking)]


def _key(rng, extra_keys):
    """A key of ``range(KEY_SPACE)`` or ``extra_keys``, uniformly."""
    key = rng.randrange(KEY_SPACE + len(extra_keys))
    return extra_keys[key - KEY_SPACE] if key >= KEY_SPACE else key


def op_program(seed, n_ops, extra_keys=()):
    """A deterministic op program exercising every TreeBackend entry point."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        key = _key(rng, extra_keys)
        if roll < 0.45:
            ops.append(("insert", key, rng.randrange(10**6)))
        elif roll < 0.55:
            ops.append(("delete", key))
        elif roll < 0.75:
            ops.append(("get", key))
        elif roll < 0.90:
            ops.append(("range", key, key + rng.randrange(0, 200)))
        elif roll < 0.95:
            chunk = [
                (_key(rng, extra_keys), rng.randrange(10**6))
                for _ in range(rng.randrange(1, 12))
            ]
            ops.append(("insert_many", chunk))
        else:
            ops.append(("bulk_append", rng.randrange(1, 8)))
    return ops


def replay(index, oracle, ops):
    """Apply ``ops`` to both structures, asserting identical observables."""
    for op in ops:
        if op[0] == "insert":
            _, key, value = op
            assert index.insert(key, value) == oracle.insert(key, value)
        elif op[0] == "delete":
            _, key = op
            assert index.delete(key) == oracle.delete(key)
        elif op[0] == "get":
            _, key = op
            assert index.get(key) == oracle.get(key)
        elif op[0] == "range":
            _, lo, hi = op
            assert index.range_query(lo, hi) == oracle.range_query(lo, hi)
        elif op[0] == "insert_many":
            _, chunk = op
            assert index.insert_many(chunk) == oracle.insert_many(chunk)
        else:  # bulk_append: strictly increasing keys above both max keys
            _, count = op
            base = max(
                index.max_key if index.max_key is not None else -1,
                KEY_SPACE,
            )
            chunk = [(base + 1 + i, base + i) for i in range(count)]
            index.bulk_load_append(chunk)
            oracle.bulk_load_append(chunk)
        assert index.max_key == oracle.max_key
        assert index.min_key == oracle.min_key


@key_domains
@pytest.mark.parametrize("name,factory", COMPETITORS)
class TestOpProgramsVsOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_program_equivalence(self, name, factory, domain, seed):
        index, oracle = factory(), BPlusTree()
        replay(index, oracle, op_program(seed, 400, domain.extra_keys))
        full = oracle.range_query(*FULL)
        assert index.range_query(*FULL) == full
        assert sorted(index.iter_items()) == full
        index.check_invariants()

    def test_protocol_conformance(self, name, factory, domain):
        assert isinstance(factory(), TreeBackend)

    def test_bulk_load_validation_matches_btree(self, name, factory, domain):
        index, oracle = factory(), BPlusTree()
        for structure in (index, oracle):
            structure.bulk_load_append([(10, "a"), (20, "b")])
            with pytest.raises(BulkLoadError):
                structure.bulk_load_append([(5, "x")])  # below max_key
            with pytest.raises(BulkLoadError):
                structure.bulk_load_append([(30, "x"), (30, "y")])
            for key in sorted(domain.extra_keys):
                if key < 20:
                    with pytest.raises(BulkLoadError):
                        structure.bulk_load_append([(key, "x")])
                else:
                    structure.bulk_load_append([(key, "w")])
        assert index.range_query(*FULL) == oracle.range_query(*FULL)


@key_domains
@pytest.mark.parametrize("name,factory", COMPETITORS)
class TestBatchSequentialParity:
    def test_insert_many_matches_loop(self, name, factory, domain):
        rng = random.Random(99)
        items = [
            (_key(rng, domain.extra_keys), rng.randrange(10**6)) for _ in range(800)
        ]
        batched, sequential = factory(), factory()
        created_batch = batched.insert_many(items)
        created_seq = sum(bool(sequential.insert(k, v)) for k, v in items)
        assert created_batch == created_seq
        assert batched.range_query(*FULL) == sequential.range_query(*FULL)

    def test_get_many_matches_loop(self, name, factory, domain):
        rng = random.Random(77)
        index = factory()
        index.insert_many(
            [(_key(rng, domain.extra_keys), rng.randrange(10**6)) for _ in range(600)]
        )
        probes = [_key(rng, domain.extra_keys) for _ in range(300)]
        assert index.get_many(probes) == [index.get(k) for k in probes]


class TestCheckpointContract:
    """Learned/cracking backends document explicit checkpoint non-support."""

    @pytest.mark.parametrize("name,factory", COMPETITORS)
    def test_raw_backend_checkpoint_raises(self, name, factory, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt.db"))
        with pytest.raises(CheckpointUnsupportedError, match="B\\+-tree"):
            store.save_btree(factory())

    @pytest.mark.parametrize("name,factory", COMPETITORS)
    def test_sware_wrapped_checkpoint_raises(self, name, factory, tmp_path):
        index = SortednessAwareIndex(
            factory(), config=SWAREConfig(buffer_capacity=32, page_size=8)
        )
        for k in range(50):
            index.insert(k * 3 % 97, k)
        store = CheckpointStore(str(tmp_path / "ckpt.db"))
        with pytest.raises(CheckpointUnsupportedError):
            store.save_index(index)

    def test_error_is_a_typeerror_subclass(self):
        # Callers that guard with ``except TypeError`` keep working.
        assert issubclass(CheckpointUnsupportedError, TypeError)

    def test_btree_still_checkpoints(self, tmp_path):
        tree = BPlusTree()
        for k in range(100):
            tree.insert(k, k)
        store = CheckpointStore(str(tmp_path / "ckpt.db"))
        assert store.save_btree(tree) > 0
        assert store.load_btree().range_query(0, 99) == tree.range_query(0, 99)


@pytest.mark.parametrize("name,factory", COMPETITORS)
class TestUnderSWARE:
    """The competitors must be drop-in substrates for the SWARE wrapper."""

    def test_sware_wrap_matches_btree_substrate(self, name, factory):
        cfg = SWAREConfig(buffer_capacity=32, page_size=8)
        wrapped = SortednessAwareIndex(factory(), config=cfg)
        oracle = SortednessAwareIndex(BPlusTree(), config=cfg)
        rng = random.Random(5)
        for step in range(1500):
            key = rng.randrange(KEY_SPACE)
            roll = rng.random()
            if roll < 0.6:
                wrapped.insert(key, step)
                oracle.insert(key, step)
            elif roll < 0.8:
                assert wrapped.get(key) == oracle.get(key)
            else:
                hi = key + rng.randrange(0, 100)
                assert wrapped.range_query(key, hi) == oracle.range_query(key, hi)
        wrapped.flush_all()
        oracle.flush_all()
        assert wrapped.items() == oracle.items()
