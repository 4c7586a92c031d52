"""Tests for the deterministic fault-injection harness itself.

The crash-recovery acceptance suite (test_recovery.py) only means something
if the harness actually kills the process at the scheduled boundary, leaves
deterministic wreckage, and keeps the corpse dead — so those properties are
pinned here.
"""

import os

import pytest

from repro.storage.faults import FaultyEnv, SimulatedCrash


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "victim.bin")


class TestCrashScheduling:
    def test_crash_at_exact_write(self, path):
        env = FaultyEnv(crash_at=2, seed=0)
        fobj = env.open(path, "w+b")
        fobj.write(b"one")  # op 0
        fobj.write(b"two")  # op 1
        with pytest.raises(SimulatedCrash):
            fobj.write(b"three")  # op 2: boom
        assert env.crashed

    def test_no_crash_when_point_beyond_run(self, path):
        env = FaultyEnv(crash_at=100, seed=0)
        fobj = env.open(path, "w+b")
        for _ in range(10):
            fobj.write(b"data")
        fobj.close()
        assert not env.crashed

    def test_none_never_crashes(self, path):
        env = FaultyEnv(crash_at=None, seed=0)
        fobj = env.open(path, "w+b")
        for _ in range(50):
            fobj.write(b"data")
            fobj.flush()
        fobj.close()
        assert env.ops == 100

    def test_flush_fsync_truncate_are_boundaries(self, path):
        for method, crash_at in (("flush", 1), ("fsync", 1), ("truncate", 1)):
            env = FaultyEnv(crash_at=crash_at, seed=0)
            fobj = env.open(path, "w+b")
            fobj.write(b"data")  # op 0
            with pytest.raises(SimulatedCrash):
                getattr(fobj, method)()  # op 1

    def test_a_crash_closes_every_file_without_flushing(self, tmp_path):
        env = FaultyEnv(crash_at=2, seed=0)
        other = env.open(str(tmp_path / "other.bin"), "w+b")
        other.write(b"buffered")  # op 0: still in the file object's buffer
        text = env.open(str(tmp_path / "text.json"), "w")
        text.write('{"buffered": true}')  # op 1: still in the text wrapper
        victim = env.open(str(tmp_path / "victim.bin"), "w+b")
        with pytest.raises(SimulatedCrash):
            victim.flush()  # op 2: boom
        assert other._file.closed and text._file.closed and victim._file.closed
        # A dead process writes nothing more.
        assert os.path.getsize(tmp_path / "other.bin") == 0
        assert os.path.getsize(tmp_path / "text.json") == 0
        other.close()  # cleanup after the crash is a no-op
        text.close()

    def test_io_on_a_file_the_crash_closed_is_a_crash(self, tmp_path):
        env = FaultyEnv(crash_at=1, seed=0)
        survivor = env.open(str(tmp_path / "survivor.bin"), "w+b")
        survivor.write(b"x")  # op 0
        with pytest.raises(SimulatedCrash):
            env.replace(str(tmp_path / "a"), str(tmp_path / "b"))  # op 1: boom
        # Calls that take no tick, as a second thread may have in flight,
        # meet the closed file: they raise the crash, not a ValueError.
        for call in (survivor.tell, survivor.fileno):
            with pytest.raises(SimulatedCrash):
                call()

    def test_crash_before_replace_leaves_dst(self, tmp_path):
        src = str(tmp_path / "src")
        dst = str(tmp_path / "dst")
        with open(src, "wb") as handle:
            handle.write(b"new")
        with open(dst, "wb") as handle:
            handle.write(b"old")
        env = FaultyEnv(crash_at=0, seed=0)
        with pytest.raises(SimulatedCrash):
            env.replace(src, dst)
        with open(dst, "rb") as handle:
            assert handle.read() == b"old"  # the rename never happened


class TestWreckage:
    def test_torn_write_persists_strict_prefix(self, path):
        env = FaultyEnv(crash_at=0, seed=7)
        fobj = env.open(path, "w+b")
        with pytest.raises(SimulatedCrash):
            fobj.write(b"x" * 1000)
        fobj.close()
        size = os.path.getsize(path)
        assert 0 <= size < 1000  # never the full write

    def test_determinism(self, tmp_path):
        sizes = []
        for run in range(2):
            path = str(tmp_path / f"run{run}.bin")
            env = FaultyEnv(crash_at=3, seed=42)
            fobj = env.open(path, "w+b")
            try:
                for i in range(10):
                    fobj.write(bytes([i]) * 100)
            except SimulatedCrash:
                pass
            fobj.close()
            sizes.append(os.path.getsize(path))
            with open(path, "rb") as handle:
                data = handle.read()
            if run == 0:
                first = data
        assert sizes[0] == sizes[1]
        assert data == first

    def test_dead_env_stays_dead(self, path):
        env = FaultyEnv(crash_at=0, seed=0)
        fobj = env.open(path, "w+b")
        with pytest.raises(SimulatedCrash):
            fobj.write(b"data")
        with pytest.raises(SimulatedCrash):
            fobj.write(b"more")
        with pytest.raises(SimulatedCrash):
            fobj.seek(0)
        with pytest.raises(SimulatedCrash):
            env.open(path, "rb")
        fobj.close()  # cleanup is always allowed


class TestShortReads:
    def test_short_read_at_index(self, path):
        with open(path, "wb") as handle:
            handle.write(b"a" * 100)
        env = FaultyEnv(seed=5, short_read_at=1)
        fobj = env.open(path, "rb")
        assert fobj.read(50) == b"a" * 50  # read 0: full
        short = fobj.read(50)  # read 1: shortened
        assert len(short) < 50
        fobj.close()
