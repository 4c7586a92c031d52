"""Architecture guards: what each simplicity change removed stays removed.

One test per guard. Each searches file text with a Python regex, line by
line as ``grep`` does, or asserts that a file or a named test still exists.
A new simplicity change adds its guard here. Compiled files under
``__pycache__`` are not searched, and neither is this file, which names
every pattern it forbids.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve()


def _files(*paths):
    for path in paths:
        path = ROOT / path
        found = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        yield from (p for p in found if "__pycache__" not in p.parts and p.resolve() != SELF)


def hits(pattern, *paths):
    """Every ``path:line: text`` under ``paths`` that ``pattern`` matches."""
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in _files(*paths)
        for number, line in enumerate(path.read_text(errors="replace").splitlines(), 1)
        if regex.search(line)
    ]


def guarded_blocks(pattern, *paths):
    """Each ``path:line`` that ``pattern`` matches, with the block it sits
    in: the line itself when it opens one, else the nearest line above with
    less indentation, followed by that header's indented body."""
    regex = re.compile(pattern)
    indent = lambda text: len(text) - len(text.lstrip())  # noqa: E731
    blocks = {}
    for path in _files(*paths):
        lines = path.read_text(errors="replace").splitlines()
        for number, line in enumerate(lines):
            if not regex.search(line):
                continue
            head = number
            while not line.rstrip().endswith(":") and (
                not lines[head].strip() or indent(lines[head]) >= indent(line)
            ):
                head -= 1
            body = head + 1
            while body < len(lines) and (
                not lines[body].strip() or indent(lines[body]) > indent(lines[head])
            ):
                body += 1
            blocks[f"{path.relative_to(ROOT)}:{number + 1}"] = lines[head:body]
    return blocks


def defines(node_id):
    """Whether ``path::Class::test`` is defined (directly) in that file."""
    path, *names = node_id.split("::")
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


def test_one_write_path():
    # The concurrent front-end only runs SortednessAwareIndex's public methods.
    pattern = r"wal\.|stats\.|observe_insert|query_sorting_threshold|\.query_sort\("
    assert hits(pattern, "src/repro/core/concurrent.py") == []
    assert hits(r"inner\._", "src/repro/core/concurrent.py") == []


def test_one_lock():
    # The thread-safe front-end is one mutex: no lock manager, page locks,
    # lock timeouts or schedule explorer.
    gone = ("src/repro/core/locks.py", "src/repro/core/schedules.py")
    assert [path for path in gone if (ROOT / path).exists()] == []
    assert hits(r'RWLock|BlockingLockManager|LockTimeout|"page:', "src") == []


def test_one_record_codec():
    # Only storage/pages.py pickles; its consumers catch its typed error.
    pickling = {line.split(":")[0] for line in hits(r"^\s*(import|from) pickle\b", "src")}
    assert pickling <= {"src/repro/storage/pages.py"}
    consumers = ("src/repro/net/protocol.py", "src/repro/storage/wal.py",
                 "src/repro/storage/pagefile.py")
    assert hits(r"except Exception", *consumers) == []


def test_one_recovery_path():
    # A rebuild is recover plus one bulk load; no encoded-run merge.
    assert hits(r"rebuild_threshold|CompressedRun|RunPage|merge_compressed", "src") == []


def _body(path, name):
    """The source lines of the function or method ``name`` in ``path``."""
    source = (ROOT / path).read_text()
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    assert len(found) == 1, (path, name)
    return source.splitlines()[found[0].lineno - 1 : found[0].end_lineno]


def test_ranges_resolve_versions():
    # The tail sort is billed, not cached for a range.
    assert hits(r"_tail_run", "src") == []
    # A range costs its tree scan plus work in the buffered rows it returns:
    # the merge walks runs of both sides (no re-sort of the rows), and the
    # tail answers from its sorted key column (no scan of the whole tail).
    scan = "\n".join(_body("src/repro/core/sware.py", "_range_scan"))
    assert ".sort(" not in scan and "itemgetter" not in scan
    run = "\n".join(_body("src/repro/core/buffer.py", "range_run"))
    assert re.search(r"for .+ in zip\(tail", run) is None
    assert hits(r"def (range_bounds|live_items)\(", "src") == []
    for test in ("tests/test_read_path.py::test_range_merge_matches_a_dict_model",
                 "tests/test_read_path.py::test_scan_interior_leaf_shortcut_matches_range_bounds",
                 "tests/test_concurrent_index.py::TestSingleThreaded::"
                 "test_inverted_range_is_a_no_op"):
        assert defines(test), test


def test_one_observability_surface():
    # The snapshot is the only artifact.
    assert hits(r"repro-bench/v1|bench\.telemetry|REPRO_RESULTS|record_run", "src", "tests") == []


def test_one_oracle():
    # The pairwise suites tests/test_oracle.py replaced stay deleted.
    gone = [
        *(ROOT / "tests").glob("test_*_property.py"),
        *(ROOT / "tests" / name for name in (
            "test_batch_equivalence.py", "test_backend_equivalence.py",
            "test_readpath_bugfixes.py",
        )),
    ]
    assert [path.name for path in gone if path.exists()] == []


def test_lean_point_lookups():
    # No meter bucket on an unmetered GET.
    assert hits(r"_search_sorted", "src/repro/core/buffer.py") == []
    assert defines("tests/test_sware_index.py::TestCostAccounting::"
                   "test_unmetered_get_enters_no_bucket")
    # Sorted runs are bisected and the tail answers from a dict; interpolation
    # search and the §IV-A filter walk run only under a meter, to bill it, and
    # the lookup checks that each reaches the slot it answered with.
    def billed(block):
        text = "\n".join(block)
        return (re.match(r"\s*if metered\b", block[0]) is not None
                and "!= slot" in text and "raise InvariantViolation" in text)

    probes = guarded_blocks(r"interpolation_probe\(", "src/repro/core")
    assert probes and all(
        billed(block) and any('charge("interp_step"' in line for line in block)
        for block in probes.values()
    ), probes
    walks = guarded_blocks(r"(?<!def )_search_tail\(", "src/repro/core")
    assert walks and all(billed(block) for block in walks.values()), walks
    for test in ("test_unmetered_lookup_runs_no_interpolation",
                 "test_unmetered_tail_probe_touches_no_filter"):
        assert defines(f"tests/test_sware_index.py::TestCostAccounting::{test}")


def test_one_batch_surface():
    # A batch method exists only where a request reaches it.
    pattern = r"def (range_many|may_contain_many|pla_predict_many|bloom_contains_many)\("
    assert hits(pattern, "src") == []
    insert_many = hits(r"def insert_many", "src")
    assert all(line.startswith("src/repro/btree/btree.py:") for line in insert_many)
    assert defines("tests/test_concurrent_index.py::TestSingleThreaded::"
                   "test_empty_get_many_is_a_no_op")


def test_one_load_generator():
    # bench_e2e is the one load generator; the served oracle checks several clients.
    assert not (ROOT / "src/repro/net/loadgen.py").exists()
    assert hits(r"bench-serve|loadgen", "src", ".github") == []
