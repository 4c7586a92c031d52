"""Architecture guards: what each simplicity change removed stays removed.

One test per guard. Each searches file text with a Python regex, line by
line as ``grep`` does, parses source with ``ast``, asserts that a file or a
named test still exists (or is gone), or reads a registry constant.
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
    """The source lines of every function or method ``name`` in ``path``
    (an override's too)."""
    source = (ROOT / path).read_text()
    lines = source.splitlines()
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    assert found, (path, name)
    return [line for node in found for line in lines[node.lineno - 1 : node.end_lineno]]


def test_ranges_resolve_versions():
    # The tail sort is billed, not cached for a range.
    assert hits(r"_tail_run", "src") == []
    # A range costs its tree scan plus work in the buffered rows it returns:
    # the merge walks runs of both sides (no re-sort of the rows), and the
    # tail answers from its sorted key column (no scan of the whole tail).
    scan = "\n".join(_body("src/repro/core/sware.py", "_range_scan")
                     + _body("src/repro/core/sware.py", "_merge_versions"))
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


def _names(tree, skip=None):
    """Every name and attribute ``tree`` refers to outside import
    statements and outside ``skip`` (a node of it)."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unchecked_calls(tree, billed):
    """The calls to a name in ``billed`` under ``tree`` whose result does not
    reach a check of its own: a later ``if ... != ...: raise
    InvariantViolation`` that names ``slot`` (the executed answer) and the
    call or the name the call's result is assigned to."""
    checks = sorted(
        (node for node in ast.walk(tree) if isinstance(node, ast.If)
         and isinstance(node.test, ast.Compare)
         and any(isinstance(op, ast.NotEq) for op in node.test.ops)
         and "slot" in _names(node.test)
         and any(isinstance(stmt, ast.Raise) and "InvariantViolation" in _names(stmt)
                 for stmt in node.body)),
        key=lambda node: node.lineno,
    )
    results = {}  # id(call) -> what a check must name to compare its result
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _names(node.func) & billed:
            results.setdefault(id(node), (node, None))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target = node.targets[0]
            first = target.elts[0] if isinstance(target, ast.Tuple) else target
            if _names(node.value.func) & billed and isinstance(first, ast.Name):
                results[id(node.value)] = (node.value, first.id)
    unchecked = []
    for call, name in sorted(results.values(), key=lambda pair: pair[0].lineno):
        for check in checks:
            if check.lineno >= call.lineno and (
                    any(node is call for node in ast.walk(check.test))
                    or name in _names(check.test)):
                checks.remove(check)  # one check per billed call
                break
        else:
            unchecked.append(ast.unparse(call))
    return unchecked


def test_one_biller():
    # The executed SWARE buffer takes no meter, makes no charge and holds
    # none of the paper's cost-model state: the filter walk, interpolation
    # search, page Zonemaps and (K,L) choice live in the metered subclass,
    # which MeteredSortednessAwareIndex builds.
    module = ast.parse((ROOT / "src/repro/core/buffer.py").read_text())
    classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
    executed, metered = classes["SWAREBuffer"], classes["MeteredSWAREBuffer"]
    assert {"charge", "meter", "bucket"}.isdisjoint(_names(executed))
    billing = {"interpolation_probe", "_search_tail", "BloomFilter", "PageZonemaps",
               "kl_split_fits", "RunningSortednessEstimate"}
    assert billing <= _names(metered)
    assert billing.isdisjoint(_names(module, skip=metered))
    # Each billed search is checked against the executed answer.
    searches = {"interpolation_probe", "_search_tail"}
    lookup = [node for node in metered.body
              if isinstance(node, ast.FunctionDef) and node.name == "lookup"]
    assert lookup and searches <= _names(lookup[0])
    assert _unchecked_calls(metered, searches) == []
    for path in _files("src/repro/core"):
        if path.suffix == ".py" and path.name != "buffer.py":
            assert billing.isdisjoint(_names(ast.parse(path.read_text()))), path
    assert [line.split(":")[0] for line in hits(r"(?<!class )MeteredSWAREBuffer\(", "src")] == [
        "src/repro/core/sware.py"]
    assert hits(r"_search_sorted", "src/repro/core/buffer.py") == []
    for test in ("TestCostAccounting::test_unmetered_get_enters_no_bucket",
                 "TestCostAccounting::test_unmetered_lookup_runs_no_interpolation",
                 "TestCostAccounting::test_unmetered_tail_probe_touches_no_filter"):
        assert defines(f"tests/test_sware_index.py::{test}")
    for test in ("test_answers_like_a_dict_without_a_charge",
                 "test_query_sort_runs_no_sort_kernel",
                 "test_allocates_no_filter_zonemap_or_estimate"):
        assert defines(f"tests/test_sware_buffer.py::TestExecutedBuffer::{test}")
    for test in ("test_wrong_interpolation_slot_raises", "test_wrong_tail_walk_slot_raises"):
        assert defines(f"tests/test_sware_buffer.py::TestBilledAnswerCheck::{test}")


def test_one_biller_per_layer():
    # One layer up, the same split: the executed SortednessAwareIndex makes
    # no charge, enters no bucket, and no method of it but ``__new__`` (which
    # picks the metered subclass when a meter is given) reads a meter.
    module = ast.parse((ROOT / "src/repro/core/sware.py").read_text())
    classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
    executed, metered = classes["SortednessAwareIndex"], classes["MeteredSortednessAwareIndex"]
    assert {"charge", "bucket"}.isdisjoint(_names(executed))
    methods = [node for node in executed.body if isinstance(node, ast.FunctionDef)]
    assert "__new__" in {method.name for method in methods}
    for method in methods:
        if method.name != "__new__":
            assert {"meter", "NULL_METER"}.isdisjoint(_names(method)), method.name
    calls = {node.func.attr for node in ast.walk(metered)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert {"charge", "bucket"} <= calls
    assert defines("tests/test_sware_index.py::TestCostAccounting::"
                   "test_unmetered_index_makes_no_meter_call")
    # One more layer down: no method of the executed BPlusTree but
    # ``__new__`` (which picks the metered subclass when given a meter or a
    # pool) charges a meter or touches a pool; MeteredBPlusTree does both.
    module = ast.parse((ROOT / "src/repro/btree/btree.py").read_text())
    classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
    executed, metered = classes["BPlusTree"], classes["MeteredBPlusTree"]
    methods = [node for node in executed.body if isinstance(node, ast.FunctionDef)]
    assert "__new__" in {method.name for method in methods}
    for method in methods:
        if method.name != "__new__":
            assert {"charge", "pool"}.isdisjoint(_names(method)), method.name
    assert {"charge", "pool"} <= _names(metered)
    assert defines("tests/test_sware_index.py::TestCostAccounting::"
                   "test_unmetered_tree_makes_no_meter_call")


def _method(path, cls, name):
    """The ``def name`` of class ``cls`` in ``path``."""
    module = ast.parse((ROOT / path).read_text())
    [body] = [node for node in module.body if isinstance(node, ast.ClassDef) and node.name == cls]
    [method] = [node for node in body.body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    return method


def test_one_frame_put():
    # An untraced PUT is one frame: ``insert`` appends through ``add``,
    # whose return value says the buffer filled; no private put step, no
    # ``is_full`` re-read.
    insert = _method("src/repro/core/sware.py", "SortednessAwareIndex", "insert")
    called = {node.func.attr for node in ast.walk(insert)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "add" in called
    assert {"_insert", "is_full"}.isdisjoint(_names(insert))
    assert hits(r"def _insert\(", "src/repro/core/sware.py") == []
    for cls in ("SWAREBuffer", "MeteredSWAREBuffer"):
        returns = [node for node in ast.walk(_method("src/repro/core/buffer.py", cls, "add"))
                   if isinstance(node, ast.Return)]
        assert returns and all(node.value is not None for node in returns), cls


def test_one_batch_surface():
    # A batch method exists only where a request reaches it.
    pattern = r"def (range_many|may_contain_many|pla_predict_many|bloom_contains_many)\("
    assert hits(pattern, "src") == []
    insert_many = hits(r"def insert_many", "src")
    assert all(line.startswith("src/repro/btree/btree.py:") for line in insert_many)
    assert defines("tests/test_concurrent_index.py::TestSingleThreaded::"
                   "test_empty_get_many_is_a_no_op")
    # An executed read batch is a loop of ``get``: no sort, no bisect, no
    # batch call below it. Only the metered classes batch, and they do it in
    # ``get_many`` itself (node_access once per node the batch visits).
    for path, name in (("src/repro/btree/btree.py", "BPlusTree"),
                       ("src/repro/core/sware.py", "SortednessAwareIndex"),
                       ("src/repro/net/sharded.py", "ShardedSortednessAwareIndex")):
        module = ast.parse((ROOT / path).read_text())
        [cls] = [node for node in module.body
                 if isinstance(node, ast.ClassDef) and node.name == name]
        [body] = [node for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "get_many"]
        called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                  for node in ast.walk(body)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, (ast.Name, ast.Attribute))}
        assert "get" in called, name
        assert not {"get_many", "sorted"} & called, name
        assert not [call for call in called if call.startswith("bisect")], name
    assert hits(r"def (_buffer_many|_tree_many)\(", "src") == []


def test_one_load_generator():
    # bench_e2e is the one load generator; the served oracle checks several clients.
    assert not (ROOT / "src/repro/net/loadgen.py").exists()
    assert hits(r"bench-serve|loadgen", "src", ".github") == []


def test_no_sosd_extension():
    # The paper's comparison is SWARE against the B+-tree and the Bε-tree:
    # the learned and cracking indexes, the SOSD datasets and their report
    # are gone.
    from tests.test_oracle import BACKEND_NAMES

    for path in ("src/repro/learned", "src/repro/workloads/sosd.py",
                 "src/repro/bench/experiments/sosd.py", "results/sosd.txt"):
        assert not (ROOT / path).exists(), path
    assert hits(r"repro\.learned|REPRO_SOSD_DIR", "src", "tests") == []
    assert BACKEND_NAMES == ("sa_btree", "btree", "betree", "lsm")


# Public definitions that no code in the library, the benchmark or the
# examples calls, each with where a user is told to reach it.
UNCALLED_BUT_DOCUMENTED = {
    "ConcurrentSortednessAwareIndex": 'README "Concurrent usage"',
    "recommend": 'README "Diagnosing a run" (the doctor\'s remediation names it)',
    "measure_overhead": 'CI step "Profiler overhead stays under 5%"',
}


def _references(path, statement):
    """Every name ``statement`` (a top-level node of ``path``) refers to:
    names, attributes and ``from ... import`` aliases, except the imports of
    an ``__init__.py`` (a re-export is not a use)."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            found.update(alias.name for alias in node.names)
    return found


def test_library_is_what_runs():
    # Every public top-level def or class under src/repro is referenced from
    # src/, bench_e2e/ or examples/ outside its own body, or is documented
    # for users to call and listed above.
    defined, referenced = [], {}
    for path in _files("src", "bench_e2e", "examples"):
        if path.suffix != ".py":
            continue
        for index, statement in enumerate(ast.parse(path.read_text()).body):
            where = (path, index)
            for name in _references(path, statement):
                referenced.setdefault(name, set()).add(where)
            if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not statement.name.startswith("_")
                    and path.is_relative_to(ROOT / "src/repro")):
                defined.append((statement.name, where))
    uncalled = sorted(
        (name, str(where[0].relative_to(ROOT)))
        for name, where in defined
        if not referenced.get(name, set()) - {where}
    )
    unlisted = [entry for entry in uncalled if entry[0] not in UNCALLED_BUT_DOCUMENTED]
    assert unlisted == [], unlisted
    assert [name for name, _ in uncalled] == sorted(UNCALLED_BUT_DOCUMENTED)
