"""Architecture guards: what each simplicity change removed stays removed.

One test per guard. Each searches file text with a Python regex, line by
line as ``grep`` does, parses source with ``ast``, asserts that a file or a
named test still exists (or is gone), or reads a registry constant.
A new simplicity change adds its guard here. Compiled files under
``__pycache__`` are not searched, and neither is this file, which names
every pattern it forbids.
"""

import ast
import asyncio
import inspect
import re
from collections import Counter
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
    # the versions are overlaid onto the rows or merged with them a run at a
    # time (no re-sort of the rows), and the tail answers from its sorted key
    # column (no scan of the whole tail).
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
    # The metered tree replays a descent to bill it (``_bill_descent``); the
    # walk a verb runs is the executed one, never a billing override.
    overrides = {node.name for node in metered.body if isinstance(node, ast.FunctionDef)}
    assert {"_descend_to_leaf", "_leaf_for"}.isdisjoint(overrides)
    assert defines("tests/test_sware_index.py::TestCostAccounting::"
                   "test_unmetered_tree_makes_no_meter_call")


#: The public verbs a ``Metered*`` class overrides with a body of its own
#: instead of billing and returning ``super()``'s, each with its reason.
OWN_BODIES = {
    "MeteredBPlusTree.insert_sorted": "a flush bills each top-insert's descent: a loop of "
                                      "billed inserts, not the leaf-at-a-time walk",
    "MeteredBPlusTree.get_many": "the batch descent bills node_access once per visited node; "
                                 "a loop of get would change the cost model",
    "MeteredSortednessAwareIndex.get_many": "hands the buffer's misses to that batch descent",
}


def _super_calls(method):
    """The names ``method`` calls as ``super().<name>(...)``."""
    return {node.func.attr for node in ast.walk(method)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "super"}


def test_one_body_per_verb():
    # A metered class bills by a read-only replay, then returns the executed
    # verb: each public method a ``Metered*`` class overrides calls
    # ``super().<same name>``, so the paper-claim checks, the reports and
    # the meter goldens run the bodies that serve. OWN_BODIES are the
    # exceptions, and each must still be one.
    metered, own = set(), set()
    for path in _files("src/repro"):
        if path.suffix != ".py":
            continue
        module = ast.parse(path.read_text())
        classes = {node.name: node for node in module.body if isinstance(node, ast.ClassDef)}
        for name, cls in classes.items():
            if not name.startswith("Metered"):
                continue
            metered.add(name)
            [base] = [classes[base.id] for base in cls.bases]
            inherited = {node.name for node in base.body if isinstance(node, ast.FunctionDef)}
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef) or method.name.startswith("_")
                        or method.name not in inherited):
                    continue
                label = f"{name}.{method.name}"
                if label in OWN_BODIES:
                    own.add(label)
                    assert method.name not in _super_calls(method), label
                else:
                    assert method.name in _super_calls(method), f"{label} has a body of its own"
    assert metered == {"MeteredBPlusTree", "MeteredSWAREBuffer", "MeteredSortednessAwareIndex"}
    assert own == set(OWN_BODIES)


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
    # One batch insert: a bulk load or the flush's insert_sorted, no
    # gap-absorbing merge or leaf fission of its own.
    assert hits(r"def (_insert_many|_merge_run|_fission_leaf)\(", "src") == []
    body = _method("src/repro/btree/btree.py", "BPlusTree", "insert_many")
    called = {node.func.attr for node in ast.walk(body)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "insert_sorted" in called
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


def test_one_key_domain():
    # Keys are int64: storage/pages.py spells the bounds once, beside the
    # one refusal every write makes, and no kernel keeps a path for keys
    # outside them (no object arrays, no list demotion).
    bounds = hits(r"1 ?<< ?63|2 ?\*\* ?63", "src/repro")
    assert [hit for hit in bounds if not hit.startswith("src/repro/storage/pages.py:")] == []
    assert hits(r"_refuse_keys|INT64_M(IN|AX)", "src") == []
    assert hits(r"dtype=object|_NOT_INT|def _ordered\(", "src/repro/kernels.py") == []


# Framework callbacks: asyncio calls a protocol's methods, pickle calls an
# unpickler's ``find_class``.
FRAMEWORK_CALLBACKS = {name for name in dir(asyncio.Protocol) if not name.startswith("_")}
FRAMEWORK_CALLBACKS.add("find_class")

# What no code in the library, the benchmark, the examples or CI reaches,
# each with where it is reached instead. A key is a top-level name, a
# ``Class.member``, a ``Config.field`` or a ``function(parameter=)``.
REACHED_ELSEWHERE = {
    "ConcurrentSortednessAwareIndex": 'README "Concurrent usage"',
    "ConcurrentSortednessAwareIndex(config=)": 'README "Concurrent usage" passes it',
    "ConcurrentSortednessAwareIndex(wal=)": "its mutex makes WAL order apply order; "
                                            "tests/test_recovery.py::TestConcurrentWAL replays it",
    "ConcurrentSortednessAwareIndex(meter=)": "the oracle's concurrent shape bills its buffer, so its "
                                              "check replays the billed searches (_probe_tail)",
    "recommend": 'README "Diagnosing a run" (the doctor\'s remediation names it)',
    "recommend(read_fraction=)": 'README "Diagnosing a run", beside recommend',
    "SWAREConfig.bits_per_entry": "the doctor's bloom_fpr_degraded remediation tells users to raise it",
    "Observability(trace_capacity=)": "the doctor's trace_truncated remediation tells users to raise it",
    "CostModel(weights=)": "ROADMAP's clock item passes fitted weights (`--weights cpython`)",
    "IndexServer(commit_interval=)": "the load-clocked commit's specification tests set it",
    "FaultyEnv(crash_at=)": "the crash-injection seam the durability sweeps drive",
    "FaultyEnv(short_read_at=)": "the torn-read seam the WAL replay tests drive",
    "SWAREBuffer.range_entries": "tests read a range's buffered versions through it, unbilled",
    "WriteAheadLog.tail_bytes": "tests check that a reset truncates the log, under the log's lock",
    # Seams a test substitutes a fake or a small tree through.
    "rebuild_index(opener=)": "tests open files through a FaultyEnv",
    "rebuild_index(replace=)": "tests crash the atomic rename through a FaultyEnv",
    "ShardedSortednessAwareIndex(replace=)": "tests crash the manifest rename through a FaultyEnv",
    "recover_sharded(backend_factory=)": "the oracle's sharded shapes build small-page trees, so "
                                         "short programs split nodes, and keep them across a "
                                         "recover (it passes the factory on to the index)",
    "FaultyEnv(seed=)": "the crash sweeps seed their torn-write cut points with it",
    "live_loop(out=)": "tests read the dashboard frames from a buffer",
    "BeTreeConfig.node_size": "tests/test_betree.py and the oracle shrink B so short programs "
                              "flush buffers and split nodes (experiments run B = 64)",
    "BeTreeConfig.epsilon": "tests/test_betree.py checks the pivot/buffer split at other ε "
                            "(experiments run ε = 1/2)",
    "BeTreeConfig.leaf_capacity": "tests/test_betree.py and the oracle shrink leaves so short "
                                  "programs split them (experiments run 64)",
    # References tests compare against.
    "make_sa_btree(leaf_capacity=)": "tests/test_meter_golden.py pins the simulated cost at "
                                     "16-entry nodes",
    "make_sa_btree(internal_capacity=)": "tests/test_meter_golden.py pins the simulated cost at "
                                         "16-entry nodes",
    "CheckpointStore(compress=)": "writes the raw (v1) pages the compression floor and the v1 "
                                  "rebuild test compare against",
    "generate_kl_keys(gap=)": "the gapped key families the compression floor measures",
    "scrambled_keys(gap=)": "the gapped key families the compression floor measures",
}


def _reference_counts(path, node):
    """How often ``node`` (in ``path``) names each identifier: names,
    attributes and ``from ... import`` aliases, except the imports of an
    ``__init__.py`` (a re-export is not a use)."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.ImportFrom) and path.name != "__init__.py":
            found.update(alias.name for alias in child.names)
    return found


class _Calls:
    """The calls under the trees added, by callee name: the keywords they
    pass, the most positional arguments one passes, and whether one passes
    ``*args`` / ``**kwargs`` (which sets every parameter). A call ``f(...)``
    or ``x.f(...)`` counts for ``f``; ``super().__init__(...)`` counts for
    no class. Methods are resolved by name, not by type (``x.inc()``
    counts for every method ``inc``): telling ``Gauge.inc`` from
    ``Counter.inc`` needs the receiver's type. Also kept: the string dict
    keys, the functions that forward ``**kwargs``, and the names used as a
    value (any reference that is not the function a call calls)."""

    def __init__(self):
        self.keys, self.arity, self.splat = {}, Counter(), set()
        self.dict_keys, self.forwarders, self.values = set(), set(), set()

    def add(self, tree):
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(id(func))
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                self.keys.setdefault(name, set()).update(k.arg for k in node.keywords if k.arg)
                positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                self.arity[name] = max(self.arity[name], len(positional))
                if len(positional) < len(node.args) or any(not k.arg for k in node.keywords):
                    self.splat.add(name)
            elif isinstance(node, ast.Dict):
                self.dict_keys.update(key.value for key in node.keys if isinstance(key, ast.Constant)
                                      and isinstance(key.value, str))
            elif isinstance(node, ast.FunctionDef) and node.args.kwarg:
                self.forwarders.add(node.name)
        self.values.update(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in called
        )

    def sets(self, callees, index, name, spelled=False):
        """Whether a call of a name in ``callees`` passes parameter ``name``
        (positional ``index``; ``None`` for keyword-only). ``spelled``: a
        keyword ``name`` passed to any callee counts too."""
        keys = set().union(*self.keys.values()) if spelled else set()
        return any(
            callee in self.splat or name in keys | self.keys.get(callee, set())
            or (index is not None and self.arity[callee] > index)
            for callee in callees
        )


def _ci_calls(text):
    """Each call in the CI file's text, ``f(...)`` parsed as an expression
    (shell text that is not Python is skipped)."""
    for match in re.finditer(r"\b\w+\(", text):
        depth, end = 0, match.end() - 1
        for end in range(match.end() - 1, len(text)):
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            if not depth:
                break
        try:
            yield ast.parse(text[match.start() : end + 1], mode="eval")
        except SyntaxError:
            continue


def _unset_parameters(owner, func, calls, callees):
    """The defaulted parameters of ``func`` that no call of ``callees``
    passes. A function that is also used as a value (handed to another
    function, like ``decode_records`` to ``_untrusted``) has calls no name
    shows, so for it any keyword of the parameter's name counts."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if owner and positional and positional[0].arg in ("self", "cls") else 0
    label = (f"{owner}({{}}=)" if func.name == "__init__"
             else f"{owner}.{func.name}({{}}=)" if owner else f"{func.name}({{}}=)")
    spelled = func.name != "__init__" and func.name in calls.values
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default and not calls.sets(callees, index - skip, arg.arg, spelled):
            yield label.format(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not calls.sets(callees, None, arg.arg, spelled):
            yield label.format(arg.arg)


def test_library_is_what_runs():
    # Every public top-level def or class under src/repro, every public
    # method or property of a top-level class there, every field of a
    # *Config dataclass and every defaulted parameter of a public function
    # or method is reached from src/, bench_e2e/, examples/ or CI, or is
    # listed above with where it is reached instead. A parameter is set
    # only by a call of its own function: ``f(p=...)`` or ``x.f(p=...)``
    # for ``f``, ``C(p=...)`` for ``C.__init__`` (and, as ``C.__new__`` may
    # return one, for a ``MeteredC`` subclass's). A field is set by a
    # keyword of a call of its class or of a ``**kwargs`` forwarder
    # (``common.buffer_config``), or by a string dict key; a ``**`` replay
    # of a manifest is not a setting. An experiment's run takes only n.
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    total = Counter(re.findall(r"(\w+)\(", ci))
    calls = _Calls()
    for call in _ci_calls(ci):
        calls.add(call)
    trees = {}
    for path in _files("src", "bench_e2e", "examples"):
        if path.suffix == ".py":
            trees[path] = tree = ast.parse(path.read_text())
            total += _reference_counts(path, tree)
            calls.add(tree)

    def unreferenced(path, node, name):
        return total[name] - _reference_counts(path, node)[name] <= 0

    unreached = set()
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src/repro"):
            continue
        for statement in tree.body:
            public = not getattr(statement, "name", "_").startswith("_")
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and unreferenced(path, statement, statement.name):
                    unreached.add(statement.name)
                if public:
                    unreached.update(_unset_parameters(None, statement, calls, [statement.name]))
            if not isinstance(statement, ast.ClassDef):
                continue
            if public and unreferenced(path, statement, statement.name):
                unreached.add(statement.name)
            builders = [statement.name]
            if statement.name.startswith("Metered"):
                builders += [base.id for base in statement.bases if isinstance(base, ast.Name)]
            setters = [statement.name, *calls.forwarders]
            for member in statement.body:
                if statement.name.endswith("Config") and isinstance(member, ast.AnnAssign):
                    field = member.target.id
                    if field not in calls.dict_keys.union(*(calls.keys.get(name, ())
                                                            for name in setters)):
                        unreached.add(f"{statement.name}.{field}")
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name == "__init__":
                    unreached.update(_unset_parameters(statement.name, member, calls, builders))
                elif not member.name.startswith("_"):
                    unreached.update(_unset_parameters(statement.name, member, calls, [member.name]))
                if (not member.name.startswith("_") and member.name not in FRAMEWORK_CALLBACKS
                        and unreferenced(path, member, member.name)):
                    unreached.add(f"{statement.name}.{member.name}")
    unlisted = sorted(unreached - set(REACHED_ELSEWHERE))
    assert unlisted == [], "unreached: " + ", ".join(unlisted)
    stale = sorted(set(REACHED_ELSEWHERE) - unreached)
    assert stale == [], "reached, so not to be listed: " + ", ".join(stale)

    from repro.bench.experiments import EXPERIMENTS

    for name, entry in EXPERIMENTS.items():
        # fig18 reruns fig10's grid on disk with its own buffer and title.
        expected = ["n", "buffer_fraction", "pool_capacity", "title"] if name == "fig10" else ["n"]
        assert list(inspect.signature(entry.module.run).parameters) == expected, name
