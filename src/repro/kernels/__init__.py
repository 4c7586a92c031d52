"""``repro.kernels`` — backend dispatch for vectorized hot-path kernels.

The library's hot paths (Bloom probe generation, buffer tail sorting and
merging, sortedness metrics, batch-insert pre-checks) are expressed as
*kernels*: data-parallel functions over a whole column, with two
interchangeable implementations —

* :mod:`repro.kernels.python_kernels` — pure Python, always available, the
  semantic reference;
* :mod:`repro.kernels.numpy_kernels` — NumPy-vectorized, used automatically
  when ``numpy`` is importable.

NumPy is an *optional* extra (``pip install repro[fast]``), never a hard
dependency. Backend selection, in precedence order:

1. :func:`set_backend` / :func:`use_backend` (tests, benchmarks);
2. the ``REPRO_KERNELS`` environment variable (``python`` or ``numpy``);
3. auto: numpy if importable, else python.

Forcing ``numpy`` when it is not importable raises
:class:`~repro.errors.ConfigError` at the first kernel call rather than
silently degrading, so CI backend matrices cannot lie.

Both backends return bit-identical results (Bloom bit patterns, stable sort
orders, metric values); ``tests/test_kernels_equivalence.py`` pins that
contract. Cost-model charges never live in kernels — meters bill the
*algorithm* of the paper, not the implementation, so simulated costs are
identical under either backend. A scalar search is not a kernel: a
B+-tree node bisects its own key list (:mod:`repro.btree.node`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.errors import ConfigError
from repro.kernels import python_kernels as _python_kernels

__all__ = [
    "active_backend",
    "backend_info",
    "numpy_available",
    "set_backend",
    "use_backend",
    # kernels
    "shared_bases",
    "splitmix64_many",
    "murmur3_64_many",
    "bloom_add_many",
    "bloom_contains_many",
    "popcount_bytes",
    "nondecreasing_prefix_len",
    "stable_argsort",
    "gather",
    "concat_columns",
    "dedup_last",
    "ItemColumns",
    "as_list",
    "sort_items_by_key",
    "keys_strictly_increasing",
    "column_strictly_increasing",
    "key_array",
    "longest_nondecreasing_subsequence_length",
    "count_out_of_order",
    "max_displacement",
    "count_inversions",
    "count_runs",
    "pla_fit_segments",
    "pla_predict_many",
    "delta_pack",
    "delta_unpack",
]

_BACKENDS = ("python", "numpy")
_UNRESOLVED = object()
_numpy_kernels = _UNRESOLVED  # lazily imported module, or None when absent
_override: Optional[str] = None  # set_backend()/use_backend() selection


def _numpy_module():
    """The numpy kernel module, or None when numpy cannot be imported."""
    global _numpy_kernels
    if _numpy_kernels is _UNRESOLVED:
        try:
            from repro.kernels import numpy_kernels
        except ImportError:
            _numpy_kernels = None
        else:
            _numpy_kernels = numpy_kernels
    return _numpy_kernels


def numpy_available() -> bool:
    """True when the numpy backend can be used in this interpreter."""
    return _numpy_module() is not None


def _requested() -> tuple:
    """(backend name or "auto", where the request came from)."""
    if _override is not None:
        return _override, "set_backend()"
    env = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if env:
        return env, "REPRO_KERNELS"
    return "auto", "auto-detection"


def _impl():
    """Resolve the active kernel module for this call."""
    name, source = _requested()
    if name == "auto":
        module = _numpy_module()
        return module if module is not None else _python_kernels
    if name == "python":
        return _python_kernels
    if name == "numpy":
        module = _numpy_module()
        if module is None:
            raise ConfigError(
                f"{source} requested the numpy kernel backend, "
                "but numpy is not importable (pip install repro[fast])"
            )
        return module
    raise ConfigError(
        f"{source} requested unknown kernel backend {name!r}; "
        f"expected one of {_BACKENDS}"
    )


def active_backend() -> str:
    """Name of the backend the next kernel call will use."""
    return "python" if _impl() is _python_kernels else "numpy"


def set_backend(name: Optional[str]) -> None:
    """Force a backend programmatically; ``None`` restores env/auto selection."""
    global _override
    if name is not None:
        if name not in _BACKENDS:
            raise ConfigError(
                f"unknown kernel backend {name!r}; expected one of {_BACKENDS}"
            )
        if name == "numpy" and _numpy_module() is None:
            raise ConfigError(
                "cannot force the numpy kernel backend: numpy is not importable "
                "(pip install repro[fast])"
            )
    _override = name


@contextmanager
def use_backend(name: Optional[str]):
    """Temporarily force a backend (equivalence tests, benchmarks)."""
    global _override
    previous = _override
    set_backend(name)
    try:
        yield
    finally:
        _override = previous


def backend_info() -> dict:
    """Metadata describing the active backend, for telemetry ``meta`` blocks."""
    info = {"kernel_backend": active_backend(), "numpy_version": None}
    module = _numpy_module()
    if module is not None:
        info["numpy_version"] = module.np.__version__
    return info


# ----------------------------------------------------------------------
# kernel entry points — dispatch resolved per call so use_backend() works
# ----------------------------------------------------------------------
def shared_bases(keys, family="splitmix64", seed=0):
    return _impl().shared_bases(keys, family, seed)


def splitmix64_many(keys, seed=0):
    return _impl().splitmix64_many(keys, seed)


def murmur3_64_many(keys, seed=0):
    return _impl().murmur3_64_many(keys, seed)


def bloom_add_many(bits, bases, n_probes, n_bits, rotation=0):
    return _impl().bloom_add_many(bits, bases, n_probes, n_bits, rotation)


def bloom_contains_many(bits, bases, n_probes, n_bits, rotation=0):
    return _impl().bloom_contains_many(bits, bases, n_probes, n_bits, rotation)


def popcount_bytes(buf):
    return _impl().popcount_bytes(buf)


def nondecreasing_prefix_len(keys, last):
    return _impl().nondecreasing_prefix_len(keys, last)


def stable_argsort(keys):
    return _impl().stable_argsort(keys)


def gather(column, order):
    return _impl().gather(column, order)


def concat_columns(columns):
    return _impl().concat_columns(columns)


def dedup_last(keys, values):
    return _impl().dedup_last(keys, values)


#: Backend-independent column helpers: a key column + value list as a pair
#: sequence (flush -> ``bulk_load_append``), and a column unboxed to a list.
ItemColumns = _python_kernels.ItemColumns
as_list = _python_kernels.as_list


def sort_items_by_key(items):
    return _impl().sort_items_by_key(items)


def keys_strictly_increasing(batch):
    return _impl().keys_strictly_increasing(batch)


def column_strictly_increasing(col):
    return _impl().column_strictly_increasing(col)


def key_array(keys):
    return _impl().key_array(keys)


def longest_nondecreasing_subsequence_length(keys):
    return _impl().longest_nondecreasing_subsequence_length(keys)


def count_out_of_order(keys):
    return _impl().count_out_of_order(keys)


def max_displacement(keys):
    return _impl().max_displacement(keys)


def count_inversions(keys):
    return _impl().count_inversions(keys)


def count_runs(keys):
    return _impl().count_runs(keys)


def pla_fit_segments(keys, epsilon):
    return _impl().pla_fit_segments(keys, epsilon)


def pla_predict_many(first_keys, slopes, starts, keys):
    return _impl().pla_predict_many(first_keys, slopes, starts, keys)


def delta_pack(keys):
    return _impl().delta_pack(keys)


def delta_unpack(anchor, width, count, packed):
    return _impl().delta_unpack(anchor, width, count, packed)
