"""Workload generation: operation streams and TPC-H dates."""

from repro.workloads.spec import (
    DELETE,
    INSERT,
    LOOKUP,
    RANGE,
    MixedWorkloadSpec,
    Operation,
    RawWorkloadSpec,
    value_for,
)
from repro.workloads.tpch import (
    LineitemDates,
    generate_lineitem_dates,
    receiptdate_keys,
    sorted_by_shipdate,
)

__all__ = [
    "DELETE",
    "INSERT",
    "LOOKUP",
    "RANGE",
    "MixedWorkloadSpec",
    "Operation",
    "RawWorkloadSpec",
    "value_for",
    "LineitemDates",
    "generate_lineitem_dates",
    "receiptdate_keys",
    "sorted_by_shipdate",
]
