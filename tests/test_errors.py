"""A constructor that rejects its arguments raises ``ConfigError``.

``ConfigError`` is a ``ReproError`` (one ``except`` catches everything the
library raises) and a ``ValueError`` (callers that caught the bare error
still do).
"""

import pytest

from repro.core.zonemap import PageZonemaps
from repro.errors import ConfigError, ReproError
from repro.filters.bloom import BloomFilter
from repro.obs.monitors import SortednessDriftMonitor
from repro.obs.profiler import SamplingProfiler
from repro.obs.tracer import Tracer
from repro.storage.bufferpool import BufferPool
from repro.storage.pagefile import PageFile

REJECTED = {
    "BufferPool(capacity=-1)": lambda tmp_path: BufferPool(capacity=-1),
    "Tracer(capacity=0)": lambda tmp_path: Tracer(capacity=0),
    "SortednessDriftMonitor(window=1)": lambda tmp_path: SortednessDriftMonitor(window=1),
    "SamplingProfiler(hz=0)": lambda tmp_path: SamplingProfiler(hz=0),
    "BloomFilter(capacity=0)": lambda tmp_path: BloomFilter(0),
    "BloomFilter(bits_per_entry=0)": lambda tmp_path: BloomFilter(8, bits_per_entry=0),
    "PageFile(slot_size=16)": lambda tmp_path: PageFile(str(tmp_path / "p.db"), slot_size=16),
    "PageZonemaps(page_size=0)": lambda tmp_path: PageZonemaps(0),
}


@pytest.mark.parametrize("construct", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_arguments_raise_config_error(tmp_path, construct):
    with pytest.raises(ConfigError) as caught:
        construct(tmp_path)
    assert isinstance(caught.value, ReproError)
    assert isinstance(caught.value, ValueError)
