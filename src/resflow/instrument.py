"""Counting of retained intermediate arrays, and their bytes.

The two log-determinant gradient routines differ in how much state they
must keep alive: the Neumann-series form overwrites a single running
vector, while the differentiate-every-term form must keep every power of
the Jacobian applied to the probe vector until the backward sweep runs.
The meter makes that difference testable without wall-clock timing:
gradient routines report every array they hold onto and every array they
drop.  Since such a count is one a routine declares for itself,
:func:`traced_peak` measures the same difference in bytes allocated.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates above what it started with, as
    tracemalloc traces them, measured on a second call after a warm-up one
    (which fills the buffer pools the call reuses)."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@dataclass
class StorageMeter:
    """Tracks the number of simultaneously retained intermediate arrays."""

    current: int = 0
    peak: int = 0

    def retain(self, n: int = 1) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def release(self, n: int = 1) -> None:
        self.current -= n


@dataclass
class RetainedList:
    """List of intermediates whose length is reported to a meter.

    Appending retains one array; ``drop_all`` releases the whole list.
    A ``None`` meter makes this a plain list wrapper with zero overhead
    in the hot paths.
    """

    meter: StorageMeter | None = None
    items: list = field(default_factory=list)

    def append(self, arr) -> None:
        self.items.append(arr)
        if self.meter is not None:
            self.meter.retain()

    def __getitem__(self, i):
        return self.items[i]

    def __len__(self) -> int:
        return len(self.items)

    def drop_all(self) -> None:
        if self.meter is not None:
            self.meter.release(len(self.items))
        self.items.clear()
