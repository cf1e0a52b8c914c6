"""In-memory span timer for the traced benchmark passes.

Every call the traced pass makes into a proctomo module goes through
:meth:`Tracer.call`, which adds its duration to the span's busy time and
counts it.  Spans are flat: the traced pass calls each layer directly, and no
layer call is nested inside another traced call, so a layer's self time is
its busy time.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Busy seconds and call counts per span, plus free-standing counters."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def call(self, span: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.busy[span] += time.perf_counter() - t0
        self.calls[span] += 1
        return out

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def total_busy(self) -> float:
        return sum(self.busy.values())

    def with_fallback(self, other: "Tracer") -> "Tracer":
        """This tracer's spans and counters, plus those of ``other`` that this
        one never recorded.

        A workload whose passes reuse inputs built at set-up reports the
        set-up's figures for the layers its passes do not call.
        """
        out = Tracer()
        for src in (other, self):
            for span, n in src.calls.items():
                out.busy[span] = src.busy[span]
                out.calls[span] = n
            out.counts.update(src.counts)
        return out
