"""Spans around the package's public functions, recorded from outside it.

A span is installed by replacing a module (or class) attribute with a wrapper
under the name its caller looks up, e.g. ``gridnet.conv_grid_features`` as
``block_forward`` calls it, or ``experiments.adamw_step`` as the training loop
calls it.  Spans stay in memory; statistics are computed once the run ends.
An attribute that no longer exists is reported as a missing span and the run
goes on.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent, op, tag) spans and per-span counts."""

    PEAK_SAMPLES = 3

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1
        # free-form label of the input being processed (the infer cloud's
        # size class), so shares can be split per class afterwards
        self.tag = None
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[str, int] = defaultdict(int)
        self._peak_calls: dict[tuple, int] = defaultdict(int)
        self.missing: list[str] = []

    def _open(self) -> tuple[int, int, float]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name, idx, parent, t0) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.op, self.tag)

    @contextmanager
    def span(self, name: str):
        idx, parent, t0 = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, t0)

    def wrap(self, name: str, fn, count=None, peak: bool = False):
        """Wrapper recording a span per call; ``count(args, result)`` yields
        (key, amount) pairs added to this span's counters; ``peak`` records the
        largest number of bytes the call held allocated at once.  tracemalloc
        slows every allocation, so it runs only inside the first
        ``PEAK_SAMPLES`` calls of each such span per tag."""

        def traced(*args, **kwargs):
            sample = peak and self._peak_calls[(name, self.tag)] < self.PEAK_SAMPLES
            if sample:
                self._peak_calls[(name, self.tag)] += 1
                tracemalloc.start()
            idx, parent, t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, t0)
                if sample:
                    self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if count is not None:
                for key, amount in count(args, result):
                    self.counts[(name, key)] += amount
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attr, span name, count, peak) target while inside."""
        saved = []
        try:
            for owner, attr, name, count, peak in targets:
                original = getattr(owner, attr, None)
                if original is None:
                    label = f"{name} ({getattr(owner, '__name__', owner)}.{attr})"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count, peak))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stats(self, root: str = "op") -> dict[str, dict]:
        """Per span name: calls per op, inclusive ms median, self seconds, and
        self time as a share of root-span time; ``by_tag`` splits self time."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        durs: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        by_tag: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for (name, t0, t1, _, _, tag), child in zip(self.spans, child_time):
            durs[name].append(t1 - t0)
            self_s[name] += (t1 - t0) - child
            if tag is not None:
                by_tag[tag][name] += (t1 - t0) - child
        n_ops = max(len(durs.get(root, [])), 1)
        root_s = sum(durs.get(root, [])) or float("nan")
        out = {}
        for name, d in durs.items():
            out[name] = {
                "calls": len(d) / n_ops,
                "ms_p50": statistics.median(d) * 1e3,
                "self_s": self_s[name],
                "self_share": self_s[name] / root_s,
            }
        for tag, per_name in by_tag.items():
            total = sum(per_name.values())
            for name, s in per_name.items():
                out[name].setdefault("self_share_by_tag", {})[tag] = s / total
        return out
