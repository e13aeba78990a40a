"""Span recorder that wraps ttembed's public functions from outside the package.

Each wrapped call records a span: its name, start, end, the span open when
it began (its parent) and the step id of the benchmark step it ran in.  A
span's self time is its duration minus the time covered by its child spans,
e.g. ``layers.forward`` -> ``ttmatrix.row`` -> ``indexing.to_multi``.
Nothing under ``src/`` is changed: the wrappers replace attributes of the
imported modules and classes.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# span name -> attribute path, resolved from the namespace of imported
# ttembed modules.  Each name is wrapped where callers look it up.
TARGETS = {
    "indexing.to_multi": "indexing.MixedRadix.to_multi",
    "ttmatrix.row": "ttmatrix.TTMatrix.row",
    "ttmatrix.materialize": "ttmatrix.TTMatrix.materialize",
    "ttmatrix.tt_svd": "ttmatrix.tt_svd",
    # tt_svd binds svd at import, so patching linalg.svd would miss its calls
    "linalg.svd": "ttmatrix.svd",
    "trmatrix.row": "trmatrix.TRMatrix.row",
    "layers.forward": "layers.TTEmbedding.forward",
    "layers.backward": "layers.TTEmbedding.backward",
    "layers.apply_gradients": "layers.TTEmbedding.apply_gradients",
    "fileformat.load_tt": "fileformat.load_tt",
    "fileformat.save_tt": "fileformat.save_tt",
    "fileformat.load_dmat": "fileformat.load_dmat",
}


def _file_size(args):
    return os.path.getsize(args[0])


# a count attached to the span, read from the call's arguments after it returns
MEASURES = {
    "layers.backward": lambda args: int(np.size(args[1])),
    "fileformat.load_tt": _file_size,
    "fileformat.save_tt": _file_size,
    "fileformat.load_dmat": _file_size,
}

NAME, START, END, PARENT, STEP, COUNT = range(6)


class Tracer:
    """Keeps the spans of wrapped calls in memory while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.step = 0
        self._spans = []
        self._open = []

    def install(self, mods) -> None:
        """Wrap every TARGETS entry in the namespace of imported modules."""
        for name, path in TARGETS.items():
            first, *middle, attr = path.split(".")
            owner = getattr(mods, first)
            for part in middle:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.step, 0]
            self._open.append(len(self._spans))
            self._spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._open.pop()
            if measure is not None:
                span[COUNT] = measure(args)
            return result

        return traced

    def drain(self) -> list:
        """Hand over the spans recorded so far; call only between steps."""
        spans, self._spans = self._spans, []
        return spans


class Profile:
    """Per-name totals folded from drained spans."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.count = {}
        # inclusive time of the k-th svd call inside one tt_svd call
        self.unfold_s = {}

    def add(self, spans) -> None:
        covered = [0.0] * len(spans)
        svd_seen = {}
        for s in spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        for k, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered[k]
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.count[name] = self.count.get(name, 0) + s[COUNT]
            if name == "linalg.svd" and s[PARENT] >= 0:
                nth = svd_seen.get(s[PARENT], 0) + 1
                svd_seen[s[PARENT]] = nth
                self.unfold_s[nth] = self.unfold_s.get(nth, 0.0) + dur
