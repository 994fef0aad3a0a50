"""Span recorder for the benchmark's traced runs.

The program has no spans of its own, so a traced run wraps the public
callables of each ``repro.*`` layer from the outside.  Each wrapper is
installed where the callers look the name up (a class attribute, or the
module global of the importing module, e.g. ``repro.api.evaluate_model``)
and records ``(id, parent, name, start, end, size)`` into an in-memory
list; nothing is written until the run ends.

Parent links come from a context variable, so nested calls on one thread
(and interleaved coroutines on one event loop) each see their own
enclosing span.  A layer's *self time* is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time

#: The solve layers: (module, attribute path, span name).  Names follow
#: the layer metric they feed; every solve-side metric is a self time.
SOLVE_TARGETS = (
    ("repro.api", "Engine.solve", "api.solve"),
    ("repro.api", "Problem.bind", "api.bind"),
    ("repro.api", "evaluate_model", "evaluation.audit"),
    ("repro.core.strategies", "SearchStrategy.run", "planner"),
    ("repro.core.fitter", "WeightedFitter.fit", "fitter"),
    ("repro.core.fitter", "WeightedFitter.fit_batch", "fitter"),
    ("repro.core.kernels", "CompiledConstraints.weights", "kernels.weights"),
    ("repro.core.kernels", "CompiledConstraints.weights_batch",
     "kernels.weights"),
    ("repro.core.kernels", "CompiledConstraints.update_predictions",
     "kernels.weights"),
    ("repro.core.kernels", "CompiledEvaluator.score", "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator.score_batch", "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator.score_models_batch",
     "kernels.score"),
    ("repro.ml.logistic", "LogisticRegression.fit", "ml.fit"),
    ("repro.ml.logistic", "LogisticRegression.fit_weighted_batch", "ml.fit"),
    ("repro.ml.logistic", "LogisticRegression.predict_batch", "ml.predict"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes.fit", "ml.fit"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes.fit_weighted_batch",
     "ml.fit"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes.predict_batch",
     "ml.predict"),
    ("repro.ml.base", "BaseClassifier.predict", "ml.predict"),
    ("repro.store.blob", "CacheStore.get", "store.get"),
    ("repro.store.blob", "CacheStore.put", "store.put"),
    ("repro.datasets.schema", "Dataset.fingerprint", "datasets.fingerprint"),
)

#: The serving layers, installed inside the server process.
SERVE_TARGETS = (
    ("repro.serving.batcher", "MicroBatcher.submit", "batcher.submit"),
    ("repro.api", "FairModel.predict_batch", "batcher.predict"),
    ("repro.incremental.auditor", "IncrementalAuditor.append_rows",
     "incremental.apply"),
    ("repro.incremental.auditor", "IncrementalAuditor.retire_rows",
     "incremental.apply"),
    ("repro.incremental.auditor", "IncrementalAuditor.audit",
     "incremental.audit"),
)


class Recorder:
    """In-memory span sink; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._lock = threading.Lock()
        self._installed = []

    # -- recording ----------------------------------------------------------

    def _open(self):
        sid = next(self._ids)
        return sid, self._current.set(sid)

    def _close(self, sid, token, name, start, size):
        end = time.perf_counter()
        self._current.reset(token)
        with self._lock:
            self.spans.append(
                (sid, self._parent_of(token), name, start, end, size)
            )

    @staticmethod
    def _parent_of(token):
        parent = token.old_value
        return 0 if parent is contextvars.Token.MISSING else parent

    def span(self, name, size=0):
        """Context manager recording one span around a block."""
        return _Span(self, name, size)

    def wrap(self, fn, name):
        """``fn`` wrapped in a span; coroutine functions stay awaitable.

        ``size`` is the length of the first positional sequence argument
        after ``self`` when there is one (rows of a predict block, chunks
        of a coalesced batch), else 0.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                sid, token = self._open()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(sid, token, name, start, _size(args))
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            sid, token = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, token, name, start, _size(args))
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets):
        """Patch every target in place; :meth:`uninstall` restores them."""
        for module_name, path, name in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if attr not in vars(owner):
                raise AttributeError(
                    f"{module_name}.{path} is not defined there; the "
                    f"benchmark's wrapper table is out of date"
                )
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(raw.__func__, name))
            elif isinstance(raw, classmethod):
                patched = classmethod(self.wrap(raw.__func__, name))
            else:
                patched = self.wrap(raw, name)
            setattr(owner, attr, patched)
            self._installed.append((owner, attr, raw))
        return self

    def uninstall(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


class _Span:
    def __init__(self, recorder, name, size):
        self.recorder, self.name, self.size = recorder, name, size

    def __enter__(self):
        self.start = time.perf_counter()
        self.sid, self.token = self.recorder._open()
        return self

    def __exit__(self, *exc):
        self.recorder._close(
            self.sid, self.token, self.name, self.start, self.size,
        )
        return False


def _size(args):
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{span id: self time}``: duration minus the time children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (a coroutine left running) cannot make a self
    time negative.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for sid, parent, _name, start, end, _size in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _size in spans:
        kids = [
            (max(a, start), min(b, end))
            for a, b in children.get(sid, ())
            if min(b, end) > max(a, start)
        ]
        out[sid] = (end - start) - _covered(kids)
    return out


def descendants(spans, root_id):
    """Ids of ``root_id`` and every span below it."""
    kids = {}
    for sid, parent, *_ in spans:
        kids.setdefault(parent, []).append(sid)
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(sid)
        todo.extend(kids.get(sid, ()))
    return out


def layer_self_times(spans, root_id):
    """``{span name: summed self time}`` over the tree under ``root_id``.

    The root's own self time is the unattributed remainder, so the
    values sum to the root's wall time.
    """
    selfs = self_times(spans)
    names = {s[0]: s[2] for s in spans}
    out = {}
    for sid in descendants(spans, root_id):
        out[names[sid]] = out.get(names[sid], 0.0) + selfs[sid]
    return out
