"""In-memory span tracing around polco's layer functions.

A span is (name, start, end, parent) with times from the process CPU
clock, the clock every benchmark figure uses.  Spans come from two
places: the benchmark's own call sites (``Tracer.span``) and wrappers
that :meth:`Tracer.instrument` installs over the public functions each
polco module holds in its namespace, under the name the calling module
imported (``polco.measures.validate_density``, ``polco.relations.haar_pure``).
Nothing in polco's sources is changed; :meth:`Tracer.restore` puts the
original functions back.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import types
from array import array
from collections import defaultdict

clock = time.process_time_ns

LAYERS = ("states", "linalg", "measures", "basis", "relations", "cli")
# Wrapped besides the public functions: (layer, class or None, attribute, span
# name).  A method is wrapped on its class, since callers reach it through
# instances; the CLI's renderer is private, so no public wrapper covers it.
EXTRA = (("basis", "GeneratorSet", "stacked", "basis.stacked"),
         ("cli", None, "_render", "cli.render"))


class NullTracer:
    """Tracing off: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # One column per span field; a span is its index into all four.
        self.name_ids, self.starts, self.ends, self.parents = (array("q") for _ in range(4))
        self._stack = []
        self._wrapped = []

    def _open(self, name):
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def _close(self, index):
        self.ends[index] = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def instrument(self, package):
        """Wrap every public function that a polco layer module holds."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package.__name__}.{layer}")
            except ModuleNotFoundError:
                continue  # a layer that a later version folds away is simply not traced
        origin = {f"{package.__name__}.{layer}": layer for layer in LAYERS}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ in origin):
                    self._wrap(module, attr, f"{origin[value.__module__]}.{attr}")
        for layer, cls_name, attr, name in EXTRA:
            owner = modules.get(layer)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            if owner is not None and hasattr(owner, attr):
                self._wrap(owner, attr, name)

    def restore(self):
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def mark(self):
        return len(self.starts)

    def summary(self, start, end):
        """name -> [calls, inclusive ns, self ns] over spans[start:end].

        Inclusive time counts only the outermost span of a name, so a
        function reached through two wrapped names is not counted twice;
        self time is a span's duration minus that of its children.
        """
        ids, parents = self.name_ids, self.parents
        child_ns = defaultdict(int)
        for index in range(start, end):
            if parents[index] >= start:
                child_ns[parents[index]] += self.ends[index] - self.starts[index]
        out = defaultdict(lambda: [0, 0, 0])
        for index in range(start, end):
            name_id, parent = ids[index], parents[index]
            duration = self.ends[index] - self.starts[index]
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[2] += duration - child_ns[index]
            while parent >= start and ids[parent] != name_id:
                parent = parents[parent]
            if parent < start:
                entry[1] += duration
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"clock": "process_time_ns", "names": self.names,
                       "name_id": self.name_ids.tolist(), "start": self.starts.tolist(),
                       "end": self.ends.tolist(), "parent": self.parents.tolist()}, fh)
