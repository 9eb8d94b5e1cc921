"""Spans around igk's public functions, for the benchmark's traced runs.

A traced process creates one ``Recorder`` and calls ``install``: every public
function of igk's modules, and every public method of
``ExponentialFamilySpec``, is replaced by a wrapper that records
(name, start, end, parent) in memory.  The wrapper goes at every name that
callers use, so ``families.fd_gradient`` (imported by name from
``numerics``) is wrapped as well as ``numerics.fd_gradient``.  Spans are
written out once, when the process ends.

Only the public boundary is wrapped: private helpers such as
``_check_theta`` run thousands of times per ``verify --suite all`` and every
wrapped call adds about a microsecond.  In ``igk.cli`` only ``main`` is
wrapped; the command handlers are dispatched through a private table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("specfile", "families", "numerics", "geometry", "tangent_bundle",
           "projective", "spin", "oscillator", "verify", "cli")


class Recorder:
    """In-memory span list of one process.

    ``spans[i] = [name, start, end, parent]`` with ``parent`` the index of the
    enclosing span or -1; ``thetas`` holds the distinct (family, theta bytes)
    pairs that ``weighted_support`` was called with.
    """

    def __init__(self):
        self.spans = []
        self.thetas = set()
        self._stack = []
        self._saved = []
        self._gauss_hermite = None
        self._gh_start = (0, 0)

    def wrap(self, name, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent]

        return wrapper

    def _note_theta(self, args):
        fam, theta = args[0], args[1]
        self.thetas.add((fam.name, np.asarray(theta, dtype=float).tobytes()))

    def _replace(self, target, name, value):
        self._saved.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def install(self):
        """Wrap igk's public boundary; returns the wrapped ``igk.cli.main``."""
        mods = {short: importlib.import_module(f"igk.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (short == "cli" and name != "main")):
                    continue
                wrapped[obj] = self.wrap(f"{short}.{name}", obj)
        spec = mods["families"].ExponentialFamilySpec
        for name, obj in list(vars(spec).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                hook = self._note_theta if name == "weighted_support" else None
                self._replace(spec, name, self.wrap(f"families.{name}", obj, hook))
        for mod in [importlib.import_module("igk"), *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, name, wrapped[obj])
        if self._gauss_hermite is None:
            self._gauss_hermite = mods["numerics"].gauss_hermite
            info = self._gauss_hermite.cache_info()
            self._gh_start = (info.hits, info.misses)
        return mods["cli"].main

    def uninstall(self):
        """Put the original functions back; the spans recorded so far stay."""
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    def dump(self, path, **extra):
        """Write the spans and counters out as one ``.npz`` file."""
        info = self._gauss_hermite.cache_info()
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        meta = {
            "names": names,
            "distinct_thetas": len(self.thetas),
            "gauss_hermite": [info.hits - self._gh_start[0], info.misses - self._gh_start[1]],
            **extra,
        }
        np.savez(
            path,
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans], dtype=float),
            end=np.array([s[2] for s in self.spans], dtype=float),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def load(path):
    """Span arrays and metadata of one file written by ``Recorder.dump``."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in ("name", "start", "end", "parent")}
        meta = json.loads(str(data["meta"]))
    return arrays, meta


def summarize(arrays, meta):
    """Per-name call counts and self times of one span file.

    Self time is a span's duration minus the durations of its direct child
    spans.  Also returns the summed duration of root spans and the number of
    ``natural_to_expectation`` calls made directly by ``expectation_to_natural``.
    """
    names = meta["names"]
    name, parent = arrays["name"], arrays["parent"]
    dur = arrays["end"] - arrays["start"]
    child = np.zeros(dur.size)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    evals = 0
    if "families.natural_to_expectation" in names and "families.expectation_to_natural" in names:
        n2e = names.index("families.natural_to_expectation")
        e2n = names.index("families.expectation_to_natural")
        evals = int(np.sum((name[nested] == n2e) & (name[parent[nested]] == e2n)))
    return {
        "calls": {n: int(c) for n, c in zip(names, calls)},
        "self_s": {n: float(t) for n, t in zip(names, self_s)},
        "root_s": float(dur[~nested].sum()),
        "mean_map_evals": evals,
        "distinct_thetas": meta["distinct_thetas"],
        "gauss_hermite": meta["gauss_hermite"],
    }
