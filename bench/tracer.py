"""Outside-in span tracer for the plstab layer modules.

The tracer wraps public functions from outside the package: each public
function in the ``__all__`` of a layer module is replaced, in every
``plstab`` module namespace that holds it, by a wrapper that records a
span (name, start, end, parent).  Rebinding every namespace matters
because modules import names directly (``reconstruct`` does
``from .gridfn import l1_distance``), so patching the defining module
alone would miss those call sites.

Spans are kept in flat in-memory lists and turned into self times only
when the run ends: a span's self time is its duration minus the
durations of its direct children.  Nothing under ``src/`` is modified;
``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable

import numpy as np

LAYER_MODULES = (
    "gridfn",
    "plcore",
    "rearrange",
    "profiles",
    "envelope",
    "reconstruct",
    "multidim",
)

# Annotators read a quantity off a call's arguments or result.  They run
# after the span has closed and may rename it (sup_convolution mode).
Annotator = Callable[["Tracer", int, tuple, dict, object], None]


class Tracer:
    """Span recorder and the set of bindings it has patched."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def rename(self, idx: int, name: str) -> None:
        self.span_name[idx] = self.name_id(name)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, annotate: Annotator | None = None):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if annotate is not None:
                annotate(self, idx, args, kwargs, out)
            return out

        return traced

    def _rebind_everywhere(self, original: object, replacement: object) -> None:
        """Point every ``plstab`` namespace that holds ``original`` at the
        replacement."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "plstab" or modname.startswith("plstab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, annotators: dict[str, Annotator]) -> None:
        """Wrap the public functions of every layer module.

        Classes in ``__all__`` are left alone except for the members named
        below.
        """
        import plstab

        for short in LAYER_MODULES:
            mod = sys.modules[f"plstab.{short}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if not inspect.isfunction(obj):
                    continue
                name = f"{short}.{attr}"
                self._rebind_everywhere(obj, self.wrap(name, obj, annotators.get(name)))
        gf = plstab.gridfn.GridFunction
        name = "gridfn.GridFunction.shift"
        self._patch_attr(gf, "shift", self.wrap(name, gf.shift, annotators.get(name)))
        name = "plcore.PLTriple.condition_satisfied"
        pt = plstab.plcore.PLTriple
        self._patch_attr(
            pt,
            "condition_satisfied",
            self.wrap(name, pt.condition_satisfied, annotators.get(name)),
        )

        # GridFunction construction is counted, not spanned: it runs
        # thousands of times per job and its cost belongs to the caller.
        post_init = gf.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            if self.active:
                counts["gridfn.GridFunction.constructions"] += 1
            post_init(obj)

        self._patch_attr(gf, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name id, parent index, start, end, self time."""
        name = np.asarray(self.span_name, dtype=np.int32)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=float)
        end = np.asarray(self.span_end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "self": dur - child,
        }

    def call_counts(self, first: int = 0) -> Counter:
        """Span counts by name over the spans from index ``first`` on."""
        ids = np.asarray(self.span_name[first:], dtype=np.int64)
        tally = np.bincount(ids, minlength=len(self.names))
        return Counter({self.names[i]: int(c) for i, c in enumerate(tally) if c})

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.asarray(self.names),
            name=a["name"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
        )
