"""Layer spans for chardeg, recorded from outside the package.

chardeg's modules import each other's names with ``from .x import y``, so a
caller looks a function up in its own module's namespace.  ``Tracer.install``
therefore replaces every module attribute that *is* the traced function, in
every loaded ``chardeg`` module, and ``uninstall`` puts the originals back.
Nothing inside the package changes.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the wrapped calls it made.  Inclusive time (``s``) is only
added for the outermost active call of a function, so recursion (``build``
on products, ``degree_spectrum`` on factors) is not counted twice.

Group attribution: a top-level ``constructions.build`` call (or a top-level
``liedeg.prime_coverage_check`` call) starts a new group, and the group
lasts until the next one starts or the pass ends.  So the per-group times
include the glue code between wrapped calls and add up to the pass time
(less the ``between`` calls below).
A tracer made with ``GROUP_TARGETS`` wraps only those two functions: it
finds group boundaries at a cost of a few microseconds per group and records
no layer spans.  ``between(closed_key, seconds)``, if given, is called at
every group boundary with the group just closed (None if there was none);
the benchmark probes the machine's speed there.  Its time is in no group.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# (module, attribute) pairs wrapped by the tracer; "Class.method" wraps a method.
TARGETS = (
    ("chardeg.dixon", "dixon_degrees"),
    ("chardeg.dixon", "degree_spectrum"),
    ("chardeg.groups", "conjugacy_classes"),
    ("chardeg.groups", "PermGroup.elements"),
    ("chardeg.subgroups", "sylow"),
    ("chardeg.subgroups", "p_residual"),
    ("chardeg.subgroups", "normal_closure"),
    ("chardeg.subgroups", "derived_subgroup"),
    ("chardeg.subgroups", "is_normal"),
    ("chardeg.subgroups", "is_solvable"),
    ("chardeg.subgroups", "quotient_group"),
    ("chardeg.constructions", "build"),
    ("chardeg.constructions", "spectrum_of"),
    ("chardeg.acd", "acd_p"),
    ("chardeg.verify", "check_sylow_normality"),
    ("chardeg.verify", "check_p_residual_solvable"),
    ("chardeg.verify", "check_ito_michler"),
    ("chardeg.verify", "check_quotient_monotonicity"),
    ("chardeg.verify", "check_orbit_bound"),
    ("chardeg.liedeg", "prime_coverage_check"),
)

GROUP_TARGETS = (
    ("chardeg.constructions", "build"),
    ("chardeg.liedeg", "prime_coverage_check"),
)
COUNTERS = ("dixon.classes_solved", "groups.elements_enumerated")


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('chardeg.')}.{attr}"


class Tracer:
    """In-memory spans, counters and group times for one process."""

    def __init__(self, targets=TARGETS, between=None):
        self.targets = targets
        self.between = between
        spans = [span_name(m, a) for m, a in targets]
        self.stats = {name: [0, 0.0, 0.0] for name in spans}  # calls, s, self_s
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.group_times: dict[str, list[float]] = {}  # one entry per pass
        self._stack: list[list[float]] = []
        self._depth = dict.fromkeys(spans, 0)
        self._group: str | None = None
        self._group_start = 0.0
        self._enumerated = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    # -- groups -----------------------------------------------------------

    def mark_group(self, key: str | None) -> None:
        """Close the current group and open ``key`` (None just closes)."""
        now = time.perf_counter()
        closed, seconds = self._group, now - self._group_start
        if closed is not None:
            self.group_times.setdefault(closed, []).append(seconds)
        if self.between is not None:
            self.between(closed, seconds)
            now = time.perf_counter()
        self._group, self._group_start = key, now

    # -- hooks run around particular wrapped calls ------------------------

    def _before(self, name: str, args) -> None:
        if self._stack:
            return
        if name == "constructions.build" and args[0].spec != self._group:
            self.mark_group(args[0].spec)
        elif name == "liedeg.prime_coverage_check":
            self.mark_group("lie:" + args[0].tag)

    def _after(self, name: str, args, result) -> None:
        if name == "dixon.dixon_degrees":
            self.counters["dixon.classes_solved"] += len(args[0].reps)
        elif name == "groups.PermGroup.elements":
            group = args[0]
            if group not in self._enumerated:
                self._enumerated.add(group)
                self.counters["groups.elements_enumerated"] += len(result)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        before, after = self._before, self._after
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before(name, args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            after(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "chardeg"]
        for module_name, attr in self.targets:
            name = span_name(module_name, attr)
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
