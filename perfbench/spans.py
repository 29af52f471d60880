"""Spans and counters recorded around calls into the fatpoints modules.

The library itself is not changed: `instrument` replaces each public
function named in `TARGETS` by a timing wrapper, in every module that
holds a binding of it (``from .x import f`` copies a function into the
importing module, so patching one module alone would silently drop the
calls made through the others).  A span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

DECIDED_BY = ("axiom", "negative_degree", "reduce_chain", "rank", "inconclusive",
              "other")


class Recorder:
    """Call counts, self and total nanoseconds per span name, plus counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self.entry_is_script = False  # kind of the ledger record being verified

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str, count: bool = True) -> None:
        if count:
            self.calls[name] += 1
        self._stack.append([name, time.perf_counter_ns(), 0])

    def leave(self) -> int:
        """Close the innermost span and return its self time in ns."""
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        own = dur - child
        self.self_ns[name] += own
        self.total_ns[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return own


def _wrap(rec: Recorder, name: str, fn, hook=None):
    """Time every call of fn as span `name`; hook(rec, args, result, self_ns)
    runs after a call that returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            own = rec.leave()
        if hook is not None:
            hook(rec, args, result, own)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    """Time a generator function while it is consumed, one span per item."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        it = fn(*args, **kwargs)
        while True:
            rec.enter(name, count=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave()
            yield item

    return wrapper


# ---------------------------------------------------------------------
# hooks: counters measured where the work happens


def _rank_hook(rec, args, result, own):
    rows, cols = args[0].shape
    rec.counts["fplinalg.certify.attempts"] += rec.parent() == "fplinalg.certify"
    rec.counts["fplinalg.rank.ops_computed"] += rows * cols * min(rows, cols)
    if cols < 200:
        rec.counts["fplinalg.rank.self_ns.cols_lt_200"] += own
    elif cols >= 400:
        rec.counts["fplinalg.rank.self_ns.cols_ge_400"] += own


def _build_hook(rec, args, result, own):
    rec.counts["fplinalg.build_matrix.entries"] += result.size


def _certify_hook(rec, args, result, own):
    rec.counts["fplinalg.certify.successes"] += result.kind == "NonSpecial"


def _hit_hook(name):
    def hook(rec, args, result, own):
        rec.counts[name] += result is not None
    return hook


def _classify_hook(rec, args, result, own):
    if rec.parent() == "ledger.verify_entry" and not rec.entry_is_script:
        rec.counts["ledger.fallback_direct"] += 1
    if result.kind == "Inconclusive":
        op = "inconclusive"
    else:
        op = result.certificate[-1].op if result.certificate else "other"
        op = op if op in DECIDED_BY else "other"
    rec.counts["engine.decided_by." + op] += 1


def _glue_hook(rec, args, result, own):
    rec.counts["ledger.glue_steps"] += 1


# (module, attribute, span name, hook)
TARGETS = (
    ("fplinalg", "rank", "fplinalg.rank", _rank_hook),
    ("fplinalg", "build_matrix", "fplinalg.build_matrix", _build_hook),
    ("fplinalg", "certify_nonspecial_rank", "fplinalg.certify", _certify_hook),
    ("systems", "standard_form", "systems.standard_form", None),
    ("systems", "cremona", "systems.cremona", None),
    ("systems", "classify_by_axioms", "systems.axioms", _hit_hook("systems.axioms.hits")),
    ("systems", "glue", "systems.glue", _glue_hook),
    ("systems", "strip_negative_mults", "systems.strip_negative", None),
    ("engine", "classify", "engine.classify", _classify_hook),
    ("textio", "parse_system", "textio.parse_system", None),
    ("diagrams", "reduce_m", "diagrams.reduce_m", None),
    ("diagrams", "reduce_chain", "diagrams.reduce_chain", None),
    ("diagrams", "try_empty_by_enlarge", "diagrams.enlarge", _hit_hook("diagrams.enlarge.hits")),
    ("initial_cases", "_certify_group", "initial_cases.certify_group", None),
    ("ledger", "execute_method", "ledger.execute_method", None),
)


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "fatpoints" or n.startswith("fatpoints."))]


def _rebind(modules, old, new) -> int:
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                n += 1
    return n


@contextmanager
def instrument(rec: Recorder):
    """Route every call into the TARGETS through `rec` while active."""
    import fatpoints
    from fatpoints import fplinalg

    modules = _package_modules()
    patched: list[tuple] = []  # (original, wrapper)

    def patch(mod_name, attr, wrapper_for):
        orig = getattr(getattr(fatpoints, mod_name), attr)
        wrapper = wrapper_for(orig)
        if _rebind(modules, orig, wrapper) == 0:
            raise RuntimeError(f"no binding of fatpoints.{mod_name}.{attr}")
        patched.append((orig, wrapper))

    # Ledger records are verified one entry at a time.  The span name tells
    # direct rank records apart; the entry kind lets the classify hook tell
    # a fallback direct classification (classify called straight from a
    # method record) apart from a script's own classify calls.
    def trace_verify_entry(verify_entry):
        @functools.wraps(verify_entry)
        def wrapper(entry, *args, **kwargs):
            rec.entry_is_script = entry.script is not None
            rec.enter("ledger.direct_rank" if entry.expect == "rank"
                      else "ledger.verify_entry")
            try:
                return verify_entry(entry, *args, **kwargs)
            finally:
                rec.leave()
        return wrapper

    # EngineConfig's default_factory captured the PrimeFieldConfig class at
    # import, so the construction is timed through its validation hook.
    cls = fplinalg.PrimeFieldConfig
    post_init = cls.__dict__["__post_init__"]
    try:
        for mod_name, attr, name, hook in TARGETS:
            patch(mod_name, attr, lambda f, n=name, h=hook: _wrap(rec, n, f, h))
        patch("initial_cases", "tails",
              lambda f: _wrap_generator(rec, "initial_cases.tails", f))
        patch("ledger", "verify_entry", trace_verify_entry)
        cls.__post_init__ = _wrap(rec, "fplinalg.config", post_init)
        yield rec
    finally:
        for orig, wrapper in patched:
            _rebind(modules, wrapper, orig)
        cls.__post_init__ = post_init
