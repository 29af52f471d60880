"""Batch certification of the two enumeration families of diagrams.

For parameters (m, a, k) the family is either

* k > 0: all (~a, {a}^k, a1, ..., a_{m-1}) with a >= a1 >= ... >= 0, or
* k = 0: all (~a, a1, ..., a_{m-1}) with a >= a1 - 1 >= a2 - 2 >= ...,
  where a tail entry may exceed its predecessor (by one) only while the
  tail sits on the maximal staircase a_j = a + j.

Diagrams that cannot arise as reductions of a source diagram
(~a, {a}^l) are discarded by the throwout inequality
``x + (x - y + sy - sx) m >= sx`` applied to consecutive tail layers
(x, y) with y > 0 and source layers (sx, sy).  For every surviving D the
spaces V(D; m^p(D)) and V(D; m^(p(D)+1)) are certified non-special, with
an s-level batching trick: reduce every diagram s times, certify the few
distinct reduced diagrams by rank, and recurse on the remainder with
s - 1.
"""
from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator

from .diagrams import Diagram, bar, p_of, reduce_chain, triangle
from .fplinalg import PrimeFieldConfig, certify_nonspecial_rank
from .systems import NON_SPECIAL


@dataclass(frozen=True)
class FamilySpec:
    """Parameters (m, a, k) selecting one enumeration family."""

    m: int
    a: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        if self.a < self.m or (self.k == 0 and self.a < 2 * self.m):
            raise ValueError(
                f"family ({self.m},{self.a},{self.k}) violates a >= m "
                f"(and a >= 2m when k = 0)"
            )


def _source(spec: FamilySpec, pos: int) -> int:
    """Source-layer value at tail position pos (1-based)."""
    return spec.a if spec.k > 0 else spec.a + pos


def _star_ok(spec: FamilySpec, pos: int, x: int, y: int) -> bool:
    """Throwout inequality for tail pair (x, y) at positions (pos, pos+1)."""
    if y <= 0:
        return True
    sx, sy = _source(spec, pos), _source(spec, pos + 1)
    return x + (x - y + sy - sx) * spec.m >= sx


def _gen_ok(spec: FamilySpec, pos: int, x: int, y: int) -> bool:
    """Generation constraint for the transition from x to y at (pos, pos+1).

    k > 0: non-increasing.  k = 0: y <= x + 1, and a rise (throwout
    inequality on a rising pair) forces x to sit on the staircase.
    """
    if spec.k > 0:
        return 0 <= y <= x
    if not 0 <= y <= x + 1:
        return False
    if y == x + 1 and y > 0:
        return _star_ok(spec, pos, x, y)
    return True


def _first_values(spec: FamilySpec) -> range:
    hi = spec.a if spec.k > 0 else spec.a + 1
    return range(0, hi + 1)


def tails(spec: FamilySpec) -> Iterator[tuple[int, ...]]:
    """All tails (a1,...,a_{m-1}) of the family, in lexicographic order."""
    n = spec.m - 1
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        pos = len(prefix)
        if pos == n:
            yield tuple(prefix)
            return
        if pos == 0:
            values = _first_values(spec)
        else:
            x = prefix[-1]
            hi = x if spec.k > 0 else min(x + 1, spec.a + pos + 1)
            values = range(0, hi + 1)
        for v in values:
            if pos > 0 and not _gen_ok(spec, pos, prefix[-1], v):
                continue
            yield from rec(prefix + [v])

    yield from rec([])


def tail_diagram(spec: FamilySpec, tail: tuple[int, ...]) -> Diagram:
    return bar(spec.a, *(([spec.a] * spec.k) + list(tail)))


def throwout_tail(spec: FamilySpec, tail: tuple[int, ...]) -> bool:
    """Keep iff every consecutive tail pair satisfies the throwout
    inequality (pairs against the repeated source prefix hold trivially)."""
    return all(
        _star_ok(spec, pos + 1, tail[pos], tail[pos + 1])
        for pos in range(len(tail) - 1)
    )


def _count(spec: FamilySpec, with_throwout: bool) -> int:
    """Count tails by dynamic programming over (position, last value)."""
    n = spec.m - 1
    if n == 0:
        return 1
    counts = {v: 1 for v in _first_values(spec)}
    for pos in range(1, n):
        nxt: dict[int, int] = {}
        for x, c in counts.items():
            hi = x if spec.k > 0 else min(x + 1, spec.a + pos + 1)
            for y in range(hi + 1):
                if not _gen_ok(spec, pos, x, y):
                    continue
                if with_throwout and not _star_ok(spec, pos, x, y):
                    continue
                nxt[y] = nxt.get(y, 0) + c
        counts = nxt
    return sum(counts.values())


def count_family(spec: FamilySpec) -> int:
    return _count(spec, with_throwout=False)


def count_surviving(spec: FamilySpec) -> int:
    return _count(spec, with_throwout=True)


def max_diagram(spec: FamilySpec) -> Diagram:
    """The family member with the most cells (all layers maximal)."""
    if spec.k > 0:
        return bar(spec.a, *([spec.a] * (spec.k + spec.m - 1)))
    return triangle(spec.a + spec.m - 1)


def max_p_plus_1(spec: FamilySpec) -> int:
    return p_of(max_diagram(spec), spec.m) + 1


# ---------------------------------------------------------------------
# batched certification


@dataclass
class LevelStats:
    level: int
    pending: int
    distinct_reduced: int
    unreduced: int
    certified_groups: int


@dataclass
class InitialCasesReport:
    spec: FamilySpec
    mode: str
    s: int
    total_diagrams: int
    filtered_out: int
    max_p_plus_1: int
    result: str
    counterexample: str | None = None
    checked: int = 0
    levels: list[LevelStats] = field(default_factory=list)
    prime: int = 0
    seed: int = 0
    wall_time: float = 0.0  # excluded from JSON for reproducibility

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["wall_time"]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"InitialCases m={self.spec.m} a={self.spec.a} k={self.spec.k}"
            f" [{self.mode}]",
            f"  diagrams: {self.total_diagrams}"
            f" (after throwout: {self.total_diagrams - self.filtered_out})",
            f"  max p(D)+1: {self.max_p_plus_1}",
        ]
        for lv in self.levels:
            lines.append(
                f"  level {lv.level}: pending {lv.pending},"
                f" distinct reduced {lv.distinct_reduced},"
                f" unreduced {lv.unreduced}"
            )
        lines.append(
            f"  result: {self.result}"
            + (f" (counterexample {self.counterexample})"
               if self.counterexample else "")
        )
        lines.append(f"  checks: {self.checked}, wall time {self.wall_time:.2f}s")
        return "\n".join(lines)


def _certify_group(args: tuple) -> tuple[tuple[int, ...], bool]:
    """Certify V(R; m^p(R)) and V(R; m^(p(R)+1)) non-special by rank."""
    layers, m, cfg = args
    R = Diagram(layers)
    p_cnt = p_of(R, m)
    for count in (p_cnt, p_cnt + 1):
        key = f"{R}|{m}x{count}"
        v = certify_nonspecial_rank(R, [m] * count, cfg, key=key)
        if v.kind != NON_SPECIAL:
            return layers, False
    return layers, True


def run_initial_cases(
    spec: FamilySpec,
    s: int = 2,
    jobs: int = 1,
    cfg: PrimeFieldConfig | None = None,
    enumeration_only: bool = False,
) -> InitialCasesReport:
    """Certify the whole family, or only enumerate and report sizes."""
    cfg = cfg or PrimeFieldConfig()
    t0 = time.time()
    total = count_family(spec)
    surviving = count_surviving(spec)
    report = InitialCasesReport(
        spec=spec,
        mode="enumeration-only" if enumeration_only else "full",
        s=s,
        total_diagrams=total,
        filtered_out=total - surviving,
        max_p_plus_1=max_p_plus_1(spec),
        result="OK",
        prime=cfg.p,
        seed=cfg.seed,
    )
    if enumeration_only:
        report.wall_time = time.time() - t0
        return report

    pending = [
        tail_diagram(spec, t) for t in tails(spec) if throwout_tail(spec, t)
    ]
    assert len(pending) == surviving
    level = s
    while True:
        groups: dict[tuple[int, ...], list[Diagram]] = {}
        unreduced: list[Diagram] = []
        for D in pending:
            trace = reduce_chain(D, (spec.m,) * level)
            if trace.consumed_all:
                groups.setdefault(trace.final.layers, []).append(D)
            else:
                unreduced.append(D)
        keys = sorted(groups)
        tasks = [(k, spec.m, cfg) for k in keys]
        if jobs > 1 and len(tasks) > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(jobs) as pool:
                results = pool.map(_certify_group, tasks)
        else:
            results = [_certify_group(t) for t in tasks]
        ok_keys = {k for k, ok in results if ok}
        report.checked += 2 * len(tasks)
        next_pending = [D for k in keys if k not in ok_keys for D in groups[k]]
        next_pending.extend(unreduced)
        report.levels.append(
            LevelStats(
                level=level,
                pending=len(pending),
                distinct_reduced=len(keys),
                unreduced=len(unreduced),
                certified_groups=len(ok_keys),
            )
        )
        if level == 0:
            if next_pending:
                report.result = "NOT_OK"
                report.counterexample = str(
                    min(next_pending, key=lambda d: d.layers)
                )
            break
        if not next_pending:
            break
        pending = next_pending
        level -= 1
    report.wall_time = time.time() - t0
    return report


# The published results table for the two families: (m, a, k, max p(D)+1).
RESULTS_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (7, 18, 0, 11), (7, 17, 1, 10), (7, 16, 2, 10), (7, 15, 3, 10),
    (7, 14, 4, 9), (7, 13, 5, 9), (7, 12, 11, 11), (7, 11, 13, 10),
    (7, 10, 24, 13),
    (8, 21, 0, 12), (8, 20, 1, 11), (8, 19, 2, 11), (8, 18, 3, 10),
    (8, 17, 5, 10), (8, 16, 5, 10), (8, 15, 6, 9), (8, 14, 7, 9),
    (8, 13, 13, 10), (8, 12, 19, 11), (8, 11, 41, 17),
    (9, 24, 0, 12), (9, 23, 1, 11), (9, 22, 2, 11), (9, 21, 3, 11),
    (9, 20, 4, 11), (9, 19, 5, 10), (9, 18, 6, 10), (9, 17, 7, 10),
    (9, 16, 8, 9), (9, 15, 14, 11), (9, 14, 17, 11), (9, 13, 29, 13),
    (9, 12, 62, 21),
    (10, 26, 0, 12), (10, 25, 1, 11), (10, 24, 2, 11), (10, 23, 3, 11),
    (10, 22, 4, 10), (10, 21, 5, 10), (10, 20, 6, 10), (10, 19, 7, 9),
    (10, 18, 13, 11), (10, 17, 15, 11), (10, 16, 17, 11), (10, 15, 26, 12),
    (10, 14, 41, 15), (10, 13, 79, 23),
)
