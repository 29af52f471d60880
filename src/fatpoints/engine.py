"""Classification of a linear system: a front end over one space cascade.

``classify`` is the front end for a system L(d; m1,...,mr).  Its stages,
cheapest first, are standard form (the Cremona chain; a negative degree
means Empty), the negative-multiplicity rules (strip the negative
entries, classify what is left, and read -1-specialty off multiple fixed
components) and the axiom knowledge base.  A system none of them settles
has d >= 0 and non-negative multiplicities.  It is the projectivization
of the space V(triangle(d+1); mults) of polynomials of degree at most d,
so it goes to ``classify_space``, and a space dimension n comes back as
dimension n - 1 (n = 0 means Empty).

``classify_space`` holds the one reduce -> enlarge -> rank cascade: the
reduction chain, the enlarge-to-a-triangle emptiness test, and the
randomized rank certificate on the reduced diagram and then on the full
one.  Each rank target is checked against both caps of ``EngineConfig``
before its matrix is built, and the first target over a cap ends the
stage Inconclusive: the full diagram contains the reduced one.  The
first conclusive stage wins; the verdict carries a replayable trace of
every step taken.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import diagrams
from .diagrams import Diagram, triangle, try_empty_by_enlarge, vdim_space
from .fplinalg import PrimeFieldConfig, certify_nonspecial_rank, matrix_shape
from .systems import (
    EMPTY,
    INCONCLUSIVE,
    MINUS_ONE_SPECIAL,
    NON_SPECIAL,
    LinearSystem,
    Step,
    Verdict,
    _derived,
    classify_by_axioms,
    record_standard_form,
    strip_negative_mults,
)

ALL_STAGES = ("standard_form", "negative", "axioms", "reduction", "rank")

# Guard on the strip-negative recursion.  Every round after the first
# follows a Cremona step that lowers the degree, so d + 2 rounds suffice;
# the guard only keeps huge degrees off the interpreter's stack.
_MAX_DEPTH = 200


@dataclass(frozen=True)
class EngineConfig:
    """Rank field, column cap and enabled stages of a classification;
    an unknown stage or a cap below 1 is a ValueError.  Each rank target
    is checked against both caps before its matrix is built: a target of
    more than ``max_cols`` cells, or a matrix of more than ``max_cols**2``
    entries (see ``fplinalg.matrix_shape``), ends the rank stage
    Inconclusive.

    ``DEFAULT_CONFIG`` is the one instance every call without a config
    shares; it is immutable, like every EngineConfig and PrimeFieldConfig.
    """

    field_cfg: PrimeFieldConfig = field(default_factory=PrimeFieldConfig)
    max_cols: int = 2000
    stages: tuple[str, ...] = ALL_STAGES

    def __post_init__(self) -> None:
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ValueError(f"unknown stages: {','.join(sorted(unknown))}")
        if self.max_cols < 1:
            raise ValueError("max_cols must be >= 1")


DEFAULT_CONFIG = EngineConfig()


def classify(L: LinearSystem, cfg: EngineConfig | None = None, _depth: int = 0) -> Verdict:
    """Classify L as NonSpecial(dim) / Empty / MinusOneSpecial, or give up."""
    cfg = cfg or DEFAULT_CONFIG
    if _depth > _MAX_DEPTH:
        return Verdict(INCONCLUSIVE, reason="recursion depth exceeded")
    steps: list[Step] = []
    if "standard_form" in cfg.stages:
        cur = record_standard_form(L, steps)
        if cur.degree < 0:
            return Verdict(EMPTY, -1, (*steps, Step("negative_degree", {}, before=cur)))
    else:
        cur = L.sorted_desc()
    ms = cur.mults
    # cur is sorted: its last entry is the smallest
    negative = bool(ms) and ms[-1] < 0
    if "negative" in cfg.stages and cur.degree >= 0 and negative:
        stripped, components = strip_negative_mults(cur)
        steps.append(Step("strip_negative", {"components": components},
                          before=cur, after=stripped))
        sub = classify(stripped.canonical(), cfg, _depth + 1)
        # Multiple fixed components: L is -1-special exactly when the
        # stripped system is non-empty, as a NonSpecial one is (dim >= 0).
        kind = MINUS_ONE_SPECIAL if components and sub.kind == NON_SPECIAL else sub.kind
        return Verdict(kind, sub.dim, tuple(steps) + sub.certificate, sub.reason)
    if cur.degree < 0 or negative:
        return Verdict(INCONCLUSIVE, reason="unresolved negative entries",
                       certificate=tuple(steps))
    zeros = ms.count(0)  # sorted and non-negative: the zeros are the tail
    canon = _derived(cur.degree, ms[:len(ms) - zeros]) if zeros else cur
    if "axioms" in cfg.stages:
        try:
            v = classify_by_axioms(canon)
        except ValueError:
            v = None  # not in standard form (possible under restricted stages)
        if v is not None:
            return v.prepend(tuple(steps))
    # L is the projectivization of V(triangle(d+1); mults): one dimension less.
    v = classify_space(triangle(canon.degree + 1), canon.mults, cfg)
    if v.kind == NON_SPECIAL:
        v = Verdict.nonspecial(v.dim - 1, v.certificate)
    return v.prepend(tuple(steps))


def _reduction_step(trace: diagrams.ReductionTrace) -> Step:
    return Step(
        "reduce_chain",
        {
            "mults": tuple(s.m for s in trace.steps),
            "residual": trace.residual_mults,
        },
        before=trace.initial, after=trace.final,
    )


def classify_space(D: Diagram, mults, cfg: EngineConfig | None = None) -> Verdict:
    """Reduction-then-rank classification of V(D; mults).

    Dimensions in the verdict are vector-space dimensions of V.
    """
    cfg = cfg or DEFAULT_CONFIG
    mults = [m for m in mults if m != 0]
    if any(m < 0 for m in mults):
        raise ValueError("classify_space needs non-negative multiplicities")
    vs = vdim_space(D, mults)
    # rank targets, each with the steps that lead to it; each contains
    # the one before, so the first over a cap ends the stage
    targets = []
    if "reduction" in cfg.stages:
        trace = diagrams.reduce_chain(D, mults)
        if trace.consumed_all:
            return Verdict(NON_SPECIAL, dim=trace.final.cells,
                           certificate=(_reduction_step(trace),))
        if vs <= 0:
            enlarged = try_empty_by_enlarge(trace.final, trace.residual_mults)
            if enlarged is not None:
                steps = (_reduction_step(trace),
                         Step("enlarge", {"to": enlarged.initial},
                              before=trace.final),
                         _reduction_step(enlarged))
                return Verdict(NON_SPECIAL, dim=0, certificate=steps)
        if trace.steps:
            targets.append((trace.final, trace.residual_mults,
                            (_reduction_step(trace),)))
    targets.append((D, tuple(mults), ()))
    if "rank" in cfg.stages:
        for target, ms, steps in targets:
            if target.cells > cfg.max_cols:
                return Verdict(INCONCLUSIVE,
                               reason=f"matrix would have {target.cells} columns "
                                      f"(cap {cfg.max_cols})")
            rows, cols = matrix_shape(target, ms)
            if rows * cols > cfg.max_cols ** 2:
                return Verdict(INCONCLUSIVE,
                               reason=f"matrix would be {rows}x{cols} "
                                      f"(cap {cfg.max_cols}^2 entries)")
            v = certify_nonspecial_rank(target, ms, cfg.field_cfg)
            if v.kind == NON_SPECIAL:
                return Verdict(NON_SPECIAL, dim=max(vs, 0),
                               certificate=steps + v.certificate)
    return Verdict(INCONCLUSIVE, reason="all stages inconclusive")
