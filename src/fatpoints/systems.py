"""Linear systems of plane curves with fat base points.

A system L(d; m1,...,mr) collects curves of degree d passing through r
general points with assigned multiplicities.  Degrees and multiplicities
may be negative; the intersection-theoretic dictionary on the blow-up
makes sense of both.  This module provides the basic arithmetic
(virtual/expected dimension), the Cremona transformation and standard
form, the negative-multiplicity rules, the axiom knowledge base used for
final classification, and the glueing bookkeeping.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index, mul

from .diagrams import Diagram

# Verdict kinds
NON_SPECIAL = "NonSpecial"
EMPTY = "Empty"
MINUS_ONE_SPECIAL = "MinusOneSpecial"
INCONCLUSIVE = "Inconclusive"

# Axiom identifiers
POINTS_LE_9 = "POINTS_LE_9"
MULT_LE_11 = "MULT_LE_11"
SIMPLE_POINTS = "SIMPLE_POINTS"


@dataclass(frozen=True)
class LinearSystem:
    """A degree together with an ordered, signed multiplicity list.

    The constructor coerces the degree and every multiplicity to a Python
    int with ``operator.index``, so that numpy integers or arrays given
    from outside neither leak into dimensions and certificates nor break
    equality and hashing.  A value that is not an integer, such as a float
    or a string, is a TypeError, not truncated or parsed.  The
    systems this module derives from another system's own fields
    (``sorted_desc``, ``canonical``, ``cremona``, the sort steps of
    ``standard_form`` and ``strip_negative_mults``) skip that coercion
    through ``_derived``: they are built from Python ints by sorting,
    filtering and integer arithmetic, which yield Python ints again.
    ``textio.parse_system`` skips it too, since it reads the text with
    ``int``.
    """

    degree: int
    mults: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", index(self.degree))
        object.__setattr__(self, "mults", tuple(map(index, self.mults)))

    # -- canonicalization (always explicit, never implicit) ------------

    def sorted_desc(self) -> "LinearSystem":
        """Multiplicities sorted non-increasing; zeros kept."""
        return _derived(self.degree, tuple(sorted(self.mults, reverse=True)))

    def canonical(self) -> "LinearSystem":
        """Sorted non-increasing with all zero multiplicities removed."""
        ms = tuple(sorted(filter(None, self.mults), reverse=True))
        return _derived(self.degree, ms)

    def same_as(self, other: "LinearSystem") -> bool:
        """Equality up to reordering and zero multiplicities."""
        a, b = self.canonical(), other.canonical()
        return a.degree == b.degree and a.mults == b.mults

    # -- convenience ---------------------------------------------------

    def count(self, m: int) -> int:
        return self.mults.count(m)

    def __str__(self) -> str:
        return format_system(self)


def _derived(degree: int, mults: tuple[int, ...]) -> LinearSystem:
    """LinearSystem(degree, mults) for a Python int and a tuple of Python
    ints, without the coercion of ``__post_init__`` (see LinearSystem)."""
    L = object.__new__(LinearSystem)
    fields = L.__dict__  # written directly: the frozen __setattr__ refuses
    fields["degree"] = degree
    fields["mults"] = mults
    return L


def format_system(L: LinearSystem) -> str:
    """Render as ``L(d;m1^c1,...)`` grouping equal consecutive entries."""
    parts: list[str] = []
    prev, n = None, 0  # the current run: n entries equal to prev
    for m in L.mults:
        if m == prev:
            n += 1
            continue
        if n:
            parts.append(f"{prev}^{n}" if n > 1 else f"{prev}")
        prev, n = m, 1
    if n:
        parts.append(f"{prev}^{n}" if n > 1 else f"{prev}")
    return f"L({L.degree};{','.join(parts)})"


class _ReadOnlyParams(dict):
    """A step's params: a dict that refuses every write."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a step's params are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # pickle and copy rebuild it, not write into it
        return _ReadOnlyParams, (dict(self),)


@dataclass(frozen=True, init=False)
class Step:
    """One replayable derivation step: an operation with its parameters.

    ``before``, ``after`` and the params hold the frozen systems and
    diagrams the step names (a chain is a tuple of them), not their text.
    The params are a read-only copy of the mapping given, and producers
    give tuples, not lists, so a returned certificate cannot be rewritten.
    The constructor writes the fields directly, as ``_derived`` does, so
    a step with the copy costs no more than the generated frozen
    ``__init__`` cost without it.
    ``to_dict`` makes the text when a certificate is serialized; the
    objects are frozen, so it is the text they had when the step was
    taken.  Steps, and the verdicts holding them, hash through that text,
    so they hash like they compare.
    """

    op: str
    params: dict
    before: LinearSystem | Diagram | None = None
    after: LinearSystem | Diagram | None = None

    def __init__(self, op: str, params=(),
                 before: LinearSystem | Diagram | None = None,
                 after: LinearSystem | Diagram | None = None) -> None:
        fields = self.__dict__  # written directly: the frozen __setattr__ refuses
        fields["op"] = op
        fields["params"] = _ReadOnlyParams(params)
        fields["before"] = before
        fields["after"] = after

    def to_dict(self) -> dict:
        """The step as JSON-ready data: systems and diagrams as their
        text, tuples as lists, every container fresh."""
        return {"op": self.op, "params": _text(self.params),
                "before": _text(self.before), "after": _text(self.after)}

    def __hash__(self) -> int:
        return hash(json.dumps(self.to_dict(), sort_keys=True))


def _text(x):
    if isinstance(x, (LinearSystem, Diagram)):
        return str(x)
    if isinstance(x, Step):  # a glue step's certificate of its small system
        return x.to_dict()
    if isinstance(x, (list, tuple)):
        return [_text(y) for y in x]
    if isinstance(x, dict):
        return {k: _text(y) for k, y in x.items()}
    return x


@dataclass(frozen=True, init=False)
class Verdict:
    """Classification result with a replayable derivation trace.

    The constructor writes the fields directly, as ``Step`` does: every
    classification builds two or three verdicts.
    """

    kind: str
    dim: int | None = None
    certificate: tuple[Step, ...] = ()
    reason: str | None = None

    def __init__(self, kind: str, dim: int | None = None,
                 certificate: tuple[Step, ...] = (), reason: str | None = None) -> None:
        fields = self.__dict__  # written directly: the frozen __setattr__ refuses
        fields["kind"] = kind
        fields["dim"] = dim
        fields["certificate"] = certificate
        fields["reason"] = reason

    @staticmethod
    def nonspecial(dim: int, certificate: tuple[Step, ...]) -> "Verdict":
        """A non-special system of dimension dim: Empty when dim is -1."""
        return Verdict(EMPTY if dim == -1 else NON_SPECIAL, dim, certificate)

    @property
    def axioms_used(self) -> tuple[str, ...]:
        """The axioms the certificate's ``axiom`` steps name, in order."""
        return tuple(a for s in self.certificate if s.op == "axiom"
                     for a in s.params["axioms"])

    @property
    def conclusive(self) -> bool:
        return self.kind in (NON_SPECIAL, EMPTY, MINUS_ONE_SPECIAL)

    @property
    def certifies_nonspecial(self) -> bool:
        """Empty systems are non-special with expected dimension -1."""
        return self.kind in (NON_SPECIAL, EMPTY)

    def prepend(self, steps: tuple[Step, ...]) -> "Verdict":
        if not steps:
            return self
        return Verdict(self.kind, self.dim, steps + self.certificate, self.reason)


# ---------------------------------------------------------------------
# dimensions


def vdim(L: LinearSystem) -> int:
    """Virtual dimension C(d+2,2) - sum C(mj+1,2) - 1.

    Negative multiplicities contribute through the same binomial
    m(m+1)/2, so -1 contributes 0 and -2 contributes +1.
    """
    d, ms = L.degree, L.mults
    # sum m(m+1) is even, as each term is, so halving the total is exact
    return (d + 2) * (d + 1) // 2 - (sum(map(mul, ms, ms)) + sum(ms)) // 2 - 1


def edim(L: LinearSystem) -> int:
    """Expected dimension max(vdim, -1)."""
    return max(vdim(L), -1)


# ---------------------------------------------------------------------
# Cremona transformation and standard form


def cremona(L: LinearSystem) -> LinearSystem:
    """Quadratic transformation based on the first three points.

    With k = d - (m1+m2+m3) returns L(d+k; m1+k, m2+k, m3+k, rest).
    Systems with fewer than three multiplicities are padded with zeros
    (a zero multiplicity is a vacuous condition).  Does not sort.
    """
    ms = L.mults if len(L.mults) >= 3 else L.mults + (0,) * (3 - len(L.mults))
    m1, m2, m3 = ms[0], ms[1], ms[2]
    k = L.degree - (m1 + m2 + m3)
    return _derived(L.degree + k, (m1 + k, m2 + k, m3 + k) + ms[3:])


def is_standard_form(L: LinearSystem) -> bool:
    """True iff d < 0, or mults are non-increasing with d >= m1+m2+m3."""
    if L.degree < 0:
        return True
    if list(L.mults) != sorted(L.mults, reverse=True):
        return False
    return L.degree >= sum(L.mults[:3])


def standard_form(L: LinearSystem) -> tuple[LinearSystem, tuple[LinearSystem, ...]]:
    """Repeatedly sort and apply Cremona until standard form is reached.

    Returns the standard form together with the full chain of systems
    visited (starting at the input, ending at the result).  Terminates
    because each applied Cremona strictly decreases the degree.
    """
    chain = [L]
    cur = L
    while True:
        ms = tuple(sorted(cur.mults, reverse=True))
        if ms != cur.mults:
            cur = _derived(cur.degree, ms)
            chain.append(cur)
        d = cur.degree
        if d < 0 or d >= (ms[0] + ms[1] + ms[2] if len(ms) > 2 else sum(ms)):
            break
        cur = cremona(cur)
        chain.append(cur)
    return cur, tuple(chain)


def record_standard_form(L: LinearSystem, steps: list[Step]) -> LinearSystem:
    """The standard form of L; a chain of two or more systems is appended
    to `steps` as one ``standard_form`` step."""
    std, chain = standard_form(L)
    if len(chain) > 1:
        steps.append(Step("standard_form", {"chain": chain}, before=L, after=std))
    return std


# ---------------------------------------------------------------------
# negative multiplicity rules


def strip_negative_mults(L: LinearSystem) -> tuple[LinearSystem, tuple[int, ...]]:
    """Zero out negative multiplicities of a sorted system with d >= 0.

    Entries equal to -1 are fixed components that change nothing
    numerically; entries <= -2 are multiple fixed components, returned
    as k = -m: the exceptional divisor lies k times in the fixed part of
    the system.  The identity
    ``vdim L = vdim L' + sum (k - k^2)/2`` holds for the result L'.
    """
    if L.degree < 0:
        raise ValueError("strip_negative_mults needs degree >= 0")
    ms = L.mults
    if list(ms) != sorted(ms, reverse=True):
        raise ValueError("strip_negative_mults needs non-increasing multiplicities")
    n = len(ms)  # sorted, so the negative entries are the tail ms[n:]
    while n and ms[n - 1] < 0:
        n -= 1
    tail = ms[n:]
    comps = tuple([-m for m in tail if m <= -2])
    return _derived(L.degree, ms[:n] + (0,) * len(tail)), comps


# ---------------------------------------------------------------------
# axiom knowledge base


def classify_by_axioms(L: LinearSystem) -> Verdict | None:
    """Classify a standard-form, non-negative system by known results.

    The rules are tried in this order:

    * POINTS_LE_9: the system is based on at most 9 points;
    * MULT_LE_11: every multiplicity is at most 11;
    * SIMPLE_POINTS: at most 9 multiplicities are >= 2.  Dropping the
      simple points leaves a standard-form system on at most 9 points,
      which is non-special (POINTS_LE_9), and general simple points then
      impose independent conditions.

    A system one of them covers is non-special, hence empty precisely
    when its expected dimension is -1; otherwise the result is None.
    """
    ms = L.mults
    if L.degree < 0 or not is_standard_form(L) or (ms and ms[-1] < 0):
        raise ValueError(
            f"axioms apply only to standard-form systems with d >= 0 and "
            f"non-negative multiplicities, got {L}"
        )
    # ms is non-increasing and non-negative: ms[0] is the largest entry
    positive = len(ms) - ms.count(0)
    if positive <= 9:
        axioms: tuple[str, ...] = (POINTS_LE_9,)
    elif ms[0] <= 11:
        axioms = (MULT_LE_11,)
    elif positive - ms.count(1) <= 9:
        axioms = (SIMPLE_POINTS, POINTS_LE_9)
    else:
        return None
    e = edim(L)
    step = Step("axiom", {"axioms": axioms, "edim": e}, before=L)
    return Verdict.nonspecial(e, (step,))


# ---------------------------------------------------------------------
# glueing


class GlueError(ValueError):
    """Raised when a glue step violates one of its preconditions; the
    message starts with the precondition's name."""


def glue(
    L: LinearSystem,
    s: int,
    m: int,
    k: int,
    cert_small: Verdict,
) -> LinearSystem:
    """Replace s multiplicity-m points of L by one point of multiplicity k+1.

    Requires a non-specialty certificate for the small system L(k;m^s)
    and the virtual-dimension sandwich: with L2 the glued system, either
    -1 <= vdim L2 <= vdim L or vdim L <= vdim L2 <= -1.  The accepted
    step satisfies vdim L2 - vdim L = -(vdim L(k;m^s) + 1).
    """
    if not cert_small.certifies_nonspecial:
        raise GlueError(f"UNCERTIFIED: small system verdict is {cert_small.kind}")
    if L.count(m) < s:
        raise GlueError(f"MISSING_POINTS: {L} lacks {s} entries equal to {m}")
    removed = 0
    new: list[int] = []
    for x in reversed(L.mults):
        if x == m and removed < s:
            removed += 1
            continue
        new.append(x)
    new.reverse()
    L2 = LinearSystem(L.degree, tuple(new) + (k + 1,))
    v1, v2 = vdim(L), vdim(L2)
    if not (-1 <= v2 <= v1 or v1 <= v2 <= -1):
        raise GlueError(f"SANDWICH_VIOLATED: vdim {v1} -> {v2} fits neither ordering")
    small = LinearSystem(k, (m,) * s)
    if v2 - v1 != -(vdim(small) + 1):  # raised, not asserted: holds under -O
        raise AssertionError(f"glue broke vdim L2 - vdim L = -(vdim {small} + 1): "
                             f"vdim {v1} -> {v2}")
    return L2
