"""Command-line interface."""
from __future__ import annotations

import inspect
import json as jsonlib
import sys
from math import comb

import click

from . import __version__
from .diagrams import ReductionTrace, triangle
from .engine import DEFAULT_CONFIG, EngineConfig, classify
from .fplinalg import PrimeFieldConfig, interpolation_rank, sample_points, task_rng
from .initial_cases import FamilySpec, run_initial_cases
from .ledger import run_ledger
from .systems import INCONCLUSIVE, LinearSystem, Verdict, edim, standard_form, vdim
from .textio import ParseError, parse_diagram, parse_mults, parse_system


def _parse(parse, text: str):
    """Run a textio parser; a ParseError becomes a usage error that names
    its position."""
    try:
        return parse(text)
    except ParseError as e:
        raise click.UsageError(str(e)) from None


def _default(fn, name: str):
    """The library default of ``fn``'s keyword ``name``, so that an option
    does not repeat it."""
    return inspect.signature(fn).parameters[name].default


def _field(**kwargs) -> PrimeFieldConfig:
    """PrimeFieldConfig from command options; a bad --prime or --attempts
    becomes a usage error."""
    try:
        return PrimeFieldConfig(**kwargs)
    except ValueError as e:
        raise click.UsageError(str(e)) from None


def _verdict_dict(v: Verdict) -> dict:
    return {
        "kind": v.kind,
        "dim": v.dim,
        "axioms_used": list(v.axioms_used),
        "reason": v.reason,
        "steps": [s.to_dict() for s in v.certificate],
    }


def _emit(ctx: click.Context, payload: dict, text: str) -> None:
    if ctx.obj["json"]:
        click.echo(jsonlib.dumps(payload, sort_keys=True))
    else:
        click.echo(text)


@click.group()
@click.option("--json", "as_json", is_flag=True, help="Emit JSON reports.")
@click.version_option(__version__)
@click.pass_context
def main(ctx: click.Context, as_json: bool) -> None:
    """Certify non-specialty, emptiness or -1-specialty of linear systems
    of plane curves with fat base points."""
    ctx.obj = {"json": as_json}


@main.command("vdim")
@click.argument("system")
@click.pass_context
def vdim_cmd(ctx: click.Context, system: str) -> None:
    """Virtual dimension of SYSTEM."""
    L = _parse(parse_system, system)
    _emit(ctx, {"input": str(L.canonical()), "vdim": vdim(L)}, str(vdim(L)))


@main.command("edim")
@click.argument("system")
@click.pass_context
def edim_cmd(ctx: click.Context, system: str) -> None:
    """Expected dimension of SYSTEM."""
    L = _parse(parse_system, system)
    _emit(ctx, {"input": str(L.canonical()), "edim": edim(L)}, str(edim(L)))


@main.command("crst")
@click.argument("system")
@click.pass_context
def crst_cmd(ctx: click.Context, system: str) -> None:
    """Standard form of SYSTEM with the full Cremona chain."""
    L = _parse(parse_system, system)
    result, chain = standard_form(L)
    payload = {
        "input": str(L.canonical()),
        "standard_form": str(result),
        "chain": [str(s) for s in chain],
    }
    _emit(ctx, payload, "\n".join(str(s) for s in chain))


@main.command("classify")
@click.argument("system")
@click.option("--prime", default=PrimeFieldConfig.p, show_default=True)
@click.option("--seed", default=PrimeFieldConfig.seed, show_default=True)
@click.option("--attempts", default=PrimeFieldConfig.attempts, show_default=True)
@click.option("--max-cols", default=EngineConfig.max_cols, show_default=True)
@click.option("--stages", "stages_text", default=None,
              help="Comma-separated stage subset, e.g. standard_form,rank.")
@click.pass_context
def classify_cmd(ctx: click.Context, system: str, prime: int, seed: int,
                 attempts: int, max_cols: int,
                 stages_text: str | None) -> None:
    """Classify SYSTEM as NonSpecial / Empty / MinusOneSpecial."""
    stages = tuple(stages_text.split(",")) if stages_text else DEFAULT_CONFIG.stages
    try:
        cfg = EngineConfig(field_cfg=_field(p=prime, seed=seed, attempts=attempts),
                           max_cols=max_cols, stages=stages)
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    L = _parse(parse_system, system)
    canonical = str(L.canonical())
    v = classify(L, cfg)
    payload = {
        "input": canonical,
        "verdict": _verdict_dict(v),
        "prime": prime,
        "seed": seed,
        "attempts": attempts,
        "version": __version__,
    }
    methods = " -> ".join(s.op for s in v.certificate)
    text = (
        f"{canonical}: {v.kind}"
        + (f", dim {v.dim}" if v.dim is not None else "")
        + (f" ({v.reason})" if v.reason else "")
        + (f" [via {methods}]" if methods else "")
    )
    _emit(ctx, payload, text)
    if v.kind == INCONCLUSIVE:
        sys.exit(2)


def _trace_text(trace: ReductionTrace) -> str:
    lines = [f"{'diagram':<40} {'cells':>6}  v"]
    lines.append(f"{str(trace.initial):<40} "
                 f"{trace.initial.cells:>6}")
    for step in trace.steps:
        v = "(" + ",".join(str(x) for x in step.v) + ")"
        lines.append(f"{str(step.result):<40} {step.result.cells:>6}  {v}")
    if trace.consumed_all:
        lines.append(f"all conditions consumed; dim V = {trace.final.cells}")
    else:
        lines.append(
            "stuck; residual multiplicities "
            + ",".join(str(m) for m in trace.residual_mults)
        )
    return "\n".join(lines)


@main.command("reduce")
@click.option("--diagram", "diagram_text", required=True)
@click.option("--mults", "mults_text", required=True)
@click.pass_context
def reduce_cmd(ctx: click.Context, diagram_text: str, mults_text: str) -> None:
    """Run the reduction chain on a diagram."""
    from .diagrams import reduce_chain

    D = _parse(parse_diagram, diagram_text)
    mults = _parse(parse_mults, mults_text)
    if any(m < 0 for m in mults):
        raise click.UsageError("reduce needs mults >= 0")
    trace = reduce_chain(D, mults)
    payload = {
        "diagram": str(D),
        "mults": list(mults),
        "steps": [
            {"m": s.m, "v": list(s.v), "result": str(s.result),
             "cells": s.result.cells}
            for s in trace.steps
        ],
        "final": str(trace.final),
        "final_cells": trace.final.cells,
        "consumed_all": trace.consumed_all,
        "residual_mults": list(trace.residual_mults),
    }
    _emit(ctx, payload, _trace_text(trace))


@main.command("rank")
@click.argument("system", required=False)
@click.option("--diagram", "diagram_text", default=None)
@click.option("--mults", "mults_text", default=None)
@click.option("--prime", default=PrimeFieldConfig.p, show_default=True)
@click.option("--seed", default=PrimeFieldConfig.seed, show_default=True)
@click.pass_context
def rank_cmd(ctx: click.Context, system: str | None, diagram_text: str | None,
             mults_text: str | None, prime: int, seed: int) -> None:
    """Interpolation-matrix rank for SYSTEM or for --diagram/--mults."""
    if system is not None and (diagram_text is not None or mults_text is not None):
        raise click.UsageError("give SYSTEM or --diagram/--mults, not both")
    if system is not None:
        L = _parse(parse_system, system)
        mults = L.mults
    elif diagram_text is not None and mults_text is not None:
        D = _parse(parse_diagram, diagram_text)
        mults = _parse(parse_mults, mults_text)
    else:
        raise click.UsageError("give SYSTEM or both --diagram and --mults")
    if any(m < 0 for m in mults) or (system and L.degree < 0):
        raise click.UsageError("rank needs d >= 0 and mults >= 0")
    mults = tuple(m for m in mults if m > 0)  # a zero imposes no condition
    # the engine's column cap bounds both sides, checked before the
    # diagram or the matrix is built
    cols = comb(L.degree + 2, 2) if system else D.cells
    rows = sum(comb(m + 1, 2) for m in mults)
    cap = DEFAULT_CONFIG.max_cols
    if max(rows, cols) > cap:
        raise click.UsageError(f"rank matrix would be {rows}x{cols}; "
                               f"rows and columns are capped at {cap}")
    if system:
        D, label = triangle(L.degree + 1), str(L.canonical())
    else:
        label = f"{D}; {','.join(str(m) for m in mults)}"
    cfg = _field(p=prime, seed=seed)
    rng = task_rng(cfg, f"{D}|{','.join(str(m) for m in mults)}|cli")
    points = sample_points(len(mults), prime, rng)
    rk = interpolation_rank(D, mults, points, prime)
    full = rk == min(rows, cols)
    dim = cols - rk
    payload = {
        "input": label, "rows": int(rows), "cols": int(cols), "rank": int(rk),
        "dim": int(dim), "full_rank": bool(full), "prime": prime, "seed": seed,
    }
    text = (f"{label}: matrix {rows}x{cols}, rank {rk}, dim V >= claim {dim}"
            f"{' (full rank: non-special)' if full else ''}")
    _emit(ctx, payload, text)


@main.command("initial-cases")
@click.option("--m", "m_", type=int, required=True)
@click.option("--a", "a_", type=int, required=True)
@click.option("--k", "k_", type=int, required=True)
@click.option("--s", "s_", type=click.IntRange(min=0),
              default=_default(run_initial_cases, "s"), show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes; at most the number of available CPUs run.")
@click.option("--enumeration-only", is_flag=True,
              help="Only count and report sizes; no matrices.")
@click.option("--prime", default=PrimeFieldConfig.p, show_default=True)
@click.option("--seed", default=PrimeFieldConfig.seed, show_default=True)
@click.pass_context
def initial_cases_cmd(ctx: click.Context, m_: int, a_: int, k_: int, s_: int,
                      jobs: int, enumeration_only: bool, prime: int,
                      seed: int) -> None:
    """Certify the family (m, a, k) of staircase diagrams."""
    try:
        spec = FamilySpec(m_, a_, k_)
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    cfg = _field(p=prime, seed=seed)
    report = run_initial_cases(spec, s=s_, jobs=jobs, cfg=cfg,
                               enumeration_only=enumeration_only)
    if ctx.obj["json"]:
        click.echo(report.to_json())
    else:
        click.echo(report.to_text())
    if report.result != "OK":
        sys.exit(1)


@main.group("ledger")
def ledger_group() -> None:
    """Operations on the separately-handled case ledger."""


@ledger_group.command("verify")
@click.option("--entry", "entry_id", default=None,
              help="Verify only records with this id.")
@click.option("--m-max", default=_default(run_ledger, "m_max"), show_default=True)
@click.option("--k-max", default=_default(run_ledger, "k_max"), show_default=True)
@click.option("--r-max", default=_default(run_ledger, "r_max"), show_default=True)
@click.option("--prime", default=PrimeFieldConfig.p, show_default=True)
@click.option("--seed", default=PrimeFieldConfig.seed, show_default=True)
@click.pass_context
def ledger_verify_cmd(ctx: click.Context, entry_id: str | None, m_max: int,
                      k_max: int, r_max: int, prime: int, seed: int) -> None:
    """Replay and verify every ledger record over the given ranges."""
    cfg = EngineConfig(field_cfg=_field(p=prime, seed=seed))
    try:
        report = run_ledger(m_max=m_max, k_max=k_max, r_max=r_max, cfg=cfg,
                            entry_id=entry_id)
    except ValueError as e:
        raise click.UsageError(str(e)) from None
    if ctx.obj["json"]:
        click.echo(jsonlib.dumps(report.to_dict(), sort_keys=True))
    else:
        click.echo(
            f"ledger: {report.entries} entries, "
            f"{report.instantiations} instantiations, "
            f"{len(report.failures)} failures, "
            f"{len(report.skipped)} skipped"
        )
        for sk in report.skipped:
            click.echo(f"  skipped: {sk}")
        for f in report.failures:
            click.echo(f"  FAIL {f.system} {f.params}: {f.note}")
    if report.failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
