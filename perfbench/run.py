#!/usr/bin/env python3
"""Benchmark of fatpoints: three workloads driven through the public API.

Run from the root of a source checkout (the library is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload family --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every metric, by name and unit

One process runs one workload as a closed loop with one client.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the workload once untraced and once with every call into the library's
modules timed (see spans.py), and reports the per-layer metrics.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("family", "ledger", "classify_stream")
SETUP_PROBES = 16  # half before the timed window, half after it
STREAM_BLOCK = 10  # classify_stream calls per block
KEEP_SHARE = 0.02  # of blocks, the fastest, that p50 and calls/s rest on
KEEP_CALLS = 100  # fewest calls they rest on
TRACE_STREAM_CALLS = 2000  # fixed, so that traced counts repeat exactly
GOLDEN = HERE / "golden_classify_seed0.json"

# Results and traced counts of the program when this benchmark was defined.
FAMILY_LEVELS = [(3361, 1016, 1003), (16, 16, 15), (1, 1, 1)]
LEDGER_ENTRIES = 143
LEDGER_INSTANCES = 6796
LEDGER_SKIPPED = {("CREMONA_EVEN_GLUE_CREMONAS", 17), ("CREMONA_ODD_GLUE_CREMONAS", 16)}
PINNED = {
    "family": {"fplinalg.rank.calls": 2081, "fplinalg.build_matrix.calls": 2081,
               "fplinalg.certify.calls": 2053, "diagrams.reduce_m.calls": 6738},
    "ledger": {"fplinalg.rank.calls": 20, "fplinalg.certify.calls": 18,
               "systems.standard_form.calls": 17222, "systems.glue.calls": 3518,
               "systems.axioms.calls": 9664, "engine.classify.calls": 7409},
    "classify_stream": {"fplinalg.rank.calls": 0, "fplinalg.build_matrix.calls": 0},
}


# ---------------------------------------------------------------------
# set-up: what a fresh process does before the workload can start


def setup(workload: str):
    """Import the library and build the workload's config (and, for the
    ledger, its records); return the imported package."""
    import fatpoints

    if workload == "family":
        fatpoints.FamilySpec(7, 13, 5)
        fatpoints.PrimeFieldConfig()
    else:
        fatpoints.EngineConfig()
    if workload == "ledger":
        fatpoints.load_entries()
    return fatpoints


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it reports that
    set-up is done."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__)), "--probe", workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return dt


# ---------------------------------------------------------------------
# workloads: each returns (inputs, call, check).  `inputs` is an endless
# iterator of call arguments, drawn before the clock starts; `call(x)` is
# the timed operation; `check(i, x, out)` gives (attempted, failed) for
# the i-th call and runs after the clock has stopped.


def family(fp, seed: int):
    """Certify the smallest family the paper certifies, over and over."""
    def call(_):
        return fp.run_initial_cases(fp.FamilySpec(7, 13, 5), s=2, jobs=1)

    def check(i, _, rep):
        levels = [(lv.pending, lv.distinct_reduced, lv.certified_groups)
                  for lv in rep.levels]
        ok = rep.result == "OK" and rep.max_p_plus_1 == 9 and levels == FAMILY_LEVELS
        if not ok:
            print(f"family: result {rep.result}, max p+1 {rep.max_p_plus_1}, "
                  f"levels {levels}")
        return 1, int(not ok)

    return itertools.repeat(None), call, check


def ledger(fp, seed: int):
    """Replay the case ledger over its grid, over and over; the operation
    that passes or fails is one instance."""
    def call(_):
        return fp.run_ledger(m_max=20, k_max=40, r_max=16)

    def check(i, _, rep):
        skipped = {(s["entry"], s["m"]) for s in rep.skipped}
        failed = len(rep.failures) + abs(LEDGER_INSTANCES - rep.instantiations)
        if rep.entries != LEDGER_ENTRIES or skipped != LEDGER_SKIPPED:
            print(f"ledger: {rep.entries} entries, skipped {sorted(skipped)}")
            failed = max(failed, 1)
        for f in rep.failures[:5]:
            print(f"ledger failure: {f.system} {f.params} {f.note}")
        return LEDGER_INSTANCES, failed

    return itertools.repeat(None), call, check


def _vdim(d: int, mults) -> int:
    # The benchmark's own formula: inputs and checks never depend on the
    # program under test.
    return (d + 2) * (d + 1) // 2 - sum(m * (m + 1) // 2 for m in mults) - 1


def stream_systems(seed: int):
    """Endless inputs (text, degree, multiplicities) for systems
    L(d; m1,...,mr) generated from the seed.

    3-14 points with multiplicities in -2..11, degrees within a few steps
    of the expected-dimension boundary, and one system in four unbalanced:
    3-5 heavy points against a low degree, which takes a long Cremona
    chain to reach standard form.  With every multiplicity at most 11 no
    matrix is built: the axiom base settles the standard form.  Systems
    with a point of multiplicity above a degree of 10 or more are left out.
    """
    rng = random.Random(seed)
    weights = [3, 3, 6] + [8] * 11  # for -2, -1, 0, 1..11
    while True:
        r = rng.randint(3, 14)
        if rng.random() < 0.25:
            heavy = rng.randint(3, 5)
            mults = ([rng.randint(8, 11) for _ in range(heavy)]
                     + [rng.randint(-2, 3) for _ in range(r - heavy)])
            d = rng.randint(max(mults), sum(sorted(mults)[-3:]) - 1)
        else:
            mults = rng.choices(range(-2, 12), weights, k=r)
            d = 0
            while _vdim(d, mults) < -1:
                d += 1
            d = max(0, d + rng.randint(-2, 3))
        rng.shuffle(mults)
        del mults[r:]  # an unbalanced draw can hold more heavy points than r
        parts, i = [], 0
        while i < r:  # runs of equal entries, sometimes written m^count
            j = i
            while j < r and mults[j] == mults[i]:
                j += 1
            if j - i > 1 and rng.random() < 0.5:
                parts.append(f"{mults[i]}^{j - i}")
            else:
                parts.extend(map(str, mults[i:j]))
            i = j
        # Known defect, left out so that every call can pass: a point of
        # multiplicity above a degree of 10 or more makes classify peel off
        # one line per round, one round more than the default max_depth of
        # 10, and return Inconclusive (README.md, "Known failures").  The
        # draws above are made either way, so the stream is the unfiltered
        # one with these systems taken out.
        if d >= 10 and max(mults) > d:
            continue
        yield f"L({d};{','.join(parts)})", d, mults


def check_verdict(d: int, mults, v) -> bool:
    e = max(_vdim(d, mults), -1)
    if v.kind == "NonSpecial":
        return v.dim == e
    if v.kind == "Empty":
        return e == -1
    if v.kind == "MinusOneSpecial":  # special: non-empty above its edim
        return v.dim is not None and v.dim >= 0 and v.dim > e
    return False  # Inconclusive


def classify_stream(fp, seed: int):
    """Parse and classify the seed's text inputs one after another, with
    the library defaults."""
    golden = json.loads(GOLDEN.read_text())["verdicts"] if seed == 0 else []

    def call(x):
        return fp.classify(fp.parse_system(x[0]))

    def check(i, x, v):
        text, d, mults = x
        got = f"{v.kind} {v.dim}"
        ok = check_verdict(d, mults, v) and (i >= len(golden) or golden[i] == got)
        if not ok:
            print(f"classify_stream: {text} -> {got}"
                  + (f", golden {golden[i]}" if i < len(golden) else ""))
        return 1, int(not ok)

    return stream_systems(seed), call, check


MAKE = {"family": family, "ledger": ledger, "classify_stream": classify_stream}


def run_calls(fp, workload: str, seed: int, blocks):
    """Yield, per block of the given sizes, the calls' latencies and
    outputs with the totals of their checks.  Inputs are drawn and outputs
    checked outside the timed calls."""
    inputs, call, check = MAKE[workload](fp, seed)
    i = 0
    for size in blocks:
        xs = list(itertools.islice(inputs, size))
        lat, outs = [], []
        for x in xs:
            t0 = time.perf_counter()
            outs.append(call(x))
            lat.append(time.perf_counter() - t0)
        attempted = failed = 0
        for x, out in zip(xs, outs):
            a, f = check(i, x, out)
            attempted, failed, i = attempted + a, failed + f, i + 1
        yield lat, outs, attempted, failed


# ---------------------------------------------------------------------
# untraced and traced runs


def run_untraced(fp, workload: str, seed: int, seconds: float) -> dict:
    """Run whole blocks of calls for about `seconds`; a block is
    STREAM_BLOCK calls on classify_stream and one call elsewhere.

    On a shared 2-vCPU host the CPU alternates, often within a second,
    between a fast state and one about 50 % slower, and a run's share of
    slow time varies widely (README.md gives the measurements).
    So p50 and calls/s rest on the KEEP_SHARE of blocks with the lowest
    median latency (at least KEEP_CALLS calls, so every call on family
    and ledger): even runs spent mostly in the slow state have that much
    fast time.  A 10-call block lasts some 40 ms, within one host state,
    so p99 is that p50 times the 99th percentile, over every call of the
    run, of a call's latency over its block's median: the tail at the
    fast speed, from thousands of calls.  Set-up is the median of
    SETUP_PROBES probes, half made before the window and half after it;
    the fastest probe would hinge on whether the host had a fast moment,
    and drifts more between runs.
    """
    size = STREAM_BLOCK if workload == "classify_stream" else 1
    probes = [probe_setup(workload) for _ in range(SETUP_PROBES // 2)]
    blocks, attempted, failed = [], 0, 0  # blocks: latencies per block
    start = time.perf_counter()
    for lat, _outs, a, f in run_calls(fp, workload, seed, itertools.repeat(size)):
        blocks.append(lat)
        attempted += a
        failed += f
        # stop before a block that would end past the window
        if time.perf_counter() - start + statistics.median(map(sum, blocks)) > seconds:
            break
    window_s = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes += [probe_setup(workload) for _ in range(SETUP_PROBES - len(probes))]
    ranked = sorted(blocks, key=statistics.median)
    n_keep = max(int(len(ranked) * KEEP_SHARE), -(-KEEP_CALLS // size))
    fast = [x for block in ranked[:n_keep] for x in block]
    p50 = statistics.median(fast)
    ratios = [x / statistics.median(block) for block in blocks for x in block]
    # ten calls lie beyond it once 1,000 calls are made
    r99 = statistics.quantiles(ratios, n=100)[98] if len(ratios) >= 100 else max(ratios)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "call_p50_ms": (p50 * 1e3, "ms"),
        "call_p99_ms": (p50 * r99 * 1e3, "ms"),
        "calls_per_s": (len(fast) / sum(fast), "1/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    print(f"{workload}: {sum(map(len, blocks))} calls in {len(blocks)} blocks, "
          f"{window_s:.3f} s; p50 and calls/s from {len(fast)} calls in {n_keep} "
          f"blocks; set-up probes {min(probes):.4f}-{max(probes):.4f} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "problems": []}


def _once(fp, workload: str, seed: int):
    """One fixed unit of work: (outputs to compare, last output, attempted, failed)."""
    n = TRACE_STREAM_CALLS if workload == "classify_stream" else 1
    _lat, outs, attempted, failed = next(run_calls(fp, workload, seed, [n]))
    if workload == "family":
        keys = [rep.to_json() for rep in outs]
    elif workload == "ledger":
        keys = [json.dumps(rep.to_dict(), sort_keys=True) for rep in outs]
    else:
        keys = [repr(v) for v in outs]
    return keys, outs[-1], attempted, failed


def run_traced(fp, workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    plain_out, _, a1, f1 = _once(fp, workload, seed)
    untraced_s = time.perf_counter() - t0
    rec = spans.Recorder()
    with spans.instrument(rec):
        t0 = time.perf_counter()
        traced_out, report, a2, f2 = _once(fp, workload, seed)
        traced_s = time.perf_counter() - t0
    problems = []
    if traced_out != plain_out:
        problems.append("traced and untraced runs returned different outputs")
    metrics = layer_metrics(rec, workload, report)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name, want in PINNED[workload].items():
        got = metrics[name][0]
        if got != want:
            problems.append(f"pinned count {name}: {got}, expected {want}")
    print(f"{workload}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"tracing overhead {traced_s - untraced_s:+.3f} s")
    return {"attempted": a1 + a2, "failed": f1 + f2, "metrics": metrics,
            "problems": problems}


def layer_metrics(rec, workload: str, report) -> dict:
    s = 1e-9
    c = rec.counts

    def calls(name):
        return rec.calls[name]

    rank_self = rec.self_ns["fplinalg.rank"] * s
    attempts = c["fplinalg.certify.attempts"]
    m = {
        "fplinalg.rank.calls": (calls("fplinalg.rank"), "count"),
        "fplinalg.rank.self_s": (rank_self, "s"),
        "fplinalg.rank.self_s.cols_lt_200": (c["fplinalg.rank.self_ns.cols_lt_200"] * s, "s"),
        "fplinalg.rank.self_s.cols_ge_400": (c["fplinalg.rank.self_ns.cols_ge_400"] * s, "s"),
        "fplinalg.rank.ops_computed": (c["fplinalg.rank.ops_computed"], "count"),
        "fplinalg.rank.ops_per_s": (
            c["fplinalg.rank.ops_computed"] / rank_self if rank_self else 0.0, "1/s"),
        "fplinalg.build_matrix.entries": (c["fplinalg.build_matrix.entries"], "count"),
        "fplinalg.certify.attempts": (attempts, "count"),
        "fplinalg.certify.success_ratio": (
            c["fplinalg.certify.successes"] / attempts if attempts else 0.0, "ratio"),
        "systems.cremona_steps": (calls("systems.cremona"), "count"),
        "systems.axioms.hits": (c["systems.axioms.hits"], "count"),
        "diagrams.enlarge.hits": (c["diagrams.enlarge.hits"], "count"),
        "initial_cases.tails.self_s": (rec.self_ns["initial_cases.tails"] * s, "s"),
        "ledger.direct_rank.total_s": (rec.total_ns["ledger.direct_rank"] * s, "s"),
        "ledger.fallback_direct": (c["ledger.fallback_direct"], "count"),
        "ledger.glue_steps": (c["ledger.glue_steps"], "count"),
    }
    for name in ("fplinalg.build_matrix", "fplinalg.certify", "fplinalg.config",
                 "systems.standard_form", "systems.axioms", "systems.glue",
                 "systems.strip_negative", "engine.classify", "textio.parse_system",
                 "diagrams.reduce_m", "diagrams.reduce_chain", "diagrams.enlarge",
                 "initial_cases.certify_group", "ledger.execute_method"):
        m[name + ".calls"] = (calls(name), "count")
        if name not in ("systems.strip_negative", "diagrams.enlarge"):
            m[name + ".self_s"] = (rec.self_ns[name] * s, "s")
    for op in spans.DECIDED_BY:
        m["engine.decided_by." + op] = (c["engine.decided_by." + op], "count")
    levels = {lv.level: lv for lv in report.levels} if workload == "family" else {}
    for n in (2, 1, 0):
        m[f"initial_cases.groups.level{n}"] = (
            levels[n].distinct_reduced if n in levels else 0, "count")
    top = levels.get(2)
    m["initial_cases.dedup_ratio"] = (
        top.pending / top.distinct_reduced if top else 0.0, "ratio")
    m["ledger.instances"] = (report.instantiations if workload == "ledger" else 0, "count")
    return m


# ---------------------------------------------------------------------
# environment record (kept out of the metrics)


def environment() -> dict:
    import numpy

    import fatpoints._gauss

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():  # a checkout without git history has no sha
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba": fatpoints._gauss.HAVE_NUMBA,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------
# command line


def run_all(seed: int, seconds: int) -> int:
    """Run every workload untraced and traced, each in a fresh process,
    and print every metric by name and unit."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                print("   " + line)
            for name, mv in result["metrics"].items():
                print(f"   {name:<40} {mv['value']:>18.6g} {mv['unit']}")
            status |= not result["correct"]
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "fatpoints" / "__init__.py").is_file():
        print(f"fatpoints sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        setup(args.probe)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    fp = setup(args.workload)
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        out = run_traced(fp, args.workload, args.seed)
    else:
        out = run_untraced(fp, args.workload, args.seed, args.seconds)
    for p in out["problems"]:
        print("check failed: " + p)
    print(f"ops_failed_share {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']})")
    print(json.dumps({
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
