"""Layered benchmark of pathevac: solve, certify, validate and the oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

One process, one thread, a closed loop: each op starts after the previous
one returned. The run sets up the workload's input pool from the seed, then
measures rounds for --seconds seconds (and at least one round per case),
checks every output, and prints a report. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
A run that fails a check still prints that line and exits with code 1.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 5
# The calibration loop's time at full speed on the machine the bounds were
# tuned on (2 shared vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11).
# Timings are reported in seconds at that speed; see "Machine speed" in
# README.md.
CAL_REF_S = 0.00045
CAL_REPS = 3        # calibration samples per reading
CAL_EVERY_S = 0.02  # an op starting later than this after a reading takes
                    # a fresh one; an op longer than this takes one after


def _calibration_loop() -> None:
    """Fixed interpreter work (dict, tuple, list and int operations) that
    slows down with the machine, and with nothing in pathevac."""
    counts: dict = {}
    pairs = []
    for i in range(3000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        pairs.append((k, i))


def _calibrate() -> float:
    """The machine's speed right now, as the calibration loop's time."""
    best = float("inf")
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _scaled(rounds, scale: bool = True) -> list:
    """(case, [(kind, seconds)]) per round, each op's seconds scaled to the
    reference speed by the calibration read just before it (or unscaled)."""
    return [(case, [(kind, s * CAL_REF_S / cal if scale else s)
                    for kind, s, cal in records])
            for case, records in rounds]


def _per_case_median(rounds, select) -> dict:
    """Each case's median value over its rounds.

    `select(records)` gives one round's values, which are averaged. Keying
    by case keeps every case at equal weight however often it was visited.
    """
    values = defaultdict(list)
    for case, records in rounds:
        v = select(records)
        if v:
            values[case].append(sum(v) / len(v))
    return {case: statistics.median(v) for case, v in values.items()}


def _median(values) -> float:
    """Median, or 0.0 when a run that failed left no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _round_s(rounds) -> dict:
    """Each case's median round, in timed seconds."""
    return _per_case_median(rounds, lambda recs: [sum(s for _k, s in recs)])


def _ops_per_s(rounds) -> float:
    """Ops per timed second over one pass of the pool, from each case's
    median round."""
    secs = _round_s(rounds)
    ops = {case: len(recs) for case, recs in rounds}
    total = sum(secs.values())
    return sum(ops[c] for c in secs) / total if total else 0.0


def _tail(samples: list[float]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    for q, need in ((99, 1000), (90, 100)):
        if len(samples) >= need:
            cut = statistics.quantiles(samples, n=100)[q - 1]
            return f", p{q} {cut:.6f}"
    return ""


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pathevac").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    import pathevac
    import workloads
    from pathevac import evac, instances, kernels, model, oracles, packing, \
        relax

    w = workloads.WORKLOADS[workload]
    if small:
        w = workloads.tiny(w)
    modules = {"evac": evac, "instances": instances, "kernels": kernels,
               "model": model, "oracles": oracles, "packing": packing,
               "relax": relax}
    tracer = tracing.Tracer()

    setup_times = []    # (seconds, calibration) per set-up
    for rep in range(SETUP_REPS):
        cal = _calibrate()
        start = time.perf_counter()
        if trace:
            with tracer.installed(modules), \
                    tracer.op_span(("setup", rep), "setup"):
                pool = workloads.make_pool(w, seed)
        else:
            pool = workloads.make_pool(w, seed)
        setup_times.append((import_s + time.perf_counter() - start, cal))
    gc.collect()
    gc.freeze()     # the pool lives all run; keep it out of the collector

    records: list[tuple[str, float, float]] = []
    attempted = 0
    traced_now = False
    i = 0               # index of the current round
    cal, cal_at = 0.0, float("-inf")

    def op(kind, fn, *args):
        nonlocal attempted, cal, cal_at
        attempted += 1
        if time.perf_counter() - cal_at > CAL_EVERY_S:
            cal = _calibrate()
            cal_at = time.perf_counter()
        start = time.perf_counter()
        if traced_now:
            with tracer.op_span((i, kind), "op." + kind):
                result = fn(*args)
        else:
            result = fn(*args)
        seconds = time.perf_counter() - start
        speed = cal
        if seconds > CAL_EVERY_S:     # a long op: read again, and use both
            cal = _calibrate()
            cal_at = time.perf_counter()
            speed = (speed + cal) / 2
        records.append((kind, seconds, speed))
        return result

    rounds = []         # (case, traced, [(kind, seconds, calibration)])
    first: list = [None] * len(pool)
    failures: list[str] = []
    budget_exceeded = 0
    start = time.perf_counter()
    while i < len(pool) or time.perf_counter() - start < seconds:
        k, p = i % len(pool), i // len(pool)
        # A traced run alternates traced and untraced rounds, each case
        # switching mode from one pass to the next, so both modes see the
        # same cases and the difference is the tracing overhead.
        traced_now = trace and (k + p) % 2 == 0
        gc.collect()    # every round starts from the same collector state
        records = []
        try:
            if traced_now:
                with tracer.installed(modules):
                    outcome = workloads.run_case(op, w, pool[k])
            else:
                outcome = workloads.run_case(op, w, pool[k])
        except Exception as exc:  # counted, reported, and the loop goes on
            if isinstance(exc, oracles.OracleBudgetExceeded):
                budget_exceeded += 1
            failures.append(f"case {k} round {i}: "
                            + traceback.format_exc(limit=4))
            outcome = None
        if p == 0:
            first[k] = outcome
        rounds.append((k, traced_now, records))
        i += 1

    gc.unfreeze()
    measured_s = time.perf_counter() - start

    outcomes = [o for o in first if o is not None]
    digest = hashlib.sha256()
    counts: Counter = Counter()
    for o in outcomes:
        for part in o.digest:
            digest.update(part.encode())
            digest.update(b"\0")
        counts.update(o.counts)
    failed = len(failures)

    if trace:
        rows, top = _layer_rows(tracer, rounds, counts, budget_exceeded)
    else:
        rows, top = _end_to_end_rows(workloads.OP_KINDS, rounds, outcomes,
                                     setup_times, import_s), {}
    env = {
        "workload": w.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "small": small,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": kernels.backend(), "nproc": os.cpu_count(),
        "commit": _git_commit(), "source_digest": _source_digest(),
        "pathevac": pathevac.__version__,
        "params": {"pool": w.pool, "corrupt": w.corrupt, "exact": w.exact,
                   "paths": [vars(p) for p in w.paths],
                   "probe": vars(w.probe), "probes": w.probes},
        "rounds": len(rounds), "passes": len(rounds) / len(pool),
        "calibration_s": {
            "reference": CAL_REF_S,
            "median": _median(c for _k, _t, recs in rounds
                              for _kd, _s, c in recs)},
        "measured_s": measured_s,
        "ops": dict(Counter(kd for _k, _t, recs in rounds
                            for kd, _s, _c in recs)),
    }
    return {
        "env": env,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _note in rows},
        },
        "notes": {name: note for name, _v, _u, note in rows},
        "top_self_time": top,
        "digest": digest.hexdigest()[:16],
        "failed_share": failed / attempted if attempted else 0.0,
        "failures": failures,
        # unscaled samples, for re-analysis of the run
        "rounds": rounds,
        "spans": tracer.spans,
    }


def _end_to_end_rows(op_kinds, rounds, outcomes, setup_times,
                     import_s) -> list:
    """(name, value, unit, note) of every end-to-end metric."""
    untraced = [(k, recs) for k, traced, recs in rounds if not traced]
    plain = _scaled(untraced)
    plain_raw = _scaled(untraced, scale=False)
    rows = []
    for kind in op_kinds:
        def select(recs, kd=kind):
            return [s for x, s in recs if x == kd]
        by_case = _per_case_median(plain, select)
        raw = _median(_per_case_median(plain_raw, select).values())
        samples = [s for _k, recs in plain for s in select(recs)]
        rows.append((f"{kind}_s", _median(by_case.values()), "s",
                     f"median over {len(by_case)} cases of the median "
                     f"visit, n={len(samples)} ops{_tail(samples)}; "
                     f"unscaled {raw:.6f} s"))
    rows.append(("ops_per_s", _ops_per_s(plain), "1/s",
                 f"{sum(len(r) for _k, r in plain)} ops in {len(plain)} "
                 f"rounds; unscaled {_ops_per_s(plain_raw):.3f}/s"))
    gaps = [g for o in outcomes for g in o.gaps]
    ratios = [r for o in outcomes for r in o.ratios]
    rows.append(("gap_max", float(max(gaps, default=1)), "ratio",
                 f"greedy / reduced-tau bound, {len(gaps)} instances"))
    rows.append(("opt_ratio_max", float(max(ratios, default=1)), "ratio",
                 f"greedy / exact optimum, {len(ratios)} pairs"))
    rows.append(("setup_s", statistics.median(
        s * CAL_REF_S / c for s, c in setup_times), "s",
        f"imports {import_s:.6f} s + set-up, median of {SETUP_REPS}; "
        f"unscaled {statistics.median(s for s, _c in setup_times):.6f} s"))
    rows.append(("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                 "MB", "ru_maxrss of this process"))
    return rows


def _layer_rows(tracer, rounds, counts, budget_exceeded) \
        -> tuple[list, dict]:
    """(name, value, unit, note) of every per-layer metric, and the largest
    self times under each op kind."""
    per_round = defaultdict(Counter)    # round -> layer -> self seconds
    per_setup = defaultdict(Counter)    # set-up -> layer -> self seconds
    by_kind = defaultdict(Counter)      # op kind -> layer -> self seconds
    for name, opid, secs in tracer.self_times():
        if opid[0] == "setup":
            per_setup[opid[1]][name] += secs
        else:
            per_round[opid[0]][name] += secs
            by_kind[opid[1]][name] += secs
    rows = []
    for layer in tracing.LAYERS:
        unit, source = ("set-up", per_setup) \
            if layer.startswith("instances.") else ("round", per_round)
        rows.append((f"{layer}_s",
                     float(_median(c[layer] for c in source.values())),
                     "s", f"median self time per traced {unit}, "
                          f"{len(source)} samples"))
    for name in COUNT_METRICS:
        rows.append((name, counts[name], "count", "total over one pass"))
    rows.append(("oracles.budget_exceeded", budget_exceeded, "count",
                 "oracle calls over budget in the run"))
    # Same ops per case in both modes, so the drop in ops/s is
    # 1 - untraced seconds / traced seconds over the cases run both ways.
    modes = [_round_s(_scaled([(k, recs) for k, t, recs in rounds
                               if t == traced])) for traced in (False, True)]
    both = modes[0].keys() & modes[1].keys()
    untraced_s = sum(modes[0][c] for c in both)
    traced_s = sum(modes[1][c] for c in both)
    rows.append(("trace.overhead_share",
                 1 - untraced_s / traced_s if traced_s else 0.0, "share",
                 f"{len(both)} cases run both ways"))
    top = {kind: [[layer, secs] for layer, secs in c.most_common(4)]
           for kind, c in sorted(by_kind.items())}
    return rows, top


COUNT_METRICS = (
    "evac.moves", "evac.horizon", "evac.route_steps", "evac.horizon_x_moves",
    "packing.items", "packing.bins", "packing.steps", "packing.jumps",
    "relax.entries",
)


def _report(record: dict) -> None:
    env = record["env"]
    print(f"perfbench {env['workload']} seed={env['seed']} "
          f"trace={env['trace']}: {env['rounds']} rounds, "
          f"{env['passes']:.2f} passes in {env['measured_s']:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in record["result"]["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {metric['unit']:<6} "
              f"{record['notes'][name]}")
    for kind, top in record["top_self_time"].items():
        print(f"  self time under {kind}: " + ", ".join(
            f"{layer} {secs:.3f} s" for layer, secs in top))
    result = record["result"]
    print(f"digest {record['digest']}  failed_share "
          f"{record['failed_share']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for failure in record["failures"][:3]:
        print(failure.rstrip(), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathevac" / "__init__.py").is_file():
        print(f"perfbench: no pathevac sources at {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pathevac
    import_s = time.perf_counter() - start
    if Path(pathevac.__file__).resolve().parent != SRC / "pathevac":
        print(f"perfbench: imported pathevac from {pathevac.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s=import_s)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans")
    if args.trace:
        tracing.write_spans(spans, OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    _report(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
