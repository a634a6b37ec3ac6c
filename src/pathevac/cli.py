"""Command-line interface.

Subcommands: solve, validate, oracle, lowerbound, gen, bench, examples.
Exit codes: 0 success, 1 input or validation error, 2 unsupported instance,
3 oracle budget exceeded. '-' as a path means stdin/stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import evac, instances, oracles, relax
from .model import (InstanceError, _dumps, parse_instance,
                    parse_packing_instance, parse_schedule,
                    serialize_instance, serialize_packing_instance,
                    serialize_schedule, write_schedule)
from .packing import packing_objective, solve_greedy


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    report = evac.solve_report(inst)
    # a file is written before the report, so a path that cannot be
    # written leaves nothing on stdout
    if args.output not in (None, "-"):
        with open(args.output, "w", encoding="utf-8") as fh:
            write_schedule(report.schedule, fh)
    print(f"objective {report.objective}")
    for side, packing, pinst, red in (
            ("left", report.left_packing, report.left_instance,
             report.left_reduction),
            ("right", report.right_packing, report.right_instance,
             report.right_reduction)):
        if not pinst.ids:
            print(f"{side}: empty")
            continue
        obj = packing_objective(packing, pinst)
        print(f"{side}: {len(pinst.ids)} groups in {max(packing.bins)} "
              f"bins, packing objective {obj}, delay cost {red.delay_cost}")
    if args.trace:
        for side, trace in (("left", report.left_trace),
                            ("right", report.right_trace)):
            if trace.instance.ids:
                print(f"--- {side} greedy trace")
                print(trace.render())
    if args.output == "-":
        write_schedule(report.schedule, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    inst = parse_instance(_read(args.instance))
    sched = parse_schedule(_read(args.schedule))
    trace, violations = evac.check_schedule(inst, sched)
    if violations:
        for v in violations:
            print(v)
        return 1
    objective = evac.schedule_objective(trace, inst)
    print(f"ok objective {objective}")
    if args.trace:
        print(evac.render_table(inst, sched))
    return 0


def _cmd_oracle(args) -> int:
    if args.instance is not None:
        if args.fractional:
            raise InstanceError(["oracle: --fractional needs --packing"])
        inst = parse_instance(_read(args.instance))
        opt, schedule = oracles.exact_dwsf_opt(inst)
        doc = {"opt": opt,
               "witness": json.loads(serialize_schedule(schedule))}
    elif args.fractional:
        pinst = parse_packing_instance(_read(args.packing))
        value = oracles.exact_fractional_opt_mcf(pinst)
        doc = {"opt": str(value), "witness": None}
    else:
        pinst = parse_packing_instance(_read(args.packing))
        opt, packing = oracles.exact_packing_opt(pinst)
        # the one writer of the packing document: bins 1 to the last one,
        # empty bins included
        bins = packing.bins
        doc = {"opt": opt, "witness": {
            "bins": [list(bins.get(j, ()))
                     for j in range(1, max(bins, default=0) + 1)],
            "objective": opt}}
    _write(args.output, _dumps(doc))
    return 0


def _cmd_lowerbound(args) -> int:
    if args.instance is not None:
        value = evac.fractional_lower_bound(parse_instance(
            _read(args.instance)), args.reduced_tau)
    else:
        value = relax.fractional_bound(parse_packing_instance(
            _read(args.packing)), args.reduced_tau)
    _write(args.output, _dumps({"fractional_lb": str(value),
                                "reduced_tau": args.reduced_tau}))
    return 0


def _parse_partition(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InstanceError([f"partition: {exc}"]) from exc


def _pack_params(args) -> instances.PackParams:
    return instances.PackParams(
        items=args.items, capacity=args.capacity, max_size=args.max_size,
        max_weight=args.max_weight, max_ready=args.max_ready)


def _gen_params(args, **extra) -> instances.GenParams:
    return instances.GenParams(
        nodes=args.nodes, groups=args.groups, capacity=args.capacity,
        max_size=args.max_size, max_weight=args.max_weight,
        max_distance=args.max_distance, **extra)


def _cmd_gen(args) -> int:
    if args.partition is not None:
        if args.packing:
            raise InstanceError(["gen: --packing does not apply to --partition"])
        inst = instances.gen_from_partition(_parse_partition(args.partition))
        _write(args.output, serialize_instance(inst))
        return 0
    if args.seed is None:
        raise InstanceError(["gen: --seed is required without --partition"])
    if args.packing:
        pinst = instances.gen_random_packing(args.seed, _pack_params(args))
        _write(args.output, serialize_packing_instance(pinst))
        return 0
    inst = instances.gen_random(args.seed, _gen_params(
        args, facility=args.facility,
        allow_at_facility=not args.no_at_facility))
    _write(args.output, serialize_instance(inst))
    return 0


def _bench_packing(seed: int, args):
    """Item count and greedy, bound and oracle calls of a packing row."""
    pinst = instances.gen_random_packing(seed, _pack_params(args))
    return (len(pinst.ids),
            lambda: packing_objective(solve_greedy(pinst)[0], pinst),
            lambda: relax.fractional_bound(pinst),
            lambda: oracles.exact_packing_opt(pinst)[0])


def _bench_evac(seed: int, args):
    """Group count and greedy, bound and oracle calls of an evac row."""
    inst = instances.gen_random(seed, _gen_params(args))
    return (len(inst.ids),
            lambda: evac.solve_report(inst).objective,
            lambda: evac.fractional_lower_bound(inst),
            lambda: oracles.exact_dwsf_opt(inst)[0])


def _bench_row(seed: int, args) -> dict:
    make = _bench_packing if args.problem == "packing" else _bench_evac
    m, greedy_of, bound_of, opt_of = make(seed, args)
    start = time.perf_counter()
    greedy = greedy_of()
    lb = bound_of()
    row = {"seed": seed, "m": m, "greedy": greedy,
           "fractional_lb": str(lb),
           "opt": "", "ratio_vs_opt": "",
           "ratio_vs_lb": f"{float(greedy / lb):.6f}" if lb else "",
           "wall_time_s": 0.0}
    if args.with_oracle:
        try:
            opt = opt_of()
            row["opt"] = opt
            row["ratio_vs_opt"] = f"{greedy / opt:.6f}" if opt else ""
        except oracles.OracleBudgetExceeded:
            row["opt"] = "budget_exceeded"
    row["wall_time_s"] = round(time.perf_counter() - start, 6)
    return row


_BENCH_COLUMNS = ["seed", "m", "greedy", "fractional_lb", "opt",
                  "ratio_vs_opt", "ratio_vs_lb", "wall_time_s"]


def _cmd_bench(args) -> int:
    if args.count < 0:
        raise InstanceError([f"count must be >= 0, got {args.count}"])
    seeds = list(range(args.seed_start, args.seed_start + args.count))
    rows = [_bench_row(s, args) for s in seeds]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    ratios_opt = [float(r["ratio_vs_opt"]) for r in rows if r["ratio_vs_opt"]]
    ratios_lb = [float(r["ratio_vs_lb"]) for r in rows if r["ratio_vs_lb"]]
    writer.writerow({
        "seed": "max", "m": "", "greedy": "", "fractional_lb": "",
        "opt": "",
        "ratio_vs_opt": f"{max(ratios_opt):.6f}" if ratios_opt else "",
        "ratio_vs_lb": f"{max(ratios_lb):.6f}" if ratios_lb else "",
        "wall_time_s": round(sum(r["wall_time_s"] for r in rows), 6)})
    _write(args.output, buf.getvalue())
    return 0


def _cmd_examples(args) -> int:
    fixtures = instances.bundled_examples()
    if args.name is None:
        for name, fx in sorted(fixtures.items()):
            print(f"{name}: {fx.description}")
        return 0
    fx = fixtures.get(args.name)
    if fx is None:
        raise InstanceError([f"examples: unknown name {args.name!r}; "
                             f"available: {', '.join(sorted(fixtures))}"])
    if args.what == "instance":
        _write(args.output, serialize_instance(fx.instance))
    elif args.what == "schedule":
        _write(args.output, serialize_schedule(fx.schedule))
    else:
        _write(args.output, _dumps({
            "name": fx.name,
            "description": fx.description,
            "objective": fx.objective,
            "arrivals": fx.arrival_times,
        }))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_shape_flags(p: argparse.ArgumentParser, capacity: int) -> None:
    """The instance-shape flags shared by `gen` and `bench`."""
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--items", type=int, default=8)
    p.add_argument("--capacity", type=int, default=capacity)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-weight", type=int, default=9)
    p.add_argument("--max-distance", type=int, default=2)
    p.add_argument("--max-ready", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathevac",
        description="Minsum evacuation scheduling on path networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance with the greedy")
    p.add_argument("--instance", required=True, help="instance JSON ('-': stdin)")
    p.add_argument("--output", default=None, help="write schedule JSON here")
    p.add_argument("--trace", action="store_true",
                   help="print the greedy decision traces")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--trace", action="store_true",
                   help="print the occupancy table on success")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("oracle", help="exact reference optimum (small scale)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--instance", help="path instance JSON")
    g.add_argument("--packing", help="packing instance JSON")
    p.add_argument("--fractional", action="store_true",
                   help="fractional optimum instead of integral (--packing)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("lowerbound", help="fractional lower bound")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--instance", help="path instance JSON")
    g.add_argument("--packing", help="packing instance JSON")
    p.add_argument("--reduced-tau", action="store_true",
                   help="reduce ready times to their pair index (weaker "
                        "bound, but the one the factor-2 certificate needs)")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--partition", default=None,
                   help="comma-separated values for the two-node reduction")
    p.add_argument("--packing", action="store_true",
                   help="emit a packing instance instead of a path instance")
    _add_shape_flags(p, capacity=6)
    p.add_argument("--facility", type=int, default=None)
    p.add_argument("--no-at-facility", action="store_true",
                   help="never place groups on the facility node")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="seeded benchmark sweep (CSV)")
    p.add_argument("--problem", choices=["packing", "evac"],
                   default="packing")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed-start", type=int, default=1)
    p.add_argument("--with-oracle", action="store_true",
                   help="add exact optima (skipping over-budget instances)")
    _add_shape_flags(p, capacity=10)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("examples", help="bundled fixtures")
    p.add_argument("--name", default=None)
    p.add_argument("--what", choices=["summary", "instance", "schedule"],
                   default="summary")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 1
    except evac.NonUniformCapacityError as exc:
        print(exc, file=sys.stderr)
        return 2
    except oracles.OracleBudgetExceeded as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
