"""Acceptance gate: nine checks, one printed pass/fail line each.

Families are cached at module level so later checks can re-examine the
exact packings and optima produced by earlier ones without recomputing.
Each check prints its line through the capture-disabled hook, so the
verdicts land in the live pytest output.
"""

import itertools
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from brute import has_equal_split
from checkers import pair_overflow_violations, validate_packing
from pathevac import (GenParams, PackParams, SplitMix64, bundled_examples,
                      exact_dwsf_opt, exact_fractional_opt_mcf,
                      exact_packing_opt, fractional_objective,
                      gen_from_partition, gen_random, gen_random_packing,
                      packing_objective, reduce_side, reduced_ready_times,
                      schedule_objective, simulate, solve_fractional_greedy,
                      solve_greedy, solve_report, validate_schedule)
from pathevac.evac import check_schedule

_CACHE: dict[str, object] = {}


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        with capsys.disabled():
            print(f"\n{line}")
        assert ok, line
    return _announce


# ---------------------------------------------------------------------------
# shared instance families

def _packing_family():
    """1000 seeded packing instances with <= 10 items and capacity <= 20,
    solved greedily and by the exact subset DP."""
    if "packing" not in _CACHE:
        rows = []
        for seed in range(1, 1001):
            params = PackParams(items=(seed % 10) + 1,
                                capacity=(seed % 19) + 2,
                                max_ready=6, max_weight=9)
            inst = gen_random_packing(seed, params)
            packing, _trace = solve_greedy(inst)
            greedy = packing_objective(packing, inst)
            opt, _witness = exact_packing_opt(inst)
            rows.append((inst, packing, greedy, opt))
        _CACHE["packing"] = rows
    return _CACHE["packing"]


def _evac_family():
    """200 seeded path instances inside the exhaustive-oracle budget,
    solved by the two-sided greedy and by the exact search."""
    if "evac" not in _CACHE:
        rows = []
        for seed in range(1, 201):
            params = GenParams(nodes=(seed % 3) + 2, groups=(seed % 5) + 1,
                               capacity=(seed % 5) + 2, max_weight=9,
                               max_distance=2)
            inst = gen_random(seed, params)
            report = solve_report(inst)
            opt, _witness = exact_dwsf_opt(inst)
            rows.append((inst, report, opt))
        _CACHE["evac"] = rows
    return _CACHE["evac"]


def _feasibility_family():
    """10000 seeded instances of unrestricted shape with their reports."""
    if "feasibility" not in _CACHE:
        rows = []
        for seed in range(1, 10001):
            params = GenParams(nodes=(seed % 10) + 1, groups=seed % 12,
                               capacity=(seed % 12) + 1, max_weight=9,
                               max_distance=4)
            inst = gen_random(seed, params)
            rows.append((inst, solve_report(inst)))
        _CACHE["feasibility"] = rows
    return _CACHE["feasibility"]


# ---------------------------------------------------------------------------
# the nine checks

def test_criterion_1_first_walkthrough(announce):
    start = time.perf_counter()
    fx = bundled_examples()["fig1a"]
    violations = validate_schedule(fx.instance, fx.schedule)
    trace = simulate(fx.instance, fx.schedule)
    objective = schedule_objective(trace, fx.instance)
    makespan = max(trace.arrival_time.values())
    elapsed = time.perf_counter() - start
    ok = violations == [] and objective == 28 and makespan == 4 \
        and elapsed < 1.0
    announce(1, ok, f"narrated ten-group schedule validates at objective "
                    f"{objective}, makespan {makespan} ({elapsed:.3f}s)")


def test_criterion_2_second_walkthrough(announce):
    start = time.perf_counter()
    fx = bundled_examples()["fig1b"]
    violations = validate_schedule(fx.instance, fx.schedule)
    trace = simulate(fx.instance, fx.schedule)
    objective = schedule_objective(trace, fx.instance)
    arrivals = tuple(trace.arrival_time[g]
                     for g in ("G21", "G11", "G12", "G22"))
    elapsed = time.perf_counter() - start
    ok = violations == [] and objective == 52 \
        and arrivals == (2, 3, 4, 5) and elapsed < 1.0
    announce(2, ok, f"narrated four-group schedule validates at objective "
                    f"{objective}, arrivals {arrivals} ({elapsed:.3f}s)")


def test_criterion_3_packing_ratio(announce):
    start = time.perf_counter()
    violations = 0
    worst = Fraction(0)
    for inst, packing, greedy, opt in _packing_family():
        if validate_packing(packing, inst) or greedy > 2 * opt:
            violations += 1
        if opt:
            worst = max(worst, Fraction(greedy, opt))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    announce(3, ok, f"greedy within twice the exact packing optimum on "
                    f"{len(_packing_family()) - violations}/1000 instances, "
                    f"max ratio {float(worst):.4f} ({elapsed:.1f}s)")


def test_criterion_4_evacuation_ratio(announce):
    start = time.perf_counter()
    violations = 0
    worst = Fraction(0)
    for inst, report, opt in _evac_family():
        if validate_schedule(inst, report.schedule) \
                or report.objective > 2 * opt:
            violations += 1
        if opt:
            worst = max(worst, Fraction(report.objective, opt))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    announce(4, ok, f"two-sided greedy within twice the exact optimum on "
                    f"{len(_evac_family()) - violations}/200 instances, "
                    f"max ratio {float(worst):.4f} ({elapsed:.1f}s)")


def test_criterion_5_feasibility_and_identity(announce):
    start = time.perf_counter()
    bad = 0
    for inst, report in _feasibility_family():
        # one walk: the schedule is feasible and achieves the objective
        # that solve_report took from the per-side sum
        trace, violations = check_schedule(inst, report.schedule)
        sides = report.side_objective("left") + report.side_objective("right")
        if violations or not (schedule_objective(trace, inst)
                              == report.objective == sides):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0
    announce(5, ok, f"schedule feasible and objective equals the per-side "
                    f"packing-plus-delay sum on "
                    f"{len(_feasibility_family()) - bad}/10000 instances "
                    f"({elapsed:.1f}s)")


def test_criterion_6_pair_overflow(announce):
    start = time.perf_counter()
    checked = 0
    bad = 0
    for inst, packing, _greedy, _opt in _packing_family():
        checked += 1
        if pair_overflow_violations(packing, inst):
            bad += 1
    for _inst, report, _opt in _evac_family():
        for packing, pinst in ((report.left_packing, report.left_instance),
                               (report.right_packing,
                                report.right_instance)):
            checked += 1
            if pair_overflow_violations(packing, pinst):
                bad += 1
    for _inst, report in _feasibility_family():
        for packing, pinst in ((report.left_packing, report.left_instance),
                               (report.right_packing,
                                report.right_instance)):
            checked += 1
            if pair_overflow_violations(packing, pinst):
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and checked > 11000
    announce(6, ok, f"every populated even bin overflows its pair on "
                    f"{checked - bad}/{checked} greedy packings "
                    f"({elapsed:.1f}s)")


def _with_halved_ready(inst):
    return replace(inst, ready=tuple((r + 1) // 2 for r in inst.ready))


def test_criterion_7_relaxation_chain(announce):
    # the certificate uses the pair-index reduction floor(tau/2) + 1; plain
    # halving is checked as the weaker first link of the chain only, since
    # doubling it is provably not an upper bound on the greedy (see the
    # pinned counterexample in the relaxation tests)
    start = time.perf_counter()
    bad = 0
    for inst, _packing, greedy, opt in _packing_family():
        reduced = reduced_ready_times(inst)
        halved = _with_halved_ready(inst)
        frac_full = fractional_objective(
            solve_fractional_greedy(inst), inst)
        frac_pair = fractional_objective(
            solve_fractional_greedy(reduced), reduced)
        frac_half = fractional_objective(
            solve_fractional_greedy(halved), halved)
        chain = (frac_half <= frac_pair <= frac_full <= opt
                 and greedy <= 2 * frac_pair)
        exact = (frac_full == exact_fractional_opt_mcf(inst)
                 and frac_pair == exact_fractional_opt_mcf(reduced)
                 and frac_half == exact_fractional_opt_mcf(halved))
        if not (chain and exact):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0
    announce(7, ok, f"fractional bounds chain and flow-exactness hold on "
                    f"{len(_packing_family()) - bad}/1000 instances "
                    f"({elapsed:.1f}s)")


def test_criterion_8_decomposition_identity(announce):
    start = time.perf_counter()
    bad = 0
    for inst, _report, opt in _evac_family():
        total = 0
        for side in ("left", "right"):
            pinst, red = reduce_side(inst, side)
            if pinst.items:
                side_opt, _ = exact_packing_opt(pinst)
                total += side_opt + red.delay_cost
        if total != opt:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0
    announce(8, ok, f"exact optimum equals per-side packing optimum plus "
                    f"delay cost on {len(_evac_family()) - bad}/200 "
                    f"instances ({elapsed:.1f}s)")


def _partition_inputs():
    inputs = []
    for r in range(2, 6):
        for vals in itertools.combinations_with_replacement(range(1, 5), r):
            total = sum(vals)
            if total % 2 == 0 and max(vals) <= total // 2:
                inputs.append(vals)
    rng = SplitMix64(2024)
    while sum(1 for v in inputs if len(v) >= 6) < 25:
        count = rng.randint(6, 12)
        vals = sorted(rng.randint(1, 9) for _ in range(count))
        if sum(vals) % 2:
            vals[-1] += 1
        vals = tuple(sorted(vals))
        if max(vals) <= sum(vals) // 2:
            inputs.append(vals)
    # pinned twelve-item inputs, one splittable and one not
    inputs.append((1,) * 12)
    inputs.append((5,) * 11 + (9,))
    return inputs


def test_criterion_9_partition_reduction(announce):
    start = time.perf_counter()
    bad = 0
    inputs = _partition_inputs()
    for vals in inputs:
        inst = gen_from_partition(vals)
        opt, _ = exact_dwsf_opt(inst)
        floor = 3 * inst.capacity
        if opt < floor or (opt == floor) != has_equal_split(vals):
            bad += 1
    spots = []
    for vals, expected in (((2, 2, 3, 3), 15), ((3, 3, 2), 15), ((1, 1), 3)):
        opt, _ = exact_dwsf_opt(gen_from_partition(vals))
        spots.append(opt == expected)
    lopsided_opt, _ = exact_dwsf_opt(gen_from_partition((3, 3, 2)))
    spots.append(lopsided_opt > 3 * gen_from_partition((3, 3, 2)).capacity)
    elapsed = time.perf_counter() - start
    ok = bad == 0 and all(spots)
    announce(9, ok, f"two-node reduction hits the 3C floor exactly on "
                    f"splittable inputs across {len(inputs) - bad}/"
                    f"{len(inputs)} partition inputs, spot values verified "
                    f"({elapsed:.1f}s)")
