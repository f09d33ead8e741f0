#!/usr/bin/env python3
"""Bench regression gate: compare a fresh kernel-benchmark run against the
committed baseline BENCH_kernels.json.

Absolute kernel times vary wildly across hosts (and CI runners), so the gate
compares *speedup ratios* — scalar median time / Parallel/8 median time per
kernel family (Filter, HashJoin, Aggregate) — which are what the morsel
parallelism work actually promises. A candidate fails when any family's
speedup drops below (baseline_speedup * (1 - tolerance)).

Usage:
  scripts/check_bench.py CANDIDATE.json [--baseline BENCH_kernels.json]
                         [--tolerance 0.5]

With --serve-slo the candidate is instead a serve_slo JSON artifact and the
gate checks admission-control sanity rather than kernel speedups: at the
lowest load multiplier the controller must shed (approximately) nothing —
an uncontended front door that rejects traffic is a regression no matter
how the host performs — and every sweep point must report its tenants.

Usage:
  scripts/check_bench.py serve_slo.json --serve-slo [--shed-tolerance 0.0]

The --scaleout, --availability, --fig17 and --fig14 gates read the JSON
artifact of one paper_figures figure (paper_figures --figure NAME --json
FILE): the figure name, its flags, and each printed table's title, columns
and rows.

With --scaleout the candidate is a fig18_scaleout artifact and the gate
checks multi-device sanity: every sweep point must finish its queries with
zero failures and zero device aborts (the modeled machine has no real
faults), and the largest device count must beat the 1-device point by at
least --min-speedup (modeled time scales with device parallelism, so the
floor holds on any host; CI's 2-device smoke uses a relaxed floor). GPU
Only places every operator on a device, so a point whose gpu_ops is zero
ran no queries.

Usage:
  scripts/check_bench.py scaleout.json --scaleout [--min-speedup 1.5]

With --availability the candidate is a fig26_availability artifact and the
gate checks coordinated graceful degradation: every phase (baseline, each
chaos episode, each recovery probe) must serve queries (no zero-goodput
blackout; goodput is completed queries per second), the device-loss phase
must keep at least --goodput-floor of the baseline's goodput, nothing may be
stranded (watchdog still watching, device heap still held) after the drain,
and the system must report recovery — back at brownout L0 with a
baseline-comparable p99 — within --recovery-ceiling seconds. It also checks
that the chaos happened: the latency_storm and heap_squeeze phases must
inject faults, the device_loss phase must run with one device fewer live
(its faults may read 0: placement routes around the lost device), and the
baseline and every recovery probe must run fault-free on every device. The
device count is the most live devices any phase reports.

Usage:
  scripts/check_bench.py fig26.json --availability
                         [--goodput-floor 0.1] [--recovery-ceiling 20.0]

With --fig17 the candidate is a fig17_query_times_sf30 artifact and the
gate checks the paper's Figure 17 claim that GPU-Only slows every query
down at SF 30 (the working set overflows the device cache): GPU Only must
take at least 1.2x CPU Only's time on every query. Both run on the modeled
clock, so the ratio holds on any host.

Usage:
  scripts/check_bench.py fig17.json --fig17

With --fig14 the candidate is a fig14_scale_ssb artifact and the gate
checks the paper's headline claim (Figure 14(a)) that Data-Driven Chopping
is never slower than CPU Only: at every scale factor it must take at most
1.2x CPU Only's workload time. The slack covers run-to-run spread; the
largest ratio seen in repeated runs was 1.04.

Usage:
  scripts/check_bench.py fig14.json --fig14

With --fig13 the candidate is a fig13_aborts artifact and the gate checks
that paper mode keeps the paper's Figure 13 heap-contention aborts: at the
largest user count GPU Only must abort at least 5 times, and Chopping and
Data-Driven Chopping must each abort fewer times than GPU Only. The floor
tells paper mode from the default engine: at CI's `--quick --fusion off
--time-scale 0.2`, GPU Only aborted 8-9 times at 16 users in 14 paper-mode
runs, and 2-3 times with paper mode off (its result buffers still abort).

Usage:
  scripts/check_bench.py fig13.json --fig13

Exit code 0 = within tolerance, 1 = regression, 2 = malformed input.
"""

import argparse
import json
import sys


FAMILIES = ["Filter", "HashJoin", "Aggregate"]
PARALLEL_DOP = 8
FUSION_DOP = 8
FIG17_MIN_GPU_SLOWDOWN = 1.2
FIG14_MAX_DDC_OVER_CPU = 1.2
FIG13_MIN_GPU_ONLY_ABORTS = 5
FIG13_CHOPPING = ["Chopping", "Data-Driven Chopping"]
AVAILABILITY_CHAOS_PHASES = ["device_loss", "latency_storm", "heap_squeeze"]


def load_medians(path):
    """run_name -> median real_time for all *_median aggregate rows."""
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    medians = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        medians[bench["run_name"]] = float(bench["real_time"])
    if not medians:
        print(f"error: {path} holds no median aggregate rows", file=sys.stderr)
        sys.exit(2)
    return medians


def family_speedup(medians, family):
    scalar = medians.get(f"BM_{family}Scalar")
    parallel = medians.get(f"BM_{family}Parallel/{PARALLEL_DOP}")
    if scalar is None or parallel is None or parallel <= 0:
        return None
    return scalar / parallel


def load_figure(path, figure):
    """The tables of `figure`'s paper_figures artifact, each a list of
    column -> value dicts; None (after an error message) if the file is
    unreadable or holds another figure."""
    try:
        with open(path) as fp:
            doc = json.load(fp)
        if doc["figure"] != figure:
            raise ValueError(f"holds {doc['figure']!r}, not {figure!r}")
        return [[dict(zip(table["columns"], row)) for row in table["rows"]]
                for table in doc["tables"]]
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return None


def fusion_speedup(medians):
    """Unfused/fused ratio of the operator-fusion pipeline pair."""
    unfused = medians.get(f"BM_PipelineUnfused/{FUSION_DOP}")
    fused = medians.get(f"BM_PipelineFused/{FUSION_DOP}")
    if unfused is None or fused is None or fused <= 0:
        return None
    return unfused / fused


def check_serve_slo(path, shed_tolerance):
    """Gate on a serve_slo sweep artifact: no shedding at the low-load point."""
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2
    points = doc.get("points", [])
    if not points:
        print(f"error: {path} holds no sweep points", file=sys.stderr)
        return 2

    failures = []
    print(f"{'load':<8}{'offered':>9}{'shed_rate':>11}{'goodput':>9}")
    for point in points:
        result = point.get("result", {})
        load = point.get("load_multiplier")
        print(f"{load:<8}{result.get('offered', 0):>9}"
              f"{result.get('shed_rate', 0.0):>11.3f}"
              f"{result.get('goodput_qps', 0.0):>9.2f}")
        if load is None or "shed_rate" not in result:
            failures.append(f"point {load}: missing load_multiplier/shed_rate")
        if not result.get("tenants"):
            failures.append(f"point {load}: no per-tenant results")

    low = min(points, key=lambda p: p.get("load_multiplier", float("inf")))
    low_shed = low.get("result", {}).get("shed_rate", 1.0)
    if low_shed > shed_tolerance:
        failures.append(
            f"low-load point (x{low.get('load_multiplier')}) shed "
            f"{low_shed:.3f} of offered queries "
            f"(tolerance {shed_tolerance:.3f}) — an uncontended admission "
            f"controller must not reject traffic")
    if low.get("result", {}).get("completed", 0) == 0:
        failures.append("low-load point completed zero queries")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: no shedding at low load, all points report tenants")
    return 0


def check_scaleout(path, min_speedup):
    """Gate on a fig18_scaleout sweep artifact: clean runs, real scaling."""
    tables = load_figure(path, "fig18_scaleout")
    if tables is None:
        return 2
    points = tables[0] if tables else []
    if not points:
        print(f"error: {path} holds no sweep points", file=sys.stderr)
        return 2

    failures = []
    print(f"{'devices':<9}{'wall_ms':>10}{'speedup':>9}{'aborts':>8}"
          f"{'failed':>8}")
    by_devices = {}
    for point in points:
        devices = point.get("devices")
        if devices is None or "gpu_only[ms]" not in point:
            failures.append(f"point {devices}: missing devices/gpu_only[ms]")
            continue
        by_devices[devices] = point
        print(f"{devices:<9}{point['gpu_only[ms]']:>10.1f}"
              f"{point.get('speedup', 0.0):>9.2f}"
              f"{point.get('aborts', 0):>8}"
              f"{point.get('failed', 0):>8}")
        if point.get("failed", 0) != 0:
            failures.append(
                f"{devices} device(s): {point['failed']} "
                f"failed queries — scale-out must lose no queries")
        if point.get("aborts", 0) != 0:
            failures.append(
                f"{devices} device(s): {point['aborts']} device "
                f"aborts — the sweep machine models no faults")
        if point.get("gpu_ops", 0) == 0:
            failures.append(f"{devices} device(s): completed zero queries")

    if 1 not in by_devices or len(by_devices) < 2:
        failures.append("sweep must include a 1-device baseline and at "
                        "least one multi-device point")
    else:
        top = max(by_devices)
        base_ms = by_devices[1]["gpu_only[ms]"]
        top_ms = by_devices[top]["gpu_only[ms]"]
        speedup = base_ms / top_ms if top_ms > 0 else 0.0
        if speedup < min_speedup:
            failures.append(
                f"{top}-device speedup {speedup:.2f}x over 1 device fell "
                f"below the {min_speedup:.2f}x floor")
        else:
            print(f"\n{top}-device speedup over 1 device: {speedup:.2f}x "
                  f"(floor {min_speedup:.2f}x)")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("OK: clean multi-device sweep, scaling floor met")
    return 0


def chaos_failures(phases):
    """Why the fig26 phases do not show their chaos: a chaos phase that
    injected no fault or lost no device, or a calm phase that did."""
    failures = []
    names = [phase.get("phase") for phase in phases]
    for name in AVAILABILITY_CHAOS_PHASES:
        if name not in names:
            failures.append(f"no {name} phase in the artifact")
    if any("faults" not in p or "live_devices" not in p for p in phases):
        return failures + ["phases lack the faults/live_devices columns — "
                           "the gate cannot see whether the chaos happened"]
    devices = max(phase["live_devices"] for phase in phases)
    for phase in phases:
        name, faults = phase.get("phase", "?"), phase["faults"]
        live = phase["live_devices"]
        if name == "device_loss":
            if live != devices - 1:
                failures.append(
                    f"device_loss ran with {live} of {devices} devices "
                    f"live — want {devices - 1}")
        elif name in AVAILABILITY_CHAOS_PHASES:
            if faults <= 0:
                failures.append(
                    f"phase {name} injected no fault — its episode was "
                    f"not armed")
        elif faults != 0 or live != devices:
            failures.append(
                f"phase {name} ran with {faults} faults and {live} of "
                f"{devices} devices live — want 0 and all")
    return failures


def check_availability(path, goodput_floor, recovery_ceiling):
    """Gate on a fig26_availability artifact: degrade, survive, recover."""
    tables = load_figure(path, "fig26_availability")
    if tables is None:
        return 2
    if len(tables) != 2 or not tables[0] or len(tables[1]) != 1:
        print(f"error: {path} holds no phases/summary", file=sys.stderr)
        return 2
    phases, (summary,) = tables

    failures = []
    print(f"{'phase':<16}{'offered':>9}{'goodput':>9}{'p99_ms':>9}"
          f"{'level':>7}{'faults':>8}{'live':>6}")
    baseline = None
    for phase in phases:
        name = phase.get("phase", "?")
        goodput = phase.get("goodput[qps]", 0.0)
        print(f"{name:<16}{phase.get('offered', 0):>9}"
              f"{goodput:>9.2f}{phase.get('p99[ms]', 0.0):>9.1f}"
              f"{phase.get('brownout', '?'):>7}{phase.get('faults', '?'):>8}"
              f"{phase.get('live_devices', '?'):>6}")
        if baseline is None:
            baseline = phase
        if goodput <= 0:
            failures.append(
                f"phase {name}: zero goodput — graceful degradation must "
                f"never black out the service")
    failures += chaos_failures(phases)

    base_goodput = baseline.get("goodput[qps]", 0.0) if baseline else 0.0
    loss = next((p for p in phases if p.get("phase") == "device_loss"), None)
    if loss is not None and base_goodput > 0:
        floor = goodput_floor * base_goodput
        if loss.get("goodput[qps]", 0.0) < floor:
            failures.append(
                f"device_loss goodput {loss.get('goodput[qps]', 0.0):.2f} qps "
                f"fell below the floor {floor:.2f} "
                f"({goodput_floor:.0%} of baseline {base_goodput:.2f})")

    if summary.get("recovered") != "yes":
        failures.append("system did not report recovery (brownout back at "
                        "L0 with baseline-comparable p99)")
    recovery_s = summary.get("recovery_time_s", float("inf"))
    if recovery_s > recovery_ceiling:
        failures.append(
            f"recovery took {recovery_s:.1f}s, above the "
            f"{recovery_ceiling:.1f}s ceiling")
    if summary.get("final_level") != "L0":
        failures.append(
            f"final brownout level is "
            f"{summary.get('final_level')} — must end at L0")
    if summary.get("stranded", 1) != 0:
        failures.append(
            f"{summary.get('stranded')} queries still under "
            f"watchdog watch after the drain — stranded work")
    if summary.get("heap_used", 1) != 0:
        failures.append(
            f"{summary.get('heap_used')} bytes of device heap "
            f"still held after the drain — leaked device resources")

    print(f"\nrecovered={summary.get('recovered')} "
          f"recovery_time_s={summary.get('recovery_time_s')} "
          f"stranded={summary.get('stranded')} "
          f"hedges={phases[-1].get('hedges')} "
          f"watchdog_fires={phases[-1].get('wd_fires')}")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("OK: every chaos phase struck and was served through, recovered, "
          "nothing stranded")
    return 0


def check_fig17(path):
    """Gate on a fig17 artifact: GPU Only slower than CPU Only everywhere."""
    tables = load_figure(path, "fig17_query_times_sf30")
    if tables is None:
        return 2
    queries = tables[0] if tables else []
    if not queries:
        print(f"error: {path} holds no queries", file=sys.stderr)
        return 2

    failures = []
    print(f"{'query':<8}{'cpu_ms':>10}{'gpu_ms':>10}{'gpu/cpu':>9}")
    for entry in queries:
        name = entry.get("query", "?")
        cpu = entry.get("CPU Only[ms]", -1.0)
        gpu = entry.get("GPU Only[ms]", -1.0)
        if cpu <= 0 or gpu <= 0:
            failures.append(f"{name}: missing CPU Only/GPU Only latency")
            continue
        ratio = gpu / cpu
        print(f"{name:<8}{cpu:>10.1f}{gpu:>10.1f}{ratio:>9.2f}")
        if ratio < FIG17_MIN_GPU_SLOWDOWN:
            failures.append(
                f"{name}: GPU Only {gpu:.1f} ms is only {ratio:.2f}x CPU "
                f"Only {cpu:.1f} ms (floor {FIG17_MIN_GPU_SLOWDOWN:.2f}x) — "
                f"Figure 17's GPU-Only slowdown no longer reproduces")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: GPU Only >= {FIG17_MIN_GPU_SLOWDOWN:.2f}x CPU Only on "
          f"every query")
    return 0


def check_fig14(path):
    """Gate on a fig14_scale_ssb artifact: DD-Chopping never behind CPU Only."""
    tables = load_figure(path, "fig14_scale_ssb")
    if tables is None:
        return 2
    points = tables[0] if tables else []
    if not points:
        print(f"error: {path} holds no scale factors", file=sys.stderr)
        return 2

    failures = []
    print(f"{'sf':<6}{'cpu_ms':>10}{'ddc_ms':>10}{'ddc/cpu':>9}")
    for point in points:
        sf = point.get("sf", "?")
        cpu = point.get("CPU Only[ms]", -1.0)
        ddc = point.get("Data-Driven Chopping[ms]", -1.0)
        if cpu <= 0 or ddc <= 0:
            failures.append(
                f"SF {sf}: missing CPU Only/Data-Driven Chopping time")
            continue
        ratio = ddc / cpu
        print(f"{sf:<6}{cpu:>10.1f}{ddc:>10.1f}{ratio:>9.2f}")
        if ratio > FIG14_MAX_DDC_OVER_CPU:
            failures.append(
                f"SF {sf}: Data-Driven Chopping {ddc:.1f} ms is {ratio:.2f}x "
                f"CPU Only {cpu:.1f} ms (ceiling "
                f"{FIG14_MAX_DDC_OVER_CPU:.2f}x) — Figure 14's "
                f"never-slower-than-CPU claim no longer reproduces")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: Data-Driven Chopping <= {FIG14_MAX_DDC_OVER_CPU:.2f}x CPU "
          f"Only at every scale factor")
    return 0


def check_fig13(path):
    """Gate on a fig13_aborts artifact: paper mode still aborts."""
    tables = load_figure(path, "fig13_aborts")
    if tables is None:
        return 2
    points = tables[0] if tables else []
    if not points:
        print(f"error: {path} holds no user counts", file=sys.stderr)
        return 2
    try:
        point = max(points, key=lambda entry: entry["users"])
    except (KeyError, TypeError):
        print(f"error: {path} has a row without a user count", file=sys.stderr)
        return 2

    failures = []
    users = point["users"]
    gpu_only = point.get("GPU Only_aborts", -1)
    print(f"{'strategy':<22}{'aborts':>8}  (at {users} users)")
    print(f"{'GPU Only':<22}{gpu_only:>8}")
    if gpu_only < FIG13_MIN_GPU_ONLY_ABORTS:
        failures.append(
            f"{users} users: GPU Only aborted {gpu_only} times (floor "
            f"{FIG13_MIN_GPU_ONLY_ABORTS}) — paper mode no longer shows "
            f"Figure 13's heap-contention aborts")
    for strategy in FIG13_CHOPPING:
        aborts = point.get(f"{strategy}_aborts")
        if aborts is None:
            failures.append(f"{users} users: no {strategy} abort count")
            continue
        print(f"{strategy:<22}{aborts:>8}")
        if aborts >= gpu_only:
            failures.append(
                f"{users} users: {strategy} aborted {aborts} times, not "
                f"fewer than GPU Only's {gpu_only}")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: GPU Only aborts >= {FIG13_MIN_GPU_ONLY_ABORTS} times at "
          f"{users} users and each chopping strategy aborts fewer times")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("candidate", help="fresh benchmark JSON to check")
    parser.add_argument("--baseline", default="BENCH_kernels.json",
                        help="committed baseline (default: BENCH_kernels.json)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative speedup drop, 0..1 "
                             "(default 0.5 — CI runners are noisy)")
    parser.add_argument("--serve-slo", action="store_true",
                        help="treat candidate as a serve_slo sweep artifact")
    parser.add_argument("--scaleout", action="store_true",
                        help="treat candidate as a paper_figures "
                             "fig18_scaleout artifact")
    parser.add_argument("--availability", action="store_true",
                        help="treat candidate as a paper_figures "
                             "fig26_availability artifact")
    parser.add_argument("--fig17", action="store_true",
                        help="treat candidate as a paper_figures "
                             "fig17_query_times_sf30 artifact")
    parser.add_argument("--fig14", action="store_true",
                        help="treat candidate as a paper_figures "
                             "fig14_scale_ssb artifact")
    parser.add_argument("--fig13", action="store_true",
                        help="treat candidate as a paper_figures "
                             "fig13_aborts artifact")
    parser.add_argument("--goodput-floor", type=float, default=0.1,
                        help="device-loss goodput floor as a fraction of "
                             "baseline goodput for --availability "
                             "(default 0.1)")
    parser.add_argument("--recovery-ceiling", type=float, default=20.0,
                        help="max seconds to recover after the chaos ends "
                             "for --availability (default 20.0)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="multi-device speedup floor for --scaleout "
                             "(default 1.5 — the 4-device acceptance bar; "
                             "CI's 2-device smoke passes 1.15)")
    parser.add_argument("--shed-tolerance", type=float, default=0.0,
                        help="allowed shed rate at the lowest load point "
                             "(default 0.0)")
    parser.add_argument("--fusion-floor", type=float, default=1.3,
                        help="absolute minimum unfused/fused pipeline "
                             "speedup (default 1.3 — the fusion win is "
                             "skipped work, so it holds on any host)")
    args = parser.parse_args()

    if args.serve_slo:
        return check_serve_slo(args.candidate, args.shed_tolerance)
    if args.scaleout:
        return check_scaleout(args.candidate, args.min_speedup)
    if args.availability:
        return check_availability(args.candidate, args.goodput_floor,
                                  args.recovery_ceiling)
    if args.fig17:
        return check_fig17(args.candidate)
    if args.fig14:
        return check_fig14(args.candidate)
    if args.fig13:
        return check_fig13(args.candidate)

    baseline = load_medians(args.baseline)
    candidate = load_medians(args.candidate)

    failures = []
    print(f"{'family':<12}{'baseline':>10}{'candidate':>10}{'floor':>10}")
    for family in FAMILIES:
        base = family_speedup(baseline, family)
        cand = family_speedup(candidate, family)
        if base is None:
            print(f"{family:<12}{'n/a':>10}  (missing from baseline, skipped)")
            continue
        if cand is None:
            failures.append(f"{family}: missing from candidate run")
            print(f"{family:<12}{base:>10.2f}{'n/a':>10}")
            continue
        floor = base * (1.0 - args.tolerance)
        print(f"{family:<12}{base:>10.2f}{cand:>10.2f}{floor:>10.2f}")
        if cand < floor:
            failures.append(
                f"{family}: speedup {cand:.2f}x fell below floor "
                f"{floor:.2f}x (baseline {base:.2f}x, "
                f"tolerance {args.tolerance:.0%})")

    # Operator fusion gate: unlike the parallel speedups (bounded by host
    # cores), the fused/unfused ratio comes from *skipped work* — it must
    # clear an absolute floor, and must not regress against the baseline.
    base_fusion = fusion_speedup(baseline)
    cand_fusion = fusion_speedup(candidate)
    if cand_fusion is None:
        if base_fusion is not None:
            failures.append("Pipeline: fusion pair missing from candidate run")
        else:
            print("Pipeline     n/a  (fusion pair not in baseline, skipped)")
    else:
        floor = args.fusion_floor
        if base_fusion is not None:
            floor = max(floor, base_fusion * (1.0 - args.tolerance))
        base_text = f"{base_fusion:>10.2f}" if base_fusion else f"{'n/a':>10}"
        print(f"{'Pipeline':<12}{base_text}{cand_fusion:>10.2f}{floor:>10.2f}")
        if cand_fusion < floor:
            failures.append(
                f"Pipeline: fused speedup {cand_fusion:.2f}x fell below "
                f"floor {floor:.2f}x")

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: all kernel-family speedups within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
