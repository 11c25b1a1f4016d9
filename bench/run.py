"""toricball benchmark: time to a verdict, mesh time and warm query latency.

    python3 bench/run.py --workload bundled-corpus --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; toricball is imported from
./src.  One run is one process and one thread:

  set-up  import toricball, load or generate the workload's fans and
          warm an Atlas for queries; done SETUP_REPEATS times, the
          median is setup_s.
  pass    for each fan of the workload (plus the --tamper negative
          controls): ``toricball verify`` in-process at --seed, then
          ``toricball mesh --radii 1,4,16`` on every rank-2/3 fan, then
          a slice of a closed query loop with one client against the
          warm Atlas: locate (rescale_global) and eval
          (param_boundary_point twice, then points_equal), one locate
          then EVALS_PER_LOCATE evals.
          The slices add up to a fixed count, QUERY_RATE queries per
          second of --seconds, so a seed always gives the same answers
          to check and the same attempted count.  Interleaving spreads each
          kind of work over the whole run, so a slow spell of a shared
          machine lands on all metrics rather than on one.

Times are scaled to a reference machine speed sampled throughout the
run (see bench/speed.py); the raw times are in the detail line.

Every answer is checked against a known answer.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0; with --trace 1 the per-layer metrics of a traced pass,
after an untraced pass of the same work whose outputs must match the
traced pass byte for byte.  Spans go to .bench_out/trace-*.json.gz.
See bench/NOTES.md for the metric glossary and the known defect.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedTrace
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TRACE_QUERIES = 400  # a traced pass runs a fixed query count, so its counts repeat


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def measure(wl, workload, seed, seconds, work):
    tally = wl.Tally()
    with SpeedTrace() as sp:
        setups = []
        for rep in range(SETUP_REPEATS):
            m0 = sp.now()
            tb, cli = wl.import_fresh()
            fx = wl.prepare(tb, cli, workload, work / f"setup{rep}")
            setups.append((m0, sp.now()))
        client = wl.QueryClient(fx.query, query_rng(seed), tally, sp)
        query_count = math.ceil(seconds * wl.QUERY_RATE[workload])
        verify, meshes = wl.run_pass(fx, seed, work / "out", client, query_count)

    def scaled(marks):
        return [sp.scaled(m0, m1) for m0, m1 in marks]

    verdicts = scaled(verify.values())
    locate, evals = scaled(client.locate), scaled(client.eval)
    us = 1e6
    metrics = {
        "setup_s": (statistics.median(scaled(setups)), "s"),
        "verdict_s": (sum(verdicts), "s"),
        "verdict_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in verdicts)), "s"),
        "mesh_s": (statistics.median(sum(scaled(r)) for r in meshes), "s"),
        "locate_p50_us": (statistics.median(locate) * us, "us"),
        "locate_p99_us": (percentile(locate, 99) * us, "us"),
        "eval_p50_us": (statistics.median(evals) * us, "us"),
        "eval_p99_us": (percentile(evals, 99) * us, "us"),
        "queries_per_s": ((len(locate) + len(evals)) / (sum(locate) + sum(evals)), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    detail = {
        "scaled_verdict_s": dict(zip(verify, verdicts)),
        "raw_verdict_s": {k: sp.raw(*m) for k, m in verify.items()},
        "raw_locate_p50_us": statistics.median(sp.raw(*m) for m in client.locate) * us,
        "raw_eval_p50_us": statistics.median(sp.raw(*m) for m in client.eval) * us,
        "speed_samples": len(sp.took),
        "routine_median_us": statistics.median(sp.took) * us,
        "samples": {"locate": len(locate), "eval": len(evals)},
    }
    return tally, metrics, detail


def traced(wl, workload, seed, work):
    def one_pass(name, tracer=None):
        tally = wl.Tally()
        tb, cli = wl.import_fresh()
        if tracer:
            tracer.install()
        try:
            with SpeedTrace() as sp:
                m0 = sp.now()
                fx = wl.prepare(tb, cli, workload, work / name / "setup")
                client = wl.QueryClient(fx.query, query_rng(seed), tally, sp)
                wl.run_pass(fx, seed, work / name / "out", client, TRACE_QUERIES)
                elapsed = sp.scaled(m0, sp.now())
        finally:
            if tracer:
                tracer.uninstall()
        return tally, elapsed

    plain, plain_s = one_pass("untraced")
    tracer = Tracer()
    tally, traced_s = one_pass("traced", tracer)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.known += plain.known
    tally.unexpected += plain.unexpected
    mismatched = different_files(work / "untraced" / "out", work / "traced" / "out")
    tally.unexpected += [f"traced output differs: {p}" for p in mismatched]

    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    artifact = OUT / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(artifact, summary)
    metrics = layer_metrics(summary, tracer, traced_s - plain_s)
    detail = {"trace": str(artifact.relative_to(ROOT)), "spans": len(tracer.name), "untraced_s": plain_s, "traced_s": traced_s}
    return tally, metrics, detail


def different_files(a: Path, b: Path):
    """Relative paths whose bytes differ between two output trees."""
    files = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()} | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    return [str(f) for f in files if not ((a / f).is_file() and (b / f).is_file() and (a / f).read_bytes() == (b / f).read_bytes())]


# name -> (span, field) of the per-layer metrics; calls are counts, the rest seconds.
LAYER = {
    "bary.coords_in_flag.calls": ("bary.coords_in_flag", "calls"),
    "bary.coords_in_flag.self_s": ("bary.coords_in_flag", "self_s"),
    "bary.flag_cone.calls": ("bary.flag_cone", "calls"),
    "bary.flag_cone.self_s": ("bary.flag_cone", "self_s"),
    "bary.cover_check.total_s": ("bary.cover_check", "total_s"),
    "exact.rank.calls": ("exact.rank", "calls"),
    "exact.rank.self_s": ("exact.rank", "self_s"),
    "exact.solve_in_basis.calls": ("exact.solve_in_basis", "calls"),
    "exact.solve_in_basis.self_s": ("exact.solve_in_basis", "self_s"),
    "cones.hilbert_basis.calls": ("cones.hilbert_basis", "calls"),
    "cones.hilbert_basis.self_s": ("cones.hilbert_basis", "self_s"),
    "cones.decompose.calls": ("cones.decompose", "calls"),
    "cones.decompose.self_s": ("cones.decompose", "self_s"),
    "cones.minimality_violations.total_s": ("cones.minimality_violations", "total_s"),
    "cones.dual_generators.calls": ("cones.dual_generators", "calls"),
    "cones.dual_generators.self_s": ("cones.dual_generators", "self_s"),
    "charts.commutativity_residual.calls": ("charts.commutativity_residual", "calls"),
    "charts.commutativity_residual.self_s": ("charts.commutativity_residual", "self_s"),
    "charts.localize.calls": ("charts.localize", "calls"),
    "charts.localize.self_s": ("charts.localize", "self_s"),
    "charts.points_equal.calls": ("charts.points_equal", "calls"),
    "charts.points_equal.self_s": ("charts.points_equal", "self_s"),
    "charts.psi_eval.calls": ("charts.psi_eval", "calls"),
    "charts.psi_eval.self_s": ("charts.psi_eval", "self_s"),
    "homeo.param_boundary_point.calls": ("homeo.param_boundary_point", "calls"),
    "homeo.param_boundary_point.self_s": ("homeo.param_boundary_point", "self_s"),
    "homeo.rescale_global.calls": ("homeo.rescale_global", "calls"),
    "homeo.rescale_global.total_s": ("homeo.rescale_global", "total_s"),
    "homeo.rescale_in_flag.self_s": ("homeo.rescale_in_flag", "self_s"),
    "cellcomplex.verify_gluing.total_s": ("cellcomplex.verify_gluing", "total_s"),
    "cellcomplex.verify_gluing.self_s": ("cellcomplex.verify_gluing", "self_s"),
    "cellcomplex.verify_regularity.total_s": ("cellcomplex.verify_regularity", "total_s"),
    "cellcomplex.pseudomanifold_check.self_s": ("cellcomplex.pseudomanifold_check", "self_s"),
    "cellcomplex.build_ball_model.self_s": ("cellcomplex.build_ball_model", "self_s"),
    "fan.parse_and_validate.total_s": ("fan.parse_and_validate", "total_s"),
    "fan.star_fan.calls": ("fan.star_fan", "calls"),
    "fan.star_fan.total_s": ("fan.star_fan", "total_s"),
    "cli.run_verification.self_s": ("cli.run_verification", "self_s"),
    "cli.cmd_mesh.total_s": ("cli.cmd_mesh", "total_s"),
}


def layer_metrics(summary, tracer, overhead_s):
    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    def one_minus(part, whole):
        return 1 - get(part, "calls") / get(whole, "calls") if get(whole, "calls") else 0.0

    metrics = {name: (get(span, key), "count" if key == "calls" else "s") for name, (span, key) in LAYER.items()}
    located = tracer.calls_under("bary.coords_in_flag", "bary.locate_flag")
    metrics["bary.locate_hit_ratio"] = (get("bary.locate_flag", "calls") / located if located else 0.0, "ratio")
    metrics["cones.hilbert_basis.generators"] = (tracer.hilbert_generators, "count")
    metrics["charts.chart_hit_ratio"] = (one_minus("cones.triangular_generators", "charts.chart"), "ratio")
    metrics["charts.hilbert_hit_ratio"] = (one_minus("cones.hilbert_basis", "charts.hilbert"), "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def query_rng(seed):
    return random.Random(f"toricball-bench/{seed}/queries")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricball" / "__init__.py").is_file():
        print(f"toricball sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS or args.seconds <= 0:
        print(f"unknown workload or bad --seconds; workloads: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        if args.trace:
            tally, metrics, detail = traced(wl, args.workload, args.seed, work)
        else:
            tally, metrics, detail = measure(wl, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, known_defects=tally.known, unexpected_failures=tally.unexpected[:20])
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not tally.unexpected,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
