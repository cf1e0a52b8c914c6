#!/usr/bin/env python3
"""proctomo benchmark runner: one workload, one process, one caller.

    python3 perfbench/run.py --workload state-count-sweep --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; proctomo is imported from its
``src/``.  The runner sets up the workload, then repeats closed-loop passes
(each starts when the previous one has finished) until ``--seconds`` have
passed, checking every output.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced pass paired
with every untraced pass.  Report lines come first; the last line of
standard output is the JSON result.  ``--quick`` runs tiny sizes through the
same checks.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the workloads run from a single thread of control, and on a
# small shared machine extra BLAS threads add more noise than speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, same checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import proctomo
    except ImportError as exc:
        raise BenchError(f"cannot import proctomo from {ROOT / 'src'}: {exc}") from exc
    found = Path(proctomo.__file__).resolve().parent
    if found != (ROOT / "src" / "proctomo").resolve():
        raise BenchError(f"imported proctomo from {found}, not from this checkout's src/")


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def setup_probe(args) -> float:
    """Set-up time of one fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def layer_figures(tr, self_s: float) -> dict:
    """Per-layer figures of one traced pass, as name -> (value, unit)."""
    busy, calls, counts = tr.busy, tr.calls, tr.counts
    cells = counts["simulate.cells"]
    estimates = counts["reconstruct.estimates"]
    setups = calls["reconstruct.setup"]
    score = busy["metrics.squared_error"] + busy["metrics.infidelity"]
    figs = {
        "simulate.sample_record_s": (busy["simulate.sample_record"], "s"),
        "simulate.cells": (cells, "count"),
        "simulate.us_per_cell": (1e6 * busy["simulate.sample_record"] / cells, "us"),
        "simulate.ideal_probabilities_s": (busy["simulate.ideal_probabilities"], "s"),
        "simulate.ideal_probabilities_calls": (calls["simulate.ideal_probabilities"], "count"),
        "ensembles.build_s": (busy["ensembles.build"], "s"),
        "ensembles.build_calls": (calls["ensembles.build"], "count"),
        "povms.build_s": (busy["povms.build"], "s"),
        "channels.build_s": (busy["channels.build"], "s"),
        "reconstruct.setup_s": (busy["reconstruct.setup"], "s"),
        "reconstruct.setup_calls": (setups, "count"),
        "reconstruct.estimates_per_setup": (estimates / setups, "ratio"),
    }
    for step in range(1, 5):
        figs[f"reconstruct.step{step}_s"] = (busy[f"reconstruct.step{step}"], "s")
    figs.update({
        "reconstruct.estimates": (estimates, "count"),
        "reconstruct.clipped_eigs": (counts["reconstruct.clipped_eigs"], "count"),
        "reconstruct.step4_rescaled": (counts["reconstruct.step4_rescaled"], "count"),
        "reconstruct.tp_fallbacks": (counts["reconstruct.tp_fallbacks"], "count"),
        "metrics.squared_error_s": (busy["metrics.squared_error"], "s"),
        "metrics.infidelity_s": (busy["metrics.infidelity"], "s"),
        "metrics.score_s": (score, "s"),
        "metrics.calls": (calls["metrics.squared_error"] + calls["metrics.infidelity"], "count"),
        "metrics.infidelity_calls": (calls["metrics.infidelity"], "count"),
        "studies.self_s": (self_s, "s"),
    })
    return figs


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.6g} q1={q1:.6g} q3={q3:.6g} max={max(values):.6g}"


class Tally:
    """Outputs checked and checks failed."""

    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, checked) -> None:
        self.attempted += int(checked[0])
        self.failed += int(checked[1])


def timed_setup(workload, tracer) -> float:
    """Set-up time from the first statement of this interpreter, at reference speed."""
    from calibration import SpeedSampler, at_reference_speed

    with SpeedSampler() as sampler:
        _, _, taken = sampler.time(workload.setup, tracer)
        work = time.perf_counter() - T0 - sum(taken)
    return at_reference_speed([(work, taken)])[0]


def untraced_passes(args, workload, setup_times, tally) -> dict:
    from calibration import REFERENCE_S, SpeedSampler, at_reference_speed
    from workloads import derive_seed

    sections = []
    deadline = time.perf_counter() + args.seconds
    with SpeedSampler() as sampler:
        while not sections or time.perf_counter() < deadline:
            out, work, taken = sampler.time(workload.run, derive_seed(args.seed, len(sections)))
            sections.append((work, taken))
            tally.add(workload.check(out))
    scaled = at_reference_speed(sections)
    # Later passes may reuse what an earlier one left behind in this process
    # (estimate-stream repeats its record pool), so a cache that outlives one
    # call is judged on the first pass.
    first = at_reference_speed(sections[:1])[0]
    print(f"passes {len(sections)}; raw pass wall less kernel (s): "
          f"{quartiles([w for w, _ in sections])}")
    print(f"kernel samples (s, reference {REFERENCE_S}): {quartiles(sampler.samples)}")
    print(f"pass wall at reference speed, per pool of passes (s): {quartiles(scaled)}")
    print(f"first pass wall at reference speed (s): {first!r}")
    print(f"setup_s samples at reference speed (s): {quartiles(setup_times)}")
    return {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_passes(args, workload, setup_tracer, tally) -> dict:
    """Each untraced pass paired with a traced pass on the same seed."""
    from tracing import Tracer
    from workloads import derive_seed

    overheads, passes = [], []
    compared = differing = 0
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        seed = derive_seed(args.seed, len(passes))
        t0 = time.perf_counter()
        out = workload.run(seed)
        wall = time.perf_counter() - t0
        tally.add(workload.check(out))
        tr = Tracer()
        t0 = time.perf_counter()
        traced = workload.run_traced(seed, tr)
        traced_wall = time.perf_counter() - t0
        checked = workload.same(out, traced)
        compared, differing = compared + int(checked[0]), differing + int(checked[1])
        tally.add(checked)
        overheads.append(traced_wall - wall)
        passes.append(layer_figures(tr.with_fallback(setup_tracer), traced_wall - tr.total_busy()))
    figures = {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].items()
    }
    figures["trace_overhead_s"] = (statistics.median(overheads), "s")
    print(f"passes {len(passes)}")
    print(f"traced outputs equal untraced: {'yes' if not differing else 'no'} "
          f"({differing} of {compared} differ)")
    print("layer waiting: not applicable (no layer waits on a queue or another process)")
    return figures


def run(args) -> int:
    blas_threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads)
    import_program()

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    setup_tracer = Tracer()
    tally = Tally()
    if args.trace:
        # No speed sampling here: its handler would land inside the layer spans.
        workload.setup(setup_tracer)
    else:
        setup_times = [timed_setup(workload, setup_tracer)]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        setup_times += [setup_probe(args) for _ in range(workload.setup_samples - 1)]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' quick' if args.quick else ''}")
    print("env " + json.dumps(environment(blas_threads), sort_keys=True))
    if args.trace:
        figures = traced_passes(args, workload, setup_tracer, tally)
        section = "per_layer"
    else:
        figures = untraced_passes(args, workload, setup_times, tally)
        section = "end_to_end"
    tally.add(workload.final_checks())
    attempted, failed = tally.attempted, tally.failed
    for name, (value, unit) in figures.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} checked outputs failed)")

    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        if name not in figures or figures[name][1] != unit:
            raise BenchError(f"BENCHMARK.json metric {name} [{unit}] is not measured as declared")
        metrics[name] = {"value": figures[name][0], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
