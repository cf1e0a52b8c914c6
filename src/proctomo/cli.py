"""Command-line experiment runner.

Subcommands: simulate, reconstruct, scaling-study, m-scaling-study,
design-audit, oracle-check.  Studies accept a JSON config file and/or flags
(flags win).  Exit code 0 on success, 2 on validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as pio
from .channels import as_process_matrix
from .metrics import error_report
from .reconstruct import TwoStageReconstructor
from .simulate import exact_record, ideal_probabilities, sample_record
from .studies import (
    ExperimentConfig,
    design_audit,
    format_audit,
    make_channel,
    make_ensemble,
    make_povm,
    oracle_check,
    run_m_scaling_study,
    run_scaling_study,
)


def _add_design_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", default="cnot", help="cnot | identity:d | random:d[:nontp][:seed] | file:path")
    p.add_argument("--ensemble", default="mub:4", help="sic:d | mub:d | natural:d | random:d:M[:seed] | cube-states:m | file:path")
    p.add_argument("--povm", default="cube-povm:2", help="cube-povm:m | mub-povm:d | sic-povm:4 | file:path")


def _cmd_simulate(args) -> int:
    channel = make_channel(args.channel)
    ensemble = make_ensemble(args.ensemble)
    povm = make_povm(args.povm)
    probs = ideal_probabilities(channel, ensemble, povm)
    if args.exact:
        record = exact_record(probs, povm)
    else:
        if args.copies % ensemble.num_states:
            raise ValueError(
                f"total copies {args.copies} must be divisible by the "
                f"{ensemble.num_states} input states"
            )
        record = sample_record(
            probs, args.copies // ensemble.num_states, povm, seed=args.seed
        )
    pio.save_json(record, args.output)
    if args.text:
        Path(args.text).write_text(pio.record_to_text(record))
    print(
        f"simulated {record.num_states} states x {record.num_operators} operators"
        f" -> {args.output}"
        + ("" if record.shots_per_set is None else f" ({record.shots_per_set} shots/set)")
    )
    return 0


def _cmd_reconstruct(args) -> int:
    record = pio.load_json(args.record)
    ensemble = make_ensemble(args.ensemble)
    povm = make_povm(args.povm)
    est = TwoStageReconstructor(ensemble, povm).estimate(record, tp_prior=args.tp_prior)
    if args.output:
        pio.save_json(est, args.output, include_intermediates=args.intermediates)
    print(
        f"estimate: trace rank {est.trace_rank}, {est.clipped_count} clipped eigenvalues"
        + (", tp prior" if est.tp_prior else "")
        + (", tp fallback" if est.tp_fallback else "")
    )
    if args.truth:
        rep = error_report(est.x_hat, as_process_matrix(make_channel(args.truth)).mat)
        print(
            f"vs truth: frobenius error {rep.frob_error:.6g}, mse {rep.mse:.6g}, "
            f"fidelity {rep.fidelity:.6f}"
        )
    return 0


def _load_config(args, keys) -> dict:
    merged = {}
    if getattr(args, "config", None):
        merged.update(json.loads(Path(args.config).read_text()))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _cmd_scaling_study(args) -> int:
    merged = _load_config(
        args, ["channel", "povm", "copies", "trials", "tp_prior", "seed", "output"]
    )
    if args.ensemble:
        merged["ensembles"] = args.ensemble
    cfg = ExperimentConfig(**merged)
    result = run_scaling_study(cfg)
    for line in result.format_lines():
        print(line)
    if cfg.output:
        print(f"table written to {cfg.output}")
    return 0


def _cmd_m_scaling_study(args) -> int:
    result = run_m_scaling_study(
        d=args.dim,
        num_states=tuple(args.num_states),
        copies_per_state=args.copies_per_state,
        povm_spec=args.povm,
        channel_spec=args.channel,
        trials=args.trials,
        seed=args.seed,
        output=args.output,
    )
    for line in result.format_lines():
        print(line)
    return 0


def _cmd_design_audit(args) -> int:
    report = design_audit(" ".join(args.spec))
    for line in format_audit(report):
        print(line)
    return 0


def _cmd_oracle_check(args) -> int:
    results = oracle_check(seed=args.seed)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
        ok &= passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctomo",
        description="Simulate process-tomography experiments and reconstruct process matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample (or exactly evaluate) a measurement record")
    _add_design_args(p)
    p.add_argument("--copies", type=int, default=108_000, help="total copies across all input states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="write ideal probabilities instead of sampling")
    p.add_argument("--output", required=True, help="record JSON path")
    p.add_argument("--text", default=None, help="also write a delimited-text copy")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="run the two-stage estimator on a record")
    p.add_argument("--record", required=True, help="record JSON path")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--tp-prior", action="store_true", dest="tp_prior")
    p.add_argument("--intermediates", action="store_true", help="include pipeline intermediates in the output")
    p.add_argument("--output", default=None, help="estimate JSON path")
    p.add_argument("--truth", default=None, help="channel spec to compare against")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("scaling-study", help="MSE/infidelity versus total copies")
    p.add_argument("--config", default=None, help="JSON config file (flags override)")
    p.add_argument("--channel", default=None)
    p.add_argument("--ensemble", action="append", default=None, help="repeatable")
    p.add_argument("--povm", default=None)
    p.add_argument("--copies", type=int, nargs="+", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tp-prior", action="store_const", const=True, default=None, dest="tp_prior")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_scaling_study)

    p = sub.add_parser("m-scaling-study", help="MSE versus the number of random input states")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--num-states", type=int, nargs="+", default=[16, 32, 64, 128])
    p.add_argument("--copies-per-state", type=int, default=90_000)
    p.add_argument("--povm", default="cube-povm:2")
    p.add_argument("--channel", default="random:4:tp:7")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_m_scaling_study)

    p = sub.add_parser("design-audit", help="cost/cond/eigenvalues of a state or measurement design")
    p.add_argument("spec", nargs="+", help="e.g. 'sic 4', 'mub-povm 4', 'cube-states 2'")
    p.set_defaults(func=_cmd_design_audit)

    p = sub.add_parser("oracle-check", help="verify the structured solver against dense brute force")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
