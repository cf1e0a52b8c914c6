"""Command-line experiment runner.

Subcommands: simulate, reconstruct, scaling-study, m-scaling-study,
design-audit, oracle-check.  scaling-study accepts a JSON config file and/or
flags (flags win).  Exit code 0 on success, 2 on validation errors, 141 when the reader of
stdout closed it early (``| head``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

from . import io as pio
from .linalg import check_dimensions
from .metrics import fidelity, squared_error
from .oracle import oracle_check
from .reconstruct import TwoStageReconstructor
from .simulate import MeasurementRecord, exact_record, ideal_probabilities, sample_record
from .studies import (
    SPECS,
    ExperimentConfig,
    copies_per_state,
    design_audit,
    make_channel,
    make_ensemble,
    make_povm,
    run_m_scaling_study,
    run_scaling_study,
)


def _spec_arg(p: argparse.ArgumentParser, flag: str, *kinds: str, help: str = "", **kwargs) -> None:
    """An argument that takes a spec of one of ``kinds``; its help lists their forms from ``SPECS``."""
    forms = " | ".join(e.form for e in SPECS if e.kind in (*kinds, None))
    p.add_argument(flag, help=f"{help}{' or '.join(kinds)} spec: {forms}", **kwargs)


def _cmd_simulate(args) -> int:
    channel = make_channel(args.channel)
    ensemble = make_ensemble(args.ensemble)
    povm = make_povm(args.povm)
    check_dimensions({f"--channel {args.channel!r}": channel.d, f"--ensemble {args.ensemble!r}": ensemble.d,
                      f"--povm {args.povm!r}": povm.d})
    per_state = None if args.exact else copies_per_state(args.copies, ensemble, args.ensemble, povm, args.povm)
    probs = ideal_probabilities(channel, ensemble, povm)
    record = exact_record(probs, povm) if args.exact else sample_record(probs, per_state, povm, seed=args.seed)
    pio.save_json(record, args.output)
    print(
        f"simulated {record.num_states} states x {record.num_operators} operators"
        f" -> {args.output}"
        + ("" if record.shots_per_set is None else f" ({record.shots_per_set} shots/set)")
    )
    return 0


def _cmd_reconstruct(args) -> int:
    record = pio.load_json(args.record, (MeasurementRecord,))
    ensemble = make_ensemble(args.ensemble)
    povm = make_povm(args.povm)
    truth = make_channel(args.truth) if args.truth else None
    dims = {f"--ensemble {args.ensemble!r}": ensemble.d, f"--povm {args.povm!r}": povm.d}
    check_dimensions(dims | ({f"--truth {args.truth!r}": truth.d} if truth else {}))
    if record.num_states != ensemble.num_states or record.set_sizes != povm.set_sizes:
        raise ValueError(
            f"record {args.record} ({record.num_states} states, set sizes {record.set_sizes}) was not drawn for "
            f"--ensemble {args.ensemble!r} ({ensemble.num_states} states) and --povm {args.povm!r} "
            f"(set sizes {povm.set_sizes})"
        )
    est = TwoStageReconstructor(ensemble, povm).estimate(record, tp_prior=args.tp_prior)
    if args.output:
        pio.save_json(est, args.output, include_intermediates=args.intermediates)
    print(
        f"estimate: trace rank {est.trace_rank}, {est.clipped_count} clipped eigenvalues"
        + (", tp prior" if est.tp_prior else "")
        + (", tp fallback" if est.tp_fallback else "")
    )
    if truth is not None:
        mse = squared_error(est.x_hat, truth.mat)
        print(
            f"vs truth: frobenius error {mse ** 0.5:.6g}, mse {mse:.6g}, "
            f"fidelity {fidelity(est.x_hat, truth.mat):.6f}"
        )
    return 0


def _cmd_scaling_study(args) -> int:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    # Every config field has a flag of the same dest; flags that were given win.
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    return _print_study(run_scaling_study(cfg), cfg.output)


def _cmd_m_scaling_study(args) -> int:
    # Every study parameter has a flag of the same dest; the study's defaults fill those not given.
    flags = {name: getattr(args, name) for name in inspect.signature(run_m_scaling_study).parameters}
    return _print_study(run_m_scaling_study(**{k: v for k, v in flags.items() if v is not None}), args.output)


def _print_study(result, output) -> int:
    print("\n".join(result.format_lines()))
    if output:
        print(f"table written to {output}")
    return 0


def _cmd_design_audit(args) -> int:
    for line in design_audit(" ".join(args.spec)):
        print(line)
    return 0


def _cmd_oracle_check(args) -> int:
    results = oracle_check(seed=args.seed)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return 0 if all(passed for _, passed, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctomo",
        description="Simulate process-tomography experiments and reconstruct process matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample (or exactly evaluate) a measurement record")
    _spec_arg(p, "--channel", "channel", default="cnot")
    _spec_arg(p, "--ensemble", "ensemble", default="mub:4")
    _spec_arg(p, "--povm", "POVM", default="cube-povm:2")
    p.add_argument("--copies", type=int, default=108_000, help="total copies across all input states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="write ideal probabilities instead of sampling")
    p.add_argument("--output", required=True, help="record JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="run the two-stage estimator on a record")
    p.add_argument("--record", required=True, help="record JSON path")
    _spec_arg(p, "--ensemble", "ensemble", required=True)
    _spec_arg(p, "--povm", "POVM", required=True)
    p.add_argument("--tp-prior", action="store_true", dest="tp_prior")
    p.add_argument("--intermediates", action="store_true", help="include pipeline intermediates in the output")
    p.add_argument("--output", default=None, help="estimate JSON path")
    _spec_arg(p, "--truth", "channel", help="compare against this ", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("scaling-study", help="MSE/infidelity versus total copies")
    p.add_argument("--config", default=None, help="JSON config file (flags override)")
    _spec_arg(p, "--channel", "channel", default=None)
    _spec_arg(p, "--ensemble", "ensemble", help="repeatable; ", action="append", dest="ensembles", metavar="ENSEMBLE")
    _spec_arg(p, "--povm", "POVM", default=None)
    p.add_argument("--copies", type=int, nargs="+", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tp-prior", action="store_const", const=True, default=None, dest="tp_prior")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_scaling_study)

    p = sub.add_parser("m-scaling-study", help="MSE versus the number of random input states")
    p.add_argument("--dim", type=int, dest="d", metavar="DIM")
    p.add_argument("--num-states", type=int, nargs="+")
    p.add_argument("--copies-per-state", type=int)
    _spec_arg(p, "--povm", "POVM", dest="povm_spec", metavar="POVM")
    _spec_arg(p, "--channel", "channel", dest="channel_spec", metavar="CHANNEL")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_m_scaling_study)

    p = sub.add_parser("design-audit", help="cost/cond/eigenvalues of a state or measurement design")
    _spec_arg(p, "spec", "ensemble", "POVM", help="e.g. 'sic 4'; ", nargs="+")
    p.set_defaults(func=_cmd_design_audit)

    p = sub.add_parser("oracle-check", help="verify the structured solver against dense brute force")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a pipe closed before the exit flush is caught here too
        return code
    except BrokenPipeError:
        # stdout's reader is gone (``| head``): exit quietly, as under SIGPIPE, writing on to devnull.
        sys.stdout = open(os.devnull, "w")
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
