"""Configuration-driven simulation/reconstruction studies.

A study is reproducible from (config, global seed): every trial derives its
sampling seed from (seed, point index, trial index) through a seed sequence,
so results do not depend on execution order.  Studies emit plot-ready rows;
no plotting happens here.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as pio
from .channels import (
    KrausChannel,
    ProcessMatrix,
    as_process_matrix,
    cnot_channel,
    identity_channel,
    random_channel,
)
from .ensembles import (
    InputEnsemble,
    cube_states,
    design_metrics_V,
    mub_states,
    natural_basis_states,
    random_states,
    sic_states,
)
from .linalg import frob, reshuffle_permutation
from .metrics import infidelity, loglog_slope, squared_error
from .povms import PovmCollection, cube_povm, design_metrics_C, mub_povm, sic_povm
from .reconstruct import TwoStageReconstructor, dense_estimates, dense_expansion_matrix
from .simulate import exact_record, ideal_probabilities, sample_record


def _split(spec: str) -> list:
    parts = [tok for tok in spec.replace(" ", ":").split(":") if tok]
    if not parts:
        raise ValueError("empty spec string")
    return parts


def _need(parts: list, fields: int, form: str) -> None:
    """Reject a spec with fewer than ``fields`` fields after its name."""
    if len(parts) <= fields:
        raise ValueError(f"spec {':'.join(parts)!r} is incomplete; expected {form}")


def _load_typed(path, kinds):
    obj = pio.load_json(path)
    if not isinstance(obj, kinds):
        raise ValueError(f"{path} does not contain a {' or '.join(k.__name__ for k in kinds)}")
    return obj


def make_channel(spec: str):
    """Channel factory: cnot | identity:d | random:d[:nontp][:seed] | file:path."""
    parts = _split(spec)
    name = parts[0].lower()
    if name == "file":
        _need(parts, 1, "file:path")
        return _load_typed(parts[1], (KrausChannel, ProcessMatrix))
    if name == "cnot":
        return cnot_channel()
    if name == "identity":
        _need(parts, 1, "identity:d")
        return identity_channel(int(parts[1]))
    if name == "random":
        _need(parts, 1, "random:d[:nontp][:seed]")
        d = int(parts[1])
        tp, seed = True, 0
        for tok in parts[2:]:
            if tok in ("tp", "nontp"):
                tp = tok == "tp"
            else:
                seed = int(tok)
        return random_channel(d, tp=tp, seed=seed)
    raise ValueError(f"unknown channel spec {spec!r}")


def make_ensemble(spec: str) -> InputEnsemble:
    """Ensemble factory: sic:d | mub:d | natural:d | random:d:M[:seed] |
    cube-states:m | file:path."""
    parts = _split(spec)
    name = parts[0].lower()
    if name == "random":
        _need(parts, 2, "random:d:M[:seed]")
        seed = int(parts[3]) if len(parts) > 3 else 0
        return random_states(int(parts[1]), int(parts[2]), seed=seed)
    if name == "file":
        _need(parts, 1, "file:path")
        return _load_typed(parts[1], (InputEnsemble,))
    if name in ("cube-states", "cube_states"):
        _need(parts, 1, "cube-states:m")
        return cube_states(int(parts[1]))
    builders = {"sic": sic_states, "mub": mub_states, "natural": natural_basis_states}
    if name in builders:
        _need(parts, 1, f"{name}:d")
        return builders[name](int(parts[1]))
    raise ValueError(f"unknown ensemble spec {spec!r}")


def make_povm(spec: str) -> PovmCollection:
    """POVM factory: cube-povm:m | mub-povm:d | sic-povm:4 | file:path
    (the -povm suffix is optional when the context is unambiguous)."""
    parts = _split(spec)
    name = parts[0].lower().replace("_", "-")
    if name == "file":
        _need(parts, 1, "file:path")
        return _load_typed(parts[1], (PovmCollection,))
    base = name[: -len("-povm")] if name.endswith("-povm") else name
    if base == "cube":
        _need(parts, 1, "cube-povm:m")
        return cube_povm(int(parts[1]))
    if base == "mub":
        _need(parts, 1, "mub-povm:d")
        return mub_povm(int(parts[1]))
    if base == "sic":
        return sic_povm(int(parts[1]) if len(parts) > 1 else 4)
    raise ValueError(f"unknown POVM spec {spec!r}")


def trial_seed(global_seed: int, point: int, trial: int) -> int:
    ss = np.random.SeedSequence((global_seed, point, trial))
    return int(ss.generate_state(1)[0])


@dataclass
class ExperimentConfig:
    """One scaling study: a channel, input states, a measurement, and a copy schedule."""

    channel: str = "cnot"
    ensembles: tuple = ("cube-states:2",)
    povm: str = "cube-povm:2"
    copies: tuple = (10_800, 54_000, 270_000, 1_350_000)  # total copies per point
    trials: int = 10
    tp_prior: bool = False
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if isinstance(self.ensembles, str):
            self.ensembles = (self.ensembles,)
        self.ensembles = tuple(self.ensembles)
        self.copies = tuple(int(n) for n in self.copies)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.copies or min(self.copies) < 1:
            raise ValueError("the copy schedule must contain positive totals")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        obj = json.loads(Path(path).read_text())
        return cls(**obj)

    def to_meta(self) -> dict:
        cfg = {
            "channel": self.channel,
            "ensembles": list(self.ensembles),
            "povm": self.povm,
            "copies": list(self.copies),
            "trials": self.trials,
            "tp_prior": self.tp_prior,
            "seed": self.seed,
        }
        blob = json.dumps(cfg, sort_keys=True)
        return {
            "config": blob,
            "config_sha256": hashlib.sha256(blob.encode()).hexdigest()[:16],
            "seed": self.seed,
        }


@dataclass
class StudyResult:
    columns: list
    rows: list
    meta: dict
    slopes: dict = field(default_factory=dict)

    def save(self, path) -> None:
        pio.write_table(path, self.meta, self.columns, self.rows)

    def format_lines(self) -> list:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
        for label, slope in self.slopes.items():
            lines.append(f"# slope {label}\t{slope:.4f}")
        return lines


def run_scaling_study(cfg: ExperimentConfig) -> StudyResult:
    """Mean MSE and infidelity versus the total number of copies.

    Rows: (ensemble, total_copies, mean_mse, std_mse, mean_infidelity,
    runtime_s).  Log-log slopes against the copy totals are reported per
    ensemble when the schedule has at least two points.
    """
    channel = make_channel(cfg.channel)
    povm = make_povm(cfg.povm)
    x_true = as_process_matrix(channel).mat
    rows = []
    slopes = {}
    for ens_spec in cfg.ensembles:
        ensemble = make_ensemble(ens_spec)
        m = ensemble.num_states
        rec = TwoStageReconstructor(ensemble, povm)
        probs = ideal_probabilities(channel, ensemble, povm)
        mse_means, infid_means = [], []
        for ip, total in enumerate(cfg.copies):
            if total % m:
                raise ValueError(
                    f"total copies {total} is not divisible by the {m} input states "
                    f"of {ens_spec!r}; choose a multiple of {m}"
                )
            per_state = total // m
            t0 = time.perf_counter()
            mses, infids = [], []
            for it in range(cfg.trials):
                record = sample_record(
                    probs, per_state, povm, seed=trial_seed(cfg.seed, ip, it), keep_ideal=False
                )
                est = rec.estimate(record, tp_prior=cfg.tp_prior)
                mses.append(squared_error(est.x_hat, x_true))
                infids.append(infidelity(est.x_hat, x_true))
            elapsed = time.perf_counter() - t0
            mse_means.append(float(np.mean(mses)))
            infid_means.append(float(np.mean(infids)))
            rows.append(
                [
                    ensemble.label or ens_spec,
                    total,
                    mse_means[-1],
                    float(np.std(mses)),
                    infid_means[-1],
                    elapsed,
                ]
            )
        if len(cfg.copies) > 1:
            label = ensemble.label or ens_spec
            slopes[f"mse[{label}]"] = loglog_slope(cfg.copies, mse_means)
            slopes[f"infidelity[{label}]"] = loglog_slope(cfg.copies, infid_means)
    result = StudyResult(
        columns=["ensemble", "total_copies", "mean_mse", "std_mse", "mean_infidelity", "runtime_s"],
        rows=rows,
        meta=cfg.to_meta(),
        slopes=slopes,
    )
    if cfg.output:
        result.save(cfg.output)
    return result


def run_m_scaling_study(
    d: int,
    num_states: tuple,
    copies_per_state: int,
    povm_spec: str = "cube-povm:2",
    channel_spec: str = "random:4:tp:7",
    trials: int = 10,
    seed: int = 0,
    output: str | None = None,
) -> StudyResult:
    """Mean MSE versus the number of random input states at fixed per-state copies.

    Each trial draws a fresh random ensemble, so the study averages over the
    input-state distribution as well as shot noise.
    """
    channel = make_channel(channel_spec)
    povm = make_povm(povm_spec)
    x_true = as_process_matrix(channel).mat
    rows, mse_means = [], []
    for ip, m in enumerate(num_states):
        t0 = time.perf_counter()
        mses = []
        for it in range(trials):
            ens_seed = trial_seed(seed, ip, 2 * it)
            ensemble = random_states(d, int(m), seed=ens_seed)
            probs = ideal_probabilities(channel, ensemble, povm)
            record = sample_record(
                probs, copies_per_state, povm, seed=trial_seed(seed, ip, 2 * it + 1), keep_ideal=False
            )
            est = TwoStageReconstructor(ensemble, povm).estimate(record)
            mses.append(squared_error(est.x_hat, x_true))
        rows.append(
            [int(m), float(np.mean(mses)), float(np.std(mses)), time.perf_counter() - t0]
        )
        mse_means.append(float(np.mean(mses)))
    meta = {
        "config": json.dumps(
            {
                "d": d,
                "num_states": list(num_states),
                "copies_per_state": copies_per_state,
                "povm": povm_spec,
                "channel": channel_spec,
                "trials": trials,
            },
            sort_keys=True,
        ),
        "seed": seed,
    }
    meta["config_sha256"] = hashlib.sha256(meta["config"].encode()).hexdigest()[:16]
    slopes = {}
    if len(num_states) > 1:
        slopes["mse[num_states]"] = loglog_slope(num_states, mse_means)
    result = StudyResult(
        columns=["num_states", "mean_mse", "std_mse", "runtime_s"],
        rows=rows,
        meta=meta,
        slopes=slopes,
    )
    if output:
        result.save(output)
    return result


def design_audit(spec: str) -> dict:
    """Design metrics for an ensemble or POVM spec, as a printable report."""
    parts = _split(spec)
    name = parts[0].lower().replace("_", "-")
    if name.endswith("-povm"):
        povm = make_povm(spec)
        rep = design_metrics_C(povm)
        extra = {"sets": povm.num_sets, "elements": povm.num_elements, "top_eig_lower": rep.top_eig_lower}
        label = povm.label
    else:
        ensemble = make_ensemble(spec)
        rep = design_metrics_V(ensemble)
        extra = {"states": ensemble.num_states}
        label = ensemble.label
    out = {
        "label": label,
        "cost": rep.cost,
        "cond": rep.cond,
        "eigvals": rep.eigvals.tolist(),
        "lower_cost": rep.lower_cost,
        "lower_cond": rep.lower_cond,
        "achieves": rep.achieves,
    }
    out.update(extra)
    return out


def format_audit(report: dict) -> list:
    eigs = ", ".join(f"{v:.6g}" for v in report["eigvals"])
    lines = [
        f"design audit: {report['label']}",
        f"  cost        {report['cost']:.6f}   (lower bound {report['lower_cost']:.6f})",
        f"  cond        {report['cond']:.6f}   (lower bound {report['lower_cond']:.6f})",
        f"  eigenvalues {eigs}",
        f"  achieves lower bounds: {'yes' if report['achieves'] else 'no'}",
    ]
    return lines


def oracle_check(seed: int = 0) -> list:
    """Cross-checks of the structured solver against dense brute force.

    Returns (name, passed, detail) triples; all should pass on a healthy
    installation.
    """
    results = []

    # Dense coefficient matrix equals the structured factorization, d=2 and 3.
    for d, ensemble in ((2, sic_states(2)), (3, random_states(3, 9, seed=seed))):
        v = ensemble.parameterization()
        b_dense = dense_expansion_matrix(ensemble)
        b_struct = np.kron(np.eye(d * d), v.T) @ reshuffle_permutation(d).matrix()
        err = frob(b_dense - b_struct)
        results.append((f"coefficient-factorization-d{d}", err <= 1e-12, f"max dev {err:.2e}"))

    # Structured two-step equals its dense evaluation on noisy data, and both
    # recover the exact process on noiseless data.
    channel = random_channel(2, tp=True, seed=seed)
    ensemble, povm = mub_states(2), cube_povm(1)
    probs = ideal_probabilities(channel, ensemble, povm)
    noisy = sample_record(probs, 3_000, povm, seed=seed + 1)
    rec = TwoStageReconstructor(ensemble, povm)
    d_struct = rec.process_least_squares(rec.output_coefficients(noisy.freq))
    d_dense, _ = dense_estimates(noisy, ensemble, povm)
    err = frob(d_struct - d_dense)
    results.append(("structured-vs-dense-noisy", err <= 1e-10, f"dev {err:.2e}"))

    x_true = as_process_matrix(channel).mat
    clean = exact_record(probs, povm)
    two_step, global_ls = dense_estimates(clean, ensemble, povm)
    err = max(frob(two_step - x_true), frob(global_ls - x_true))
    results.append(("noiseless-exact-recovery", err <= 1e-9, f"dev {err:.2e}"))
    return results
