"""The three benchmark workloads.

Each workload has

* ``setup(tracer)``: builds what its passes reuse, once per process;
* ``run(seed)``: one untraced pass through the public entry points a user
  calls (``studies.run_m_scaling_study``, ``studies.run_scaling_study``,
  ``TwoStageReconstructor.estimate``, ``metrics.*``), returning its outputs;
* ``run_traced(seed, tracer)``: the same work re-composed from each module's
  public functions, with a timer around every call;
* ``check(outputs)`` and ``same(untraced, traced)``: correctness checks,
  returned as ``(attempted, failed)``;
* ``final_checks()``: checks made once per run.

``quick=True`` selects tiny sizes that still go through every check.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from proctomo import studies
from proctomo.channels import process_matrix
from proctomo.ensembles import random_states
from proctomo.metrics import infidelity, squared_error
from proctomo.reconstruct import TwoStageReconstructor, nearest_psd
from proctomo.simulate import exact_record, ideal_probabilities, sample_record

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Absolute tolerance of the physicality checks and the noiseless control.
CHECK_TOL = 1e-9


def derive_seed(seed: int, index: int) -> int:
    """Seed of pass (or record) ``index`` under the benchmark seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def is_physical(x: np.ndarray, d: int) -> bool:
    """Hermitian, PSD and Tr_1 X <= I, each to CHECK_TOL."""
    herm = (x + x.conj().T) / 2
    if not np.all(np.isfinite(x)) or np.linalg.norm(x - herm) > CHECK_TOL:
        return False
    if np.linalg.eigvalsh(herm)[0] < -CHECK_TOL:
        return False
    f = herm.reshape(d, d, d, d).trace(axis1=0, axis2=2)
    return bool(np.linalg.eigvalsh((f + f.conj().T) / 2)[-1] <= 1.0 + CHECK_TOL)


def traced_estimate(tr, rec: TwoStageReconstructor, record, tp_prior: bool) -> np.ndarray:
    """Steps 1-4 of ``TwoStageReconstructor.estimate``, one span each."""
    a_hat = tr.call("reconstruct.step1", rec.output_coefficients, record.freq)
    d_hat = tr.call("reconstruct.step2", rec.process_least_squares, a_hat)
    g_hat, clipped = tr.call("reconstruct.step3", nearest_psd, d_hat)
    out = tr.call("reconstruct.step4", rec.trace_correct, g_hat, record.copies_per_state, tp_prior)
    x_hat, fallback = out[0], out[-1]
    tr.count("reconstruct.estimates")
    tr.count("reconstruct.clipped_eigs", clipped)
    tr.count("reconstruct.step4_rescaled", not np.array_equal(x_hat, g_hat))
    tr.count("reconstruct.tp_fallbacks", bool(fallback))
    return x_hat


def traced_sample(tr, probs, copies, povm, seed):
    record = tr.call(
        "simulate.sample_record", sample_record, probs, copies, povm, seed=seed, keep_ideal=False
    )
    tr.count("simulate.cells", record.num_states * record.num_sets)
    return record


class StudyWorkload:
    """A study entry point, checked row by row against the reference table."""

    name = ""
    setup_samples = 15

    def __init__(self, seed: int, quick: bool):
        # Studies take their seeds per pass; ``seed`` is accepted for a common signature.
        self.mode = "quick" if quick else "full"
        self.cfg = self.CONFIGS[self.mode]

    def setup(self, tracer) -> None:
        """The study entry points build their channel, POVM, ensembles and
        reconstructors inside the timed pass, so nothing is built ahead."""

    def check(self, rows) -> tuple:
        failed = 0
        reference = load_reference()[self.name][self.mode]
        for (mse, *_), (ref, factor) in zip(rows, reference, strict=True):
            failed += not (math.isfinite(mse) and ref / factor <= mse <= ref * factor)
        return len(rows), failed

    def same(self, rows, traced_rows) -> tuple:
        failed = sum(a != b for a, b in zip(rows, traced_rows, strict=True))
        return len(rows), failed

    def final_checks(self) -> tuple:
        return 0, 0


class StateCountSweep(StudyWorkload):
    """Acceptance 6's grid: mean MSE versus the number of random input states."""

    name = "state-count-sweep"
    CONFIGS = {
        "full": dict(
            d=4,
            num_states=(16, 32, 64, 128),
            copies_per_state=90_000,
            povm_spec="cube-povm:2",
            channel_spec="random:4:tp:7",
            trials=10,
        ),
        "quick": dict(
            d=4,
            num_states=(16, 32),
            copies_per_state=900,
            povm_spec="cube-povm:2",
            channel_spec="random:4:tp:7",
            trials=2,
        ),
    }

    def run(self, seed: int) -> list:
        result = studies.run_m_scaling_study(seed=seed, **self.cfg)
        return [(mean, std) for _, mean, std, _ in result.rows]

    def run_traced(self, seed: int, tr) -> list:
        cfg = self.cfg
        channel = tr.call("channels.build", studies.make_channel, cfg["channel_spec"])
        povm = tr.call("povms.build", studies.make_povm, cfg["povm_spec"])
        x_true = tr.call("channels.build", process_matrix, channel).mat
        rows = []
        for ip, m in enumerate(cfg["num_states"]):
            mses = []
            for it in range(cfg["trials"]):
                ensemble = tr.call(
                    "ensembles.build",
                    random_states,
                    cfg["d"],
                    int(m),
                    seed=studies.trial_seed(seed, ip, 2 * it),
                )
                probs = tr.call(
                    "simulate.ideal_probabilities", ideal_probabilities, channel, ensemble, povm
                )
                record = traced_sample(
                    tr, probs, cfg["copies_per_state"], povm, studies.trial_seed(seed, ip, 2 * it + 1)
                )
                rec = tr.call("reconstruct.setup", TwoStageReconstructor, ensemble, povm)
                x_hat = traced_estimate(tr, rec, record, tp_prior=False)
                mses.append(tr.call("metrics.squared_error", squared_error, x_hat, x_true))
            rows.append((float(np.mean(mses)), float(np.std(mses))))
        return rows


class Qubit4Trial(StudyWorkload):
    """One large-d trial: d = 16, 1296 input states, 81 measurement sets."""

    name = "qubit4-trial"
    CONFIGS = {
        # 1296 states x 81 sets x 100 shots per set.
        "full": studies.ExperimentConfig(
            channel="random:16:nontp:5",
            ensembles=("cube-states:4",),
            povm="cube-povm:4",
            copies=(10_497_600,),
            trials=1,
        ),
        # 36 states x 9 sets x 100 shots per set.
        "quick": studies.ExperimentConfig(
            channel="random:4:nontp:5",
            ensembles=("cube-states:2",),
            povm="cube-povm:2",
            copies=(32_400,),
            trials=1,
        ),
    }

    def run(self, seed: int) -> list:
        result = studies.run_scaling_study(dataclasses.replace(self.cfg, seed=seed))
        return [(mean, std, infid) for _, _, mean, std, infid, _ in result.rows]

    def run_traced(self, seed: int, tr) -> list:
        cfg = self.cfg
        channel = tr.call("channels.build", studies.make_channel, cfg.channel)
        povm = tr.call("povms.build", studies.make_povm, cfg.povm)
        x_true = tr.call("channels.build", process_matrix, channel).mat
        rows = []
        for ens_spec in cfg.ensembles:
            ensemble = tr.call("ensembles.build", studies.make_ensemble, ens_spec)
            rec = tr.call("reconstruct.setup", TwoStageReconstructor, ensemble, povm)
            probs = tr.call(
                "simulate.ideal_probabilities", ideal_probabilities, channel, ensemble, povm
            )
            for ip, total in enumerate(cfg.copies):
                per_state = total // ensemble.num_states
                mses, infids = [], []
                for it in range(cfg.trials):
                    record = traced_sample(
                        tr, probs, per_state, povm, studies.trial_seed(seed, ip, it)
                    )
                    x_hat = traced_estimate(tr, rec, record, cfg.tp_prior)
                    mses.append(tr.call("metrics.squared_error", squared_error, x_hat, x_true))
                    infids.append(tr.call("metrics.infidelity", infidelity, x_hat, x_true))
                rows.append((float(np.mean(mses)), float(np.std(mses)), float(np.mean(infids))))
        return rows


class EstimateStream:
    """The estimator alone: a fixed d = 8 design and a pool of records drawn
    at set-up, each estimated with and without the TP prior and scored."""

    name = "estimate-stream"
    setup_samples = 5
    CONFIGS = {
        "full": dict(
            channel="random:8:tp:3",
            ensemble="cube-states:3",
            povm="cube-povm:3",
            shots_per_set=100,
            pool=8,
        ),
        "quick": dict(
            channel="random:4:tp:3",
            ensemble="cube-states:2",
            povm="cube-povm:2",
            shots_per_set=100,
            pool=2,
        ),
    }

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.cfg = self.CONFIGS["quick" if quick else "full"]

    def setup(self, tr) -> None:
        cfg = self.cfg
        channel = tr.call("channels.build", studies.make_channel, cfg["channel"])
        self.povm = tr.call("povms.build", studies.make_povm, cfg["povm"])
        ensemble = tr.call("ensembles.build", studies.make_ensemble, cfg["ensemble"])
        self.x_true = tr.call("channels.build", process_matrix, channel).mat
        self.rec = tr.call("reconstruct.setup", TwoStageReconstructor, ensemble, self.povm)
        self.probs = tr.call(
            "simulate.ideal_probabilities", ideal_probabilities, channel, ensemble, self.povm
        )
        copies = cfg["shots_per_set"] * self.povm.num_sets
        self.records = [
            traced_sample(tr, self.probs, copies, self.povm, derive_seed(self.seed, k))
            for k in range(cfg["pool"])
        ]

    def run(self, seed: int) -> list:
        # The pool is the input; every pass estimates each record once per mode.
        out = []
        for record in self.records:
            for tp_prior in (False, True):
                x_hat = self.rec.estimate(record, tp_prior=tp_prior).x_hat
                out.append(
                    (x_hat, squared_error(x_hat, self.x_true), infidelity(x_hat, self.x_true))
                )
        return out

    def run_traced(self, seed: int, tr) -> list:
        out = []
        for record in self.records:
            for tp_prior in (False, True):
                x_hat = traced_estimate(tr, self.rec, record, tp_prior)
                out.append(
                    (
                        x_hat,
                        tr.call("metrics.squared_error", squared_error, x_hat, self.x_true),
                        tr.call("metrics.infidelity", infidelity, x_hat, self.x_true),
                    )
                )
        return out

    def check(self, out) -> tuple:
        d = self.rec.d
        failed = sum(
            not (is_physical(x, d) and math.isfinite(mse) and math.isfinite(infid))
            for x, mse, infid in out
        )
        return len(out), failed

    def same(self, out, traced_out) -> tuple:
        failed = sum(
            not (np.array_equal(a[0], b[0]) and a[1:] == b[1:])
            for a, b in zip(out, traced_out, strict=True)
        )
        return len(out), failed

    def final_checks(self) -> tuple:
        """Noiseless control: exact frequencies recover the true process."""
        clean = exact_record(self.probs, self.povm)
        failed = sum(
            np.linalg.norm(self.rec.estimate(clean, tp_prior=tp).x_hat - self.x_true) > CHECK_TOL
            for tp in (False, True)
        )
        return 2, failed


WORKLOADS = {w.name: w for w in (StateCountSweep, Qubit4Trial, EstimateStream)}
