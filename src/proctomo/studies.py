"""Configuration-driven simulation/reconstruction studies.

A study is reproducible from (config, global seed): every trial derives its
sampling seed from (seed, point index, trial index) through a seed sequence,
so results do not depend on execution order.  Studies emit plot-ready rows;
no plotting happens here.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as pio
from .channels import (
    KrausChannel,
    ProcessMatrix,
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
from .metrics import infidelity, loglog_slope, squared_error
from .povms import PovmCollection, cube_povm, design_metrics_C, mub_povm, sic_povm
from .reconstruct import TwoStageReconstructor
from .simulate import check_seed, ideal_probabilities, sample_record


# A spec field: an integer, a seed (an integer >= 0) or a word, kept verbatim:
# a path, or a flag that takes one of its ``words``.  A field with a default
# is optional.
Field = namedtuple("Field", "type default words", defaults=(None, ()))
INT, SEED, PATH = Field("int"), Field("seed", 0), Field("word")

# Every spec: its kind (None for all kinds), its names (matched without case),
# its form, its fields in order and its builder, which takes the field values.
Spec = namedtuple("Spec", "kind names form fields build")
SPECS = (
    Spec("channel", ("cnot",), "cnot", (), cnot_channel),
    Spec("channel", ("identity",), "identity:d", (INT,), identity_channel),
    Spec("channel", ("random",), "random:d[:tp|nontp][:seed]", (INT, Field("word", "tp", ("tp", "nontp")), SEED),
         lambda d, flag, seed: random_channel(d, tp=flag == "tp", seed=seed)),
    Spec("ensemble", ("sic",), "sic:d", (INT,), sic_states),
    Spec("ensemble", ("mub",), "mub:d", (INT,), mub_states),
    Spec("ensemble", ("natural",), "natural:d", (INT,), natural_basis_states),
    Spec("ensemble", ("random",), "random:d:M[:seed]", (INT, INT, SEED), random_states),
    Spec("ensemble", ("cube-states", "cube_states"), "cube-states:m", (INT,), cube_states),
    # POVM names take an optional -povm suffix.
    Spec("POVM", ("cube-povm", "cube_povm", "cube"), "cube-povm:m", (INT,), cube_povm),
    Spec("POVM", ("mub-povm", "mub_povm", "mub"), "mub-povm:d", (INT,), mub_povm),
    Spec("POVM", ("sic-povm", "sic_povm", "sic"), "sic-povm[:4]", (Field("int", 4),), sic_povm),
    Spec(None, ("file",), "file:path", (PATH,), pio.load_json),
)
# The document classes a file spec may load, per kind.
FILE_CLASSES = {"channel": (KrausChannel, ProcessMatrix), "ensemble": (InputEnsemble,), "POVM": (PovmCollection,)}


def build_spec(spec: str, *kinds: str):
    """The object a spec names, from the first of ``kinds`` with an entry of that name,
    or a ValueError naming the spec (and its form, once the name is known).

    Fields follow ``:`` or spaces (``sic:4`` is ``sic 4``); a path keeps the rest verbatim.
    """
    parts = [tok for tok in spec.replace(" ", ":").split(":") if tok]
    if not parts:
        raise ValueError("empty spec string")
    name = parts[0].lower()
    entry = next((e for kind in kinds for e in SPECS if e.kind in (kind, None) and name in e.names), None)
    if entry is None:
        raise ValueError(f"unknown {' or '.join(kinds)} spec {spec!r}")
    if PATH in entry.fields:
        path = spec.lstrip()[len(name) + 1:]
        parts = [name, path] if path else [name]
    values, form = parts[1:], entry.form
    if not sum(f.default is None for f in entry.fields) <= len(values) <= len(entry.fields):
        raise ValueError(f"spec {':'.join(parts)!r} has {len(values)} field(s); expected {form}")
    words = {w for f in entry.fields for w in f.words}
    args = []
    for f in entry.fields:
        value = values[0] if values else None
        # An optional field takes the next value only if it fits: a flag takes
        # only its words, and no other optional field takes a flag word.
        if value is None or f.default is not None and (value not in f.words if f.words else value in words):
            args.append(f.default)
            continue
        values.pop(0)
        try:
            args.append(value if f.type == "word" else int(value))
        except ValueError:
            raise ValueError(f"spec {spec!r} has a non-integer field {value!r}; expected {form}") from None
        if f.type == "seed" and args[-1] < 0:
            raise ValueError(f"spec {spec!r} has a negative seed {value!r}; expected {form}")
    if values:
        raise ValueError(f"spec {spec!r} does not match {form}; give each field once, in order")
    if PATH in entry.fields:  # the document may be of any of the kinds
        args.append(sum((FILE_CLASSES[kind] for kind in kinds), ()))
    return entry.build(*args)


def make_channel(spec: str):
    """The channel a channel spec names (see ``SPECS``)."""
    return build_spec(spec, "channel")


def make_ensemble(spec: str) -> InputEnsemble:
    """The input ensemble an ensemble spec names (see ``SPECS``)."""
    return build_spec(spec, "ensemble")


def make_povm(spec: str) -> PovmCollection:
    """The POVM collection a POVM spec names (see ``SPECS``)."""
    return build_spec(spec, "POVM")


def trial_seed(global_seed: int, point: int, trial: int) -> int:
    ss = np.random.SeedSequence((global_seed, point, trial))
    return int(ss.generate_state(1)[0])


def copies_per_state(total: int, ensemble: InputEnsemble, spec: str, povm: PovmCollection, povm_spec: str) -> int:
    """Copies per state of ``total`` spread evenly; total must be a positive multiple of M
    that gives every set of the POVM a shot (see :func:`check_shots`)."""
    m = ensemble.num_states
    if total < 1 or total % m:
        raise ValueError(
            f"total copies {total} must be positive and divisible by the {m} input states "
            f"of {spec!r}; choose a multiple of {m}"
        )
    check_shots(total // m, povm, povm_spec, f"total copies {total} ({total // m} per state of {spec!r})", m)
    return total // m


def check_shots(per_state: int, povm: PovmCollection, povm_spec: str, given: str, states: int = 1) -> None:
    """Refuse ``per_state`` copies per state, from the value ``given`` for ``states``
    states, if they leave a set of the POVM ``povm_spec`` without a shot."""
    if per_state < povm.num_sets:
        raise ValueError(
            f"{given} leave no shot for some of the {povm.num_sets} sets of POVM {povm_spec!r}; "
            f"choose at least {povm.num_sets * states}"
        )


def check_dimensions(dims: dict) -> None:
    """Refuse ``dims``, each spec or flag mapped to the dimension of what it gives,
    unless they share one d; the message names each."""
    if len(set(dims.values())) > 1:
        raise ValueError("dimension mismatch: " + "; ".join(f"{name}: d={d}" for name, d in dims.items()))


def _check_sweep(trials, grid, seed) -> None:
    """A study needs at least one trial, a non-empty positive grid and a seed >= 0."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not grid or min(grid) < 1:
        raise ValueError(f"the study grid must be non-empty and positive, got {list(grid)}")
    check_seed(seed)


def _meta(config: dict, seed: int) -> dict:
    """Table header: the config as sorted JSON, its short sha256, and the seed."""
    blob = json.dumps(config, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return {"config": blob, "config_sha256": digest, "seed": check_seed(seed)}


# Config keys whose type is checked up front, so a JSON typo fails by name.
# Plain types only: the table header is JSON, which takes no numpy scalars.
_CONFIG_TYPES = {"channel": str, "povm": str, "trials": int, "tp_prior": bool, "seed": int}


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
        for key, kind in _CONFIG_TYPES.items():
            value = getattr(self, key)
            # bool is an int too; only tp_prior takes one.
            if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        if isinstance(self.ensembles, str):
            self.ensembles = (self.ensembles,)
        specs, totals = self.ensembles, self.copies
        if not isinstance(specs, (list, tuple)) or not specs or not all(isinstance(s, str) for s in specs):
            raise ValueError(f"config key 'ensembles' must be a non-empty list of spec strings, got {specs!r}")
        # A fractional total would otherwise be truncated; bool is an int too.
        if not isinstance(totals, (list, tuple)) or not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in totals
        ):
            raise ValueError(f"config key 'copies' must be a list of integer totals, got {totals!r}")
        self.ensembles = tuple(self.ensembles)
        self.copies = tuple(int(n) for n in self.copies)
        _check_sweep(self.trials, self.copies, self.seed)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        return cls(**obj)

    def to_meta(self) -> dict:
        config = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output"}
        return _meta(config, self.seed)


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


def _run_study(meta, columns, scores, grid, trials, series, output) -> StudyResult:
    """The study loop shared by the copy sweep and the state-count sweep.

    ``series`` yields one ``(tag, prefix, trial)`` per swept curve, where
    ``trial(ip, point, it)`` returns one value per name in ``scores``.  Rows
    are ``[*prefix, point, mean, std, *other_means, seconds]`` for the first
    score's mean and std and the other scores' means.  With two or more grid
    points each score's means get a log-log slope, keyed ``score[tag]``.
    """
    _check_sweep(trials, grid, meta["seed"])
    rows, slopes = [], {}
    for tag, prefix, trial in series:
        curve = []
        for ip, point in enumerate(grid):
            t0 = time.perf_counter()
            per_trial = [trial(ip, point, it) for it in range(trials)]
            elapsed = time.perf_counter() - t0
            # One 1-D reduction per score keeps the summation order of a plain list.
            means = [float(np.mean(v)) for v in zip(*per_trial)]
            std = float(np.std([v[0] for v in per_trial]))
            rows.append([*prefix, point, means[0], std, *means[1:], elapsed])
            curve.append(means)
        if len(grid) > 1:
            for name, ys in zip(scores, zip(*curve)):
                slopes[f"{name}[{tag}]"] = loglog_slope(grid, ys)
    result = StudyResult(columns=columns, rows=rows, meta=meta, slopes=slopes)
    if output:
        result.save(output)
    return result


def run_scaling_study(cfg: ExperimentConfig) -> StudyResult:
    """Mean MSE and infidelity versus the total number of copies.

    Rows: (ensemble, total_copies, mean_mse, std_mse, mean_infidelity,
    runtime_s).  Log-log slopes against the copy totals are reported per
    ensemble when the schedule has at least two points.
    """
    channel = make_channel(cfg.channel)
    povm = make_povm(cfg.povm)
    x_true = channel.mat

    def series(spec):
        ensemble = make_ensemble(spec)
        check_dimensions({f"channel {cfg.channel!r}": channel.d, f"POVM {cfg.povm!r}": povm.d,
                          f"ensemble {spec!r}": ensemble.d})
        per_state = {total: copies_per_state(total, ensemble, spec, povm, cfg.povm) for total in cfg.copies}
        rec = TwoStageReconstructor(ensemble, povm)
        probs = ideal_probabilities(channel, ensemble, povm)

        def trial(ip, total, it):
            record = sample_record(
                probs, per_state[total], povm, seed=trial_seed(cfg.seed, ip, it), keep_ideal=False
            )
            est = rec.estimate(record, tp_prior=cfg.tp_prior)
            return squared_error(est.x_hat, x_true), infidelity(est.x_hat, x_true)

        label = ensemble.label or spec
        return label, [label], trial

    columns = ["ensemble", "total_copies", "mean_mse", "std_mse", "mean_infidelity", "runtime_s"]
    return _run_study(
        cfg.to_meta(), columns, ("mse", "infidelity"), cfg.copies, cfg.trials,
        [series(spec) for spec in cfg.ensembles], cfg.output,  # every spec checked before any trial
    )


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
    check_dimensions({"random ensembles (d, --dim)": d, f"channel {channel_spec!r}": channel.d,
                      f"POVM {povm_spec!r}": povm.d})
    check_shots(copies_per_state, povm, povm_spec, f"copies_per_state (--copies-per-state) {copies_per_state}")
    x_true = channel.mat

    def trial(ip, m, it):
        ensemble = random_states(d, int(m), seed=trial_seed(seed, ip, 2 * it))
        probs = ideal_probabilities(channel, ensemble, povm)
        record = sample_record(
            probs, copies_per_state, povm, seed=trial_seed(seed, ip, 2 * it + 1), keep_ideal=False
        )
        return (squared_error(TwoStageReconstructor(ensemble, povm).estimate(record).x_hat, x_true),)

    config = {
        "d": d,
        "num_states": list(num_states),
        "copies_per_state": copies_per_state,
        "povm": povm_spec,
        "channel": channel_spec,
        "trials": trials,
    }
    columns = ["num_states", "mean_mse", "std_mse", "runtime_s"]
    return _run_study(
        _meta(config, seed), columns, ("mse",), num_states, trials, [("num_states", [], trial)], output
    )


def design_audit(spec: str) -> list:
    """The printed lines of the design metrics of an ensemble or POVM spec."""
    design = build_spec(spec, "ensemble", "POVM")
    rep = design_metrics_C(design) if isinstance(design, PovmCollection) else design_metrics_V(design)
    return [
        f"design audit: {design.label}",
        f"  cost        {rep.cost:.6f}   (lower bound {rep.lower_cost:.6f})",
        f"  cond        {rep.cond:.6f}   (lower bound {rep.lower_cond:.6f})",
        f"  eigenvalues {', '.join(f'{v:.6g}' for v in rep.eigvals)}",
        f"  achieves lower bounds: {'yes' if rep.achieves else 'no'}",
    ]

