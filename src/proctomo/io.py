"""Serialization: a shared JSON document format plus delimited-text tables.

Every object kind carries a ``kind`` tag; complex matrices are stored as
separate real/imaginary nested lists.  JSON serializes doubles via repr, so
round trips are bit-exact.  Records additionally export as tab-separated
text (a commented header followed by the frequency matrix) for plotting
tools; the JSON form is the lossless one and keeps raw counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import KrausChannel, ProcessMatrix
from .ensembles import InputEnsemble
from .povms import PovmCollection
from .reconstruct import ProcessEstimate
from .simulate import MeasurementRecord


def _matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _matrix_from_obj(obj: dict) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "kind": "channel",
        "d": ch.d,
        "label": ch.label,
        "kraus": [_matrix_to_obj(a) for a in ch.kraus],
    }


def channel_from_dict(obj: dict) -> KrausChannel:
    return KrausChannel(
        tuple(_matrix_from_obj(a) for a in obj["kraus"]), label=obj.get("label", "")
    )


def process_to_dict(x: ProcessMatrix) -> dict:
    return {"kind": "process", "d": x.d, "label": x.label, "mat": _matrix_to_obj(x.mat)}


def process_from_dict(obj: dict) -> ProcessMatrix:
    return ProcessMatrix(_matrix_from_obj(obj["mat"]), label=obj.get("label", ""))


def ensemble_to_dict(e: InputEnsemble) -> dict:
    return {
        "kind": "ensemble",
        "d": e.d,
        "label": e.label,
        "states": [_matrix_to_obj(s) for s in e.states],
    }


def ensemble_from_dict(obj: dict) -> InputEnsemble:
    return InputEnsemble(
        tuple(_matrix_from_obj(s) for s in obj["states"]), label=obj.get("label", "")
    )


def povm_to_dict(p: PovmCollection) -> dict:
    return {
        "kind": "povm",
        "d": p.d,
        "label": p.label,
        "sets": [[_matrix_to_obj(op) for op in group] for group in p.sets],
    }


def povm_from_dict(obj: dict) -> PovmCollection:
    return PovmCollection(
        tuple(tuple(_matrix_from_obj(op) for op in group) for group in obj["sets"]),
        label=obj.get("label", ""),
    )


def record_to_dict(r: MeasurementRecord) -> dict:
    obj = {
        "kind": "record",
        "set_sizes": list(r.set_sizes),
        "shots_per_set": r.shots_per_set,
        "seed": r.seed,
        "sampler": r.sampler,
    }
    for key in ("freq", "counts", "lost_counts", "ideal"):
        value = getattr(r, key)
        obj[key] = None if value is None else value.tolist()
    return obj


def record_from_dict(obj: dict) -> MeasurementRecord:
    def arr(key, dtype):
        return None if obj.get(key) is None else np.asarray(obj[key], dtype=dtype)

    return MeasurementRecord(
        freq=np.asarray(obj["freq"], dtype=float),
        set_sizes=tuple(obj["set_sizes"]),
        shots_per_set=obj.get("shots_per_set"),
        seed=obj.get("seed"),
        counts=arr("counts", np.int64),
        lost_counts=arr("lost_counts", np.int64),
        ideal=arr("ideal", float),
        # Records written before the field existed were drawn by sampler 1.
        sampler=obj.get("sampler", 1),
    )


def estimate_to_dict(est: ProcessEstimate, include_intermediates: bool = False) -> dict:
    obj = {
        "kind": "estimate",
        "d": est.d,
        "x_hat": _matrix_to_obj(est.x_hat),
        "diagnostics": {
            "trace_rank": est.trace_rank,
            "clipped_count": est.clipped_count,
            "tp_prior": est.tp_prior,
            "tp_fallback": est.tp_fallback,
            "copies_per_state": est.copies_per_state,
            "trace_spectrum": np.asarray(est.trace_spectrum).tolist(),
            "adjusted_spectrum": np.asarray(est.adjusted_spectrum).tolist(),
            "capped_spectrum": np.asarray(est.capped_spectrum).tolist(),
        },
    }
    if include_intermediates:
        obj["intermediates"] = {
            "output_coeffs": _matrix_to_obj(est.output_coeffs),
            "least_squares": _matrix_to_obj(est.least_squares),
            "psd_projection": _matrix_to_obj(est.psd_projection),
            "trace_rotation": _matrix_to_obj(est.trace_rotation),
        }
    return obj


def estimate_from_dict(obj: dict) -> ProcessEstimate:
    diag = obj["diagnostics"]
    inter = obj.get("intermediates") or {}

    def mat(key):
        return _matrix_from_obj(inter[key]) if key in inter else None

    return ProcessEstimate(
        x_hat=_matrix_from_obj(obj["x_hat"]),
        output_coeffs=mat("output_coeffs"),
        least_squares=mat("least_squares"),
        psd_projection=mat("psd_projection"),
        trace_spectrum=np.asarray(diag["trace_spectrum"], dtype=float),
        adjusted_spectrum=np.asarray(diag["adjusted_spectrum"], dtype=float),
        capped_spectrum=np.asarray(diag["capped_spectrum"], dtype=float),
        trace_rotation=mat("trace_rotation"),
        trace_rank=diag["trace_rank"],
        clipped_count=diag["clipped_count"],
        tp_prior=diag["tp_prior"],
        tp_fallback=diag["tp_fallback"],
        copies_per_state=diag["copies_per_state"],
    )


_TO_DICT = {
    KrausChannel: channel_to_dict,
    ProcessMatrix: process_to_dict,
    InputEnsemble: ensemble_to_dict,
    PovmCollection: povm_to_dict,
    MeasurementRecord: record_to_dict,
    ProcessEstimate: estimate_to_dict,
}

_FROM_DICT = {
    "channel": channel_from_dict,
    "process": process_from_dict,
    "ensemble": ensemble_from_dict,
    "povm": povm_from_dict,
    "record": record_from_dict,
    "estimate": estimate_from_dict,
}


def save_json(obj, path, **kwargs) -> None:
    """Write ``obj`` as a JSON document; ``kwargs`` go to its converter
    (``include_intermediates`` for estimates)."""
    for cls, conv in _TO_DICT.items():
        if isinstance(obj, cls):
            Path(path).write_text(json.dumps(conv(obj, **kwargs), indent=1))
            return
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def load_json(path):
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path} is not a JSON document: {exc}") from None
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in _FROM_DICT:
        raise ValueError(f"unknown document kind {kind!r} in {path}")
    try:
        return _FROM_DICT[kind](obj)
    except KeyError as exc:
        raise ValueError(f"{kind} document {path} lacks the required field {exc.args[0]!r}") from None


def record_to_text(r: MeasurementRecord) -> str:
    """Delimited-text export: commented header, then the frequency matrix."""
    copies = r.copies_per_state
    lines = [
        f"# states\t{r.num_states}",
        f"# operators\t{r.num_operators}",
        f"# sets\t{r.num_sets}",
        f"# set_sizes\t{','.join(str(n) for n in r.set_sizes)}",
        f"# copies_per_state\t{'' if copies is None else copies}",
        f"# shots_per_set\t{'' if r.shots_per_set is None else r.shots_per_set}",
        f"# seed\t{'' if r.seed is None else r.seed}",
        f"# sampler\t{'' if r.sampler is None else r.sampler}",
    ]
    for row in r.freq:
        lines.append("\t".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def record_from_text(text: str) -> MeasurementRecord:
    meta, rows = {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("\t")
            meta[key.strip()] = value.strip()
        else:
            rows.append([float(v) for v in line.split("\t")])
    # As in record_from_dict, a table without a sampler line was drawn by sampler 1.
    sampler = meta.get("sampler", "1")
    return MeasurementRecord(
        freq=np.asarray(rows, dtype=float),
        set_sizes=tuple(int(n) for n in meta["set_sizes"].split(",")),
        shots_per_set=int(meta["shots_per_set"]) if meta.get("shots_per_set") else None,
        seed=int(meta["seed"]) if meta.get("seed") else None,
        sampler=int(sampler) if sampler else None,
    )


def write_table(path, header_meta: dict, columns: list, rows: list, append: bool = True) -> None:
    """Self-describing TSV table: '# key<TAB>value' lines, column names, rows."""
    lines = [f"# {k}\t{v}" for k, v in header_meta.items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append(
            "\t".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row
            )
        )
    mode = "a" if append and Path(path).exists() else "w"
    with open(path, mode) as fh:
        fh.write("\n".join(lines) + "\n")
