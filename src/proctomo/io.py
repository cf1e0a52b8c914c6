"""Serialization: a shared JSON document format plus delimited-text study tables.

One table, ``KINDS``, gives each document kind its class, whether it writes
the dimension ``d`` (never read back) and its fields: an attribute name, a
codec to JSON and back, a default for a missing key (``REQUIRED`` for none)
and a section (top level, or an estimate's ``diagnostics`` or
``intermediates``, the latter written only on request).  ``to_dict`` and
``from_dict`` walk it; ``from_dict`` is the one place where a malformed
document becomes a ValueError naming the path, the kind and the field (or,
when the class's own checks refuse the decoded fields, the class's message).
Complex matrices are stored as real/imaginary nested lists and JSON writes
doubles via repr, so round trips are bit-exact.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np

from .channels import KrausChannel, ProcessMatrix
from .ensembles import InputEnsemble, PovmCollection
from .reconstruct import ProcessEstimate
from .simulate import MeasurementRecord


def _matrix_out(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _matrix_in(obj) -> np.ndarray:
    # Assigned, not added: re + 1j * im would turn an imaginary -0.0 into 0.0.
    m = np.asarray(obj["re"], dtype=float).astype(complex)
    m.imag = np.asarray(obj["im"], dtype=float)
    return m


# Codecs: (attribute -> JSON value, JSON value -> attribute).
PLAIN = (lambda v: v, lambda v: v)
MATRIX = (_matrix_out, _matrix_in)
MATRICES = (lambda ms: [_matrix_out(m) for m in ms], lambda obj: tuple(_matrix_in(m) for m in obj))
SETS = (lambda sets: [MATRICES[0](g) for g in sets], lambda obj: tuple(MATRICES[1](g) for g in obj))
REAL = (lambda a: np.asarray(a).tolist(), partial(np.asarray, dtype=float))

REQUIRED = object()
Field = namedtuple("Field", "name codec default section", defaults=(PLAIN, REQUIRED, None))

# kind -> (class, writes d, fields in document order)
KINDS = {
    "channel": (KrausChannel, True, (Field("label", default=""), Field("kraus", MATRICES))),
    "process": (ProcessMatrix, True, (Field("label", default=""), Field("mat", MATRIX))),
    "ensemble": (InputEnsemble, True, (Field("label", default=""), Field("states", MATRICES))),
    "povm": (PovmCollection, True, (Field("label", default=""), Field("sets", SETS))),
    "record": (MeasurementRecord, False, (
        Field("set_sizes"),
        *(Field(n, default=None) for n in ("shots_per_set", "seed")),
        Field("sampler", default=1),  # records written before the field existed came from sampler 1
        # Older files also carry counts and lost_counts, which are not read: freq times shots_per_set holds them.
        Field("freq", REAL),
        Field("ideal", REAL, None),
    )),
    "estimate": (ProcessEstimate, True, (
        Field("x_hat", MATRIX),
        *(Field(n, section="diagnostics")
          for n in ("trace_rank", "clipped_count", "tp_prior", "tp_fallback", "copies_per_state")),
        # Older files also carry two derived spectra; from_dict reads only the keys listed here.
        Field("trace_spectrum", REAL, section="diagnostics"),
        # Step 1's coordinates are real; an older file's complex {"re", "im"} value is refused.
        Field("output_coeffs", REAL, None, "intermediates"),
        *(Field(n, MATRIX, None, "intermediates") for n in ("least_squares", "psd_projection", "trace_rotation")),
    )),
}


def to_dict(obj, include_intermediates: bool = False) -> dict:
    """The JSON document of ``obj``, with an estimate's intermediates if asked."""
    kind = next((k for k, (cls, _, _) in KINDS.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
    _, writes_d, fields = KINDS[kind]
    doc = {"kind": kind, "d": obj.d} if writes_d else {"kind": kind}
    for f in fields:
        if f.section == "intermediates" and not include_intermediates:
            continue
        value = getattr(obj, f.name)
        holder = doc if f.section is None else doc.setdefault(f.section, {})
        holder[f.name] = None if value is None else f.codec[0](value)
    return doc


def from_dict(doc, where):
    """The object a JSON document describes; ``where`` names its source in errors."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r} in {where}")
    cls, _, fields = KINDS[kind]
    values = {}
    for f in fields:
        try:
            holder = doc if f.section is None else doc.get(f.section) or {}
            raw = holder[f.name] if f.name in holder else f.default
            if raw is REQUIRED:
                raise KeyError(f.name)
            # null reads as None where None is the default, else goes to the codec
            values[f.name] = None if raw is None and f.default is None else f.codec[1](raw)
        except KeyError as exc:
            raise ValueError(f"{kind} document {where} lacks the required field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} document {where} has a malformed field {f.name!r}: {exc}") from None
    try:
        return cls(**values)
    except ValueError as exc:  # the class's own checks on the decoded fields
        raise ValueError(f"{kind} document {where}: {exc}") from None


def save_json(obj, path, include_intermediates: bool = False) -> None:
    """Write ``obj`` as a JSON document (see ``to_dict``)."""
    Path(path).write_text(json.dumps(to_dict(obj, include_intermediates), indent=1))


def read_json(path):
    """The JSON value in the file at ``path``, or a ValueError naming the path."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise ValueError(f"{path} is not a JSON document: {exc}") from None


def load_json(path, kinds: tuple = (object,)):
    """The object of the JSON document at ``path``, refused unless it is an
    instance of one of ``kinds``."""
    obj = from_dict(read_json(path), path)
    if not isinstance(obj, kinds):
        raise ValueError(f"{path} does not contain a {' or '.join(k.__name__ for k in kinds)}")
    return obj


def write_table(path, header_meta: dict, columns: list, rows: list) -> None:
    """Append a self-describing TSV table: '# key<TAB>value' lines, column names, rows."""
    lines = [f"# {k}\t{v}" for k, v in header_meta.items()]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append(
            "\t".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row
            )
        )
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")
