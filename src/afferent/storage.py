"""Serialization: JSONL rollout logs, NPZ model containers, reports, curves.

All JSON output is emitted with sorted keys and no timestamps so identical
configs produce byte-identical files.  Model containers are plain NPZ
archives written into ``.bin`` files through an open file handle (np.savez
would otherwise force an .npz suffix).  Every checkpoint is its dataclasses'
fields in declaration order: genome raw, m, k plus meta; safe model A, b,
residual_rms, ridge, delta0, kappa, lambda_env, lambda_pred; policy theta,
sizes, mode.
"""

from __future__ import annotations

import csv
import json
import math
import zipfile
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .afferents import Genome
from .errors import ValidationError, bounded, check_bounds
from .policy import PolicyParams
from .predictive import DiscrepancyParams, SafeStateModel

__all__ = [
    "RolloutLine",
    "validate_rollout_line",
    "write_jsonl",
    "read_jsonl",
    "write_json_report",
    "write_csv",
    "save_genome",
    "load_genome",
    "save_policy",
    "load_policy",
    "save_safe_model",
    "load_safe_model",
]


@dataclass
class RolloutLine:
    """One line of a simulate rollout log: its keys, their kinds and bounds."""

    time: float = bounded(MISSING, ">= 0")
    stress: float = bounded(MISSING, "in [0, 1]")
    strain: float = bounded(MISSING, "in [0, 1]")
    shear: float = bounded(MISSING, "in [0, 1]")
    scenario: str
    load_factor: float
    instability_index: float
    cat: float = bounded(MISSING, "in [0, 1]")
    cat_embedding: list
    damage_increment: float = bounded(MISSING, ">= 0")


def _number(v) -> bool:
    """A finite int or float; as in JSON, a bool is not a number."""
    return (math.isfinite(v) if isinstance(v, float)
            else isinstance(v, int) and not isinstance(v, bool))


_KINDS = {"str": ("a string", lambda v: isinstance(v, str)),
          "float": ("a finite number", _number),
          "list": ("a list of finite numbers",
                   lambda v: isinstance(v, list) and all(map(_number, v)))}
_LINE_KINDS = {f.name: _KINDS[f.type] for f in fields(RolloutLine)}


def validate_rollout_line(obj: dict) -> None:
    """Hold obj to RolloutLine: exactly its keys, then each value's kind, then the bounds."""
    def invalid(message):
        return ValidationError(f"rollout record invalid: {message}")
    if obj.keys() != _LINE_KINDS.keys():
        raise invalid(f"keys must be {', '.join(_LINE_KINDS)}, not {', '.join(map(str, obj))}")
    for name, (kind, holds) in _LINE_KINDS.items():
        if not holds(obj[name]):
            raise invalid(f"{name} must be {kind}")
    check_bounds(RolloutLine(**obj), invalid)


def write_jsonl(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_json_report(path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _savez(path, *records, **arrays) -> None:
    """Write each record's fields in declaration order, then the named arrays."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    members = {f.name: getattr(r, f.name) for r in records for f in fields(r)}
    with open(path, "wb") as fh:
        np.savez(fh, **members, **arrays)


def _read_npz(path) -> dict:
    """{name: array} of an NPZ archive; any other file is a ValidationError."""
    if not zipfile.is_zipfile(path):
        raise ValidationError("not an NPZ archive")
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    for name, member in members.items():
        if not isinstance(member, np.ndarray):  # a member without the .npy header
            raise ValidationError(f"member {name!r} is not an array")
    return members


def _record(data, cls):
    """A cls from the members named by its init fields, 0-d ones as Python scalars."""
    missing = [f.name for f in fields(cls) if f.init and f.name not in data]
    if missing:
        raise ValidationError(f"missing member {missing[0]!r} of a {cls.__name__} checkpoint")
    members = {f.name: data[f.name] for f in fields(cls) if f.init}
    return cls(**{k: a.item() if a.ndim == 0 else a for k, a in members.items()})


def save_genome(path, genome: Genome, meta: dict | None = None) -> None:
    _savez(path, genome, meta=json.dumps(meta or {}, sort_keys=True))


def load_genome(path):
    data = _read_npz(path)
    return _record(data, Genome), json.loads(data["meta"].item())


def save_policy(path, policy: PolicyParams) -> None:
    _savez(path, policy)


def load_policy(path) -> PolicyParams:
    return _record(_read_npz(path), PolicyParams)


def save_safe_model(path, model: SafeStateModel, disc: DiscrepancyParams) -> None:
    _savez(path, model, disc)


def load_safe_model(path):
    data = _read_npz(path)
    return _record(data, SafeStateModel), _record(data, DiscrepancyParams)
