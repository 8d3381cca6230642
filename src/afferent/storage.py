"""Serialization: JSONL rollout logs, NPZ model containers, reports, curves.

All JSON output is emitted with sorted keys and no timestamps so identical
configs produce byte-identical files.  Model containers are plain NPZ
archives written into ``.bin`` files through an open file handle (np.savez
would otherwise force an .npz suffix).  A genome or safe-model checkpoint is
its dataclasses' fields in declaration order; the policy is hand-laid.
"""

from __future__ import annotations

import csv
import json
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .afferents import Genome
from .errors import ValidationError
from .policy import PolicyParams
from .predictive import DiscrepancyParams, SafeStateModel

__all__ = [
    "ROLLOUT_SCHEMA",
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

ROLLOUT_SCHEMA = {
    "type": "object",
    "properties": {
        "time": {"type": "number", "minimum": 0.0},
        "stress": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "strain": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "shear": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "scenario": {"type": "string"},
        "load_factor": {"type": "number"},
        "instability_index": {"type": "number"},
        "cat": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "cat_embedding": {"type": "array", "items": {"type": "number"}},
        "damage_increment": {"type": "number", "minimum": 0.0},
    },
    "required": [
        "time", "stress", "strain", "shear", "scenario", "load_factor",
        "instability_index", "cat", "cat_embedding", "damage_increment",
    ],
    "additionalProperties": False,
}


def validate_rollout_line(obj: dict) -> None:
    # imported here: jsonschema takes 80 ms to import, and only simulate validates
    from jsonschema import Draft202012Validator
    errors = sorted(Draft202012Validator(ROLLOUT_SCHEMA).iter_errors(obj), key=str)
    if errors:
        raise ValidationError(f"rollout record invalid: {errors[0].message}")


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
    members = {f.name: data[f.name] for f in fields(cls) if f.init}
    return cls(**{k: a.item() if a.ndim == 0 else a for k, a in members.items()})


def save_genome(path, genome: Genome, meta: dict | None = None) -> None:
    _savez(path, genome, meta=json.dumps(meta or {}, sort_keys=True))


def load_genome(path):
    data = _read_npz(path)
    return _record(data, Genome), json.loads(data["meta"].item())


def save_policy(path, policy: PolicyParams) -> None:
    na = policy.actor.n_params
    _savez(
        path,
        actor_sizes=np.array(policy.actor.sizes),
        actor_params=policy.theta[:na],
        critic_sizes=np.array(policy.critic.sizes),
        critic_params=policy.theta[na + 1:],
        log_std=np.array(policy.log_std),
        mode=np.array(policy.mode),
        obs_dim=np.array(policy.obs_dim),
    )


def load_policy(path) -> PolicyParams:
    data = _read_npz(path)
    sizes = [int(s) for s in data["actor_sizes"]]
    if [int(s) for s in data["critic_sizes"]] != sizes:
        raise ValidationError("critic sizes do not match actor sizes")
    theta = np.concatenate([data["actor_params"], [data["log_std"]],
                            data["critic_params"]], dtype=float)
    return PolicyParams(theta, sizes, data["mode"].item())


def save_safe_model(path, model: SafeStateModel, disc: DiscrepancyParams) -> None:
    _savez(path, model, disc)


def load_safe_model(path):
    data = _read_npz(path)
    return _record(data, SafeStateModel), _record(data, DiscrepancyParams)
