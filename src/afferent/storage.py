"""Serialization: JSONL rollout logs, NPZ model containers, reports, curves.

All JSON output is emitted with sorted keys and no timestamps so identical
configs produce byte-identical files.  Model containers are plain NPZ
archives written into ``.bin`` files through an open file handle (np.savez
would otherwise force an .npz suffix).
"""

from __future__ import annotations

import csv
import json
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


def _savez(path, **arrays) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _meta_str(data) -> str:
    return str(data[()]) if data.shape == () else str(data)


def save_genome(path, genome: Genome, meta: dict | None = None) -> None:
    _savez(
        path,
        raw=np.asarray(genome.raw, dtype=float),
        m=np.array(genome.m),
        k=np.array(genome.k),
        meta=np.array(json.dumps(meta or {}, sort_keys=True)),
    )


def load_genome(path):
    with np.load(path, allow_pickle=False) as data:
        genome = Genome(raw=np.array(data["raw"], dtype=float),
                        m=int(data["m"]), k=int(data["k"]))
        meta = json.loads(_meta_str(data["meta"]))
    return genome, meta


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
    with np.load(path, allow_pickle=False) as data:
        sizes = [int(s) for s in data["actor_sizes"]]
        if [int(s) for s in data["critic_sizes"]] != sizes:
            raise ValidationError("critic sizes do not match actor sizes")
        theta = np.concatenate([data["actor_params"], [data["log_std"]],
                                data["critic_params"]], dtype=float)
        return PolicyParams(theta, sizes, _meta_str(data["mode"]))


def save_safe_model(path, model: SafeStateModel, disc: DiscrepancyParams) -> None:
    _savez(
        path,
        A=np.asarray(model.A, dtype=float),
        b=np.asarray(model.b, dtype=float),
        residual_rms=np.array(model.residual_rms),
        ridge=np.array(model.ridge),
        w_delta=np.asarray(disc.w_delta, dtype=float),
        kappa=np.array(disc.kappa),
        delta0=np.array(disc.delta0),
        lambda_env=np.array(disc.lambda_env),
        lambda_pred=np.array(disc.lambda_pred),
    )


def load_safe_model(path):
    with np.load(path, allow_pickle=False) as data:
        model = SafeStateModel(
            A=np.array(data["A"], dtype=float),
            b=np.array(data["b"], dtype=float),
            residual_rms=float(data["residual_rms"]),
            ridge=bool(data["ridge"]),
        )
        disc = DiscrepancyParams(
            w_delta=np.array(data["w_delta"], dtype=float),
            kappa=float(data["kappa"]),
            delta0=float(data["delta0"]),
            lambda_env=float(data["lambda_env"]),
            lambda_pred=float(data["lambda_pred"]),
        )
    return model, disc
