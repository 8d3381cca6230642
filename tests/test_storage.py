import json

import numpy as np
import pytest

from afferent.afferents import Genome, handcrafted_genome
from afferent.errors import ValidationError
from afferent.policy import init_policy
from afferent.predictive import DiscrepancyParams, SafeStateModel
from afferent.storage import (
    load_genome,
    load_policy,
    load_safe_model,
    read_jsonl,
    save_genome,
    save_policy,
    save_safe_model,
    validate_rollout_line,
    write_csv,
    write_json_report,
    write_jsonl,
)
from afferent.util import rng_for

GOOD_LINE = {
    "time": 0.25,
    "stress": 0.5,
    "strain": 0.4,
    "shear": 0.3,
    "scenario": "normal",
    "load_factor": 1.0,
    "instability_index": 0.05,
    "cat": 0.2,
    "cat_embedding": [0.1, 0.2, 0.3],
    "damage_increment": 0.0,
}


def test_schema_accepts_good_line():
    validate_rollout_line(GOOD_LINE)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("cat"),
    lambda d: d.update(cat=1.5),
    lambda d: d.update(stress=-0.1),
    lambda d: d.update(scenario=3),
    lambda d: d.update(cat_embedding="dense"),
    lambda d: d.update(damage_increment=-1e-9),
    lambda d: d.update(surprise=1.0),
])
def test_schema_rejects_bad_lines(mutate):
    bad = dict(GOOD_LINE)
    mutate(bad)
    with pytest.raises(ValidationError):
        validate_rollout_line(bad)


def test_cli_and_harness_import_without_jsonschema(run_python):
    # Only simulate validates rollout lines, so no other command pays the import.
    code = "import sys, afferent.cli, afferent.harness; print('jsonschema' in sys.modules)"
    assert run_python(code, timeout=60).strip() == "False"


def test_jsonl_round_trip_and_sorted_keys(tmp_path):
    path = tmp_path / "runs" / "log.jsonl"
    records = [{"b": 1, "a": 2}, {"z": [1, 2], "a": {"y": 0.5}}]
    write_jsonl(path, records)
    assert read_jsonl(path) == records
    first = path.read_text().splitlines()[0]
    assert first == '{"a": 2, "b": 1}'


def test_json_report_deterministic_bytes(tmp_path):
    obj = {"beta": 0.5, "alpha": {"nested": [1.0, 2.0]}}
    write_json_report(tmp_path / "a.json", obj)
    write_json_report(tmp_path / "b.json", obj)
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a.endswith(b"\n")
    assert json.loads(a) == obj


def test_write_csv(tmp_path):
    path = tmp_path / "curves" / "c.csv"
    write_csv(path, ["gen", "best"], [[0, 0.5], [1, 0.75]])
    assert path.read_text() == "gen,best\n0,0.5\n1,0.75\n"


def test_genome_round_trip(tmp_path):
    genome = handcrafted_genome(4, 3)
    path = tmp_path / "genomes" / "g.bin"
    save_genome(path, genome, meta={"fitness": 0.5, "generations": 2})
    loaded, meta = load_genome(path)
    assert isinstance(loaded, Genome)
    assert np.array_equal(loaded.raw, genome.raw)
    assert loaded.m == 4 and loaded.k == 3
    assert meta == {"fitness": 0.5, "generations": 2}


def test_genome_default_meta(tmp_path):
    save_genome(tmp_path / "g.bin", handcrafted_genome(2, 3))
    _, meta = load_genome(tmp_path / "g.bin")
    assert meta == {}


def test_policy_round_trip(tmp_path):
    policy = init_policy(5, rng_for(3), mode="epi", hidden=(8, 4))
    policy.log_std = -1.25
    path = tmp_path / "p.bin"
    save_policy(path, policy)
    loaded = load_policy(path)
    assert loaded.mode == "epi" and loaded.obs_dim == 5
    assert loaded.log_std == -1.25
    assert np.array_equal(loaded.theta, policy.theta)
    obs = rng_for(4).uniform(0, 1, (6, 5))
    assert np.array_equal(loaded.actor.forward(obs)[0], policy.actor.forward(obs)[0])
    assert np.array_equal(loaded.value(obs), policy.value(obs))


def test_load_policy_rejects_mismatched_parts(tmp_path):
    policy = init_policy(5, rng_for(3), mode="epi", hidden=(8, 4))
    save_policy(tmp_path / "p.bin", policy)
    with np.load(tmp_path / "p.bin") as data:
        arrays = dict(data)
    for key, value in (("actor_params", arrays["actor_params"][:-1]),
                       ("critic_sizes", np.array([5, 8, 1]))):
        with open(tmp_path / "bad.bin", "wb") as fh:
            np.savez(fh, **dict(arrays, **{key: value}))
        with pytest.raises(ValidationError):
            load_policy(tmp_path / "bad.bin")


def test_safe_model_round_trip(tmp_path):
    model = SafeStateModel(A=rng_for(5).normal(size=(3, 7)), b=np.array([0.1, 0.2, 0.3]),
                           residual_rms=0.04, ridge=True, delta0=0.11)
    disc = DiscrepancyParams(kappa=8.0, lambda_env=0.6, lambda_pred=0.4)
    path = tmp_path / "m.bin"
    save_safe_model(path, model, disc)
    m2, d2 = load_safe_model(path)
    assert np.array_equal(m2.A, model.A) and np.array_equal(m2.b, model.b)
    assert (m2.residual_rms, m2.ridge, m2.delta0) == (0.04, True, 0.11)
    assert d2 == disc


def test_bin_files_keep_requested_name(tmp_path):
    save_genome(tmp_path / "exact.bin", handcrafted_genome(2, 3))
    assert (tmp_path / "exact.bin").is_file()
    assert not (tmp_path / "exact.bin.npz").exists()


# The checkpoint layouts as np.savez calls with each member spelled out: the
# member order and dtypes that files already written rely on.
def _write_npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _genome_arrays(genome, meta):
    return dict(raw=np.asarray(genome.raw, dtype=float), m=np.array(genome.m),
                k=np.array(genome.k), meta=np.array(json.dumps(meta, sort_keys=True)))


def _safe_model_arrays(model, disc):
    return dict(A=np.asarray(model.A, dtype=float), b=np.asarray(model.b, dtype=float),
                residual_rms=np.array(model.residual_rms), ridge=np.array(model.ridge),
                delta0=np.array(model.delta0), kappa=np.array(disc.kappa),
                lambda_env=np.array(disc.lambda_env), lambda_pred=np.array(disc.lambda_pred))


def _safe_model():
    # A holds transposed least-squares coefficients, so it is Fortran-ordered.
    model = SafeStateModel(A=rng_for(5).normal(size=(7, 3)).T, b=np.array([0.1, 0.2, 0.3]),
                           residual_rms=0.04, ridge=True, delta0=0.11)
    return model, DiscrepancyParams(kappa=8.0, lambda_env=0.6, lambda_pred=0.4)


def test_checkpoint_bytes_equal_spelled_out_layout(tmp_path):
    genome = handcrafted_genome(4, 3)
    for meta in ({}, {"fitness": 0.5}):
        save_genome(tmp_path / "g.bin", genome, meta=meta or None)
        _write_npz(tmp_path / "g_ref.bin", **_genome_arrays(genome, meta))
        assert (tmp_path / "g.bin").read_bytes() == (tmp_path / "g_ref.bin").read_bytes()
    model, disc = _safe_model()
    assert model.A.flags.f_contiguous and not model.A.flags.c_contiguous
    save_safe_model(tmp_path / "m.bin", model, disc)
    _write_npz(tmp_path / "m_ref.bin", **_safe_model_arrays(model, disc))
    assert (tmp_path / "m.bin").read_bytes() == (tmp_path / "m_ref.bin").read_bytes()
    assert load_safe_model(tmp_path / "m.bin")[0].A.flags.f_contiguous


def test_checkpoint_member_names_and_order(tmp_path):
    save_genome(tmp_path / "g.bin", handcrafted_genome(4, 3))
    save_safe_model(tmp_path / "m.bin", *_safe_model())
    save_policy(tmp_path / "p.bin", init_policy(5, rng_for(3), mode="epi", hidden=(8, 4)))
    want = {
        "g.bin": ["raw", "m", "k", "meta"],
        "m.bin": ["A", "b", "residual_rms", "ridge", "delta0", "kappa", "lambda_env",
                  "lambda_pred"],
        "p.bin": ["actor_sizes", "actor_params", "critic_sizes", "critic_params",
                  "log_std", "mode", "obs_dim"],
    }
    for name, members in want.items():
        with np.load(tmp_path / name) as data:
            assert data.files == members


def test_spelled_out_layout_loads_with_python_scalars(tmp_path):
    genome = handcrafted_genome(4, 3)
    _write_npz(tmp_path / "g.bin", **_genome_arrays(genome, {"generations": 2}))
    loaded, meta = load_genome(tmp_path / "g.bin")
    assert np.array_equal(loaded.raw, genome.raw) and loaded.raw.dtype == float
    assert (type(loaded.m), type(loaded.k), loaded.m, loaded.k) == (int, int, 4, 3)
    assert meta == {"generations": 2}
    model, disc = _safe_model()
    _write_npz(tmp_path / "m.bin", **_safe_model_arrays(model, disc))
    m2, d2 = load_safe_model(tmp_path / "m.bin")
    assert np.array_equal(m2.A, model.A) and np.array_equal(m2.b, model.b)
    scalars = (m2.residual_rms, m2.ridge, m2.delta0, d2.kappa, d2.lambda_env, d2.lambda_pred)
    assert scalars == (0.04, True, 0.11, 8.0, 0.6, 0.4)
    assert [type(v) for v in scalars] == [float, bool, float, float, float, float]
    policy = init_policy(5, rng_for(3), mode="epi", hidden=(8, 4))
    save_policy(tmp_path / "p.bin", policy)
    assert type(load_policy(tmp_path / "p.bin").mode) is str


@pytest.mark.parametrize("load", [load_genome, load_policy, load_safe_model])
def test_loaders_reject_a_file_that_is_not_an_npz_archive(load, tmp_path):
    npy = tmp_path / "a.bin"
    with open(npy, "wb") as fh:
        np.save(fh, np.zeros(3))
    save_genome(tmp_path / "g.bin", handcrafted_genome(2, 3))
    whole = (tmp_path / "g.bin").read_bytes()
    (tmp_path / "half.bin").write_bytes(whole[:len(whole) // 2])
    (tmp_path / "t.bin").write_text("m = 8\n")
    (tmp_path / "e.bin").write_bytes(b"")
    for name in ("a.bin", "half.bin", "t.bin", "e.bin"):
        with pytest.raises(ValidationError, match="^not an NPZ archive$"):
            load(tmp_path / name)
