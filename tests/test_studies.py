import json

import numpy as np
import pytest

import proctomo.io as pio
from proctomo.channels import cnot_channel, process_matrix, random_channel
from proctomo.studies import (
    ExperimentConfig,
    make_channel,
    make_ensemble,
    make_povm,
    run_m_scaling_study,
    run_scaling_study,
    trial_seed,
)


def test_trial_seed_deterministic_and_distinct():
    assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)
    seeds = {trial_seed(0, p, t) for p in range(4) for t in range(10)}
    assert len(seeds) == 40


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(copies=())
    cfg = ExperimentConfig(ensembles="mub:2", copies=[600])
    assert cfg.ensembles == ("mub:2",)
    assert cfg.copies == (600,)


def test_experiment_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"channel": "cnot", "copies": [10800], "trials": 2, "seed": 5}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.channel == "cnot"
    assert cfg.trials == 2
    meta = cfg.to_meta()
    assert "config_sha256" in meta and meta["seed"] == 5


def test_factories(tmp_path):
    assert make_channel("identity:3").d == 3
    assert make_channel("cnot").d == 4
    ch = make_channel("random:2:nontp:9")
    assert not ch.is_trace_preserving
    assert make_ensemble("cube-states:2").num_states == 36
    assert make_povm("mub:4").num_sets == 5  # -povm suffix optional
    path = tmp_path / "ch.json"
    pio.save_json(cnot_channel(), path)
    loaded = make_channel(f"file:{path}")
    assert np.array_equal(loaded.kraus[0], cnot_channel().kraus[0])
    with pytest.raises(ValueError):
        make_ensemble(f"file:{path}")  # wrong document kind
    for bad in ("nope:2", ""):
        with pytest.raises(ValueError):
            make_channel(bad)


def test_scaling_study_rejects_indivisible_copies():
    cfg = ExperimentConfig(
        channel="random:2:tp:5", ensembles=("mub:2",), povm="cube-povm:1",
        copies=(601,), trials=1,
    )
    with pytest.raises(ValueError, match="divisible"):
        run_scaling_study(cfg)


def mean_mse(trials, seed):
    cfg = ExperimentConfig(
        channel="random:2:tp:5", ensembles=("mub:2",), povm="cube-povm:1",
        copies=(600,), trials=trials, seed=seed,
    )
    return run_scaling_study(cfg).rows[0][2]


def test_more_trials_shrink_std_of_mean():
    # quadrupling the trial count halves the std of the mean, roughly
    reps = 25
    std4 = np.std([mean_mse(4, 10_000 + k) for k in range(reps)])
    std16 = np.std([mean_mse(16, 20_000 + k) for k in range(reps)])
    assert 0.3 <= std16 / std4 <= 0.8


@pytest.mark.parametrize(
    "factory, spec",
    [
        (make_channel, "random"),
        (make_channel, "file"),
        (make_channel, "identity"),
        (make_ensemble, "random:4"),
        (make_ensemble, "sic"),
        (make_ensemble, "cube-states"),
        (make_povm, "cube-povm"),
        (make_povm, "file"),
    ],
)
def test_incomplete_specs_name_the_expected_form(factory, spec):
    with pytest.raises(ValueError, match="expected"):
        factory(spec)


def test_m_scaling_study_accepts_process_matrix_file(tmp_path):
    path = tmp_path / "process.json"
    pio.save_json(process_matrix(random_channel(2, tp=True, seed=5)), path)
    kwargs = dict(d=2, num_states=(6, 8), copies_per_state=600, povm_spec="cube-povm:1", trials=2, seed=4)
    from_file = run_m_scaling_study(channel_spec=f"file:{path}", **kwargs)
    from_kraus = run_m_scaling_study(channel_spec="random:2:tp:5", **kwargs)
    mse_file = [row[1] for row in from_file.rows]
    mse_kraus = [row[1] for row in from_kraus.rows]
    np.testing.assert_allclose(mse_file, mse_kraus, rtol=1e-9)
