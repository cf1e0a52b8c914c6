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
    assert np.linalg.norm(ch.contraction() - np.eye(2)) > 1e-9 * 2  # not trace preserving
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


@pytest.mark.parametrize("spec", ["sic:4:99", "mub:4:x", "random:4:20:3:1"])
def test_surplus_ensemble_fields_rejected(spec):
    with pytest.raises(ValueError, match="expected"):
        make_ensemble(spec)


def test_surplus_channel_fields_rejected():
    with pytest.raises(ValueError, match="expected cnot"):
        make_channel("cnot:3")


def test_file_specs_keep_the_path_verbatim(tmp_path):
    folder = tmp_path / "sp ace:dir"
    folder.mkdir()
    paths = {"ch": folder / "ch.json", "ens": folder / "ens.json", "povm": folder / "povm.json"}
    pio.save_json(cnot_channel(), paths["ch"])
    pio.save_json(make_ensemble("mub:2"), paths["ens"])
    pio.save_json(make_povm("cube-povm:1"), paths["povm"])
    assert make_channel(f"file:{paths['ch']}").label == "cnot"
    assert make_ensemble(f"file:{paths['ens']}").label == "mub-2"
    assert make_povm(f"file:{paths['povm']}").label == "cube-1"
    assert make_povm(f"file {paths['povm']}").label == "cube-1"  # space-separated form


def test_experiment_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"chanel": "cnot"}))
    with pytest.raises(ValueError, match="chanel"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"trials": "3"}))
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"tp_prior": "false"}))  # a truthy string
    with pytest.raises(ValueError, match="tp_prior"):
        ExperimentConfig.from_json(path)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=True)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)


@pytest.mark.parametrize("trials, grid", [(0, (6, 8)), (2, ())])
def test_m_scaling_study_checks_trials_and_grid(trials, grid):
    with pytest.raises(ValueError, match="trials|grid"):
        run_m_scaling_study(
            d=2, num_states=grid, copies_per_state=600, povm_spec="cube-povm:1",
            channel_spec="random:2:tp:5", trials=trials,
        )


# Study outputs recorded with sampler 2 (one broadcast multinomial per block of
# states) and fidelity from pivoted-Cholesky factors; rows, slopes and the config
# header must stay bit-identical on these seeds while the sampling stream is unchanged.
GOLDEN_SCALING = {
    False: (
        [
            ["mub-2", 1200, 0.044011959937431254, 0.012851449059999666, 0.06139235162414077],
            ["mub-2", 6000, 0.007559585278550728, 0.003173052641350303, 0.018775365453303827],
            ["sic-2", 1200, 0.0329034483875601, 0.018105086078535167, 0.03652649884744482],
            ["sic-2", 6000, 0.004749304069244688, 0.0020267739870459558, 0.00949070484938667],
        ],
        {
            "mse[mub-2]": -1.094571631984314,
            "infidelity[mub-2]": -0.7361201010045526,
            "mse[sic-2]": -1.2026430817627545,
            "infidelity[sic-2]": -0.8373886932022775,
        },
        "91213697b7a600fb",
    ),
    True: (
        [
            ["mub-2", 1200, 0.23485838214231067, 0.027838892305944943, 0.08677171831690622],
            ["mub-2", 6000, 0.2224195777764848, 0.005209810452262868, 0.042086396710134845],
            ["sic-2", 1200, 0.21469783182671545, 0.026495229165053275, 0.05734632280674756],
            ["sic-2", 6000, 0.22947971659288982, 0.006327011332738127, 0.031960484746582384],
        ],
        {
            "mse[mub-2]": -0.033811254734068194,
            "infidelity[mub-2]": -0.44957072726524416,
            "mse[sic-2]": 0.04137036788170974,
            "infidelity[sic-2]": -0.36323764370018924,
        },
        "c09ac471c18caaf6",
    ),
}


@pytest.mark.parametrize("tp_prior", [False, True])
def test_scaling_study_golden(tp_prior):
    cfg = ExperimentConfig(
        channel="random:2:nontp:3", ensembles=("mub:2", "sic:2"), povm="cube-povm:1",
        copies=(1200, 6000), trials=3, tp_prior=tp_prior, seed=17,
    )
    result = run_scaling_study(cfg)
    rows, slopes, sha = GOLDEN_SCALING[tp_prior]
    assert [row[:-1] for row in result.rows] == rows
    assert result.slopes == slopes
    assert result.meta["config"] == (
        '{"channel": "random:2:nontp:3", "copies": [1200, 6000], "ensembles": ["mub:2", "sic:2"], '
        f'"povm": "cube-povm:1", "seed": 17, "tp_prior": {json.dumps(tp_prior)}, "trials": 3}}'
    )
    assert result.meta["config_sha256"] == sha


def test_m_scaling_study_golden():
    result = run_m_scaling_study(
        d=2, num_states=(6, 10), copies_per_state=500, povm_spec="cube-povm:1",
        channel_spec="random:2:tp:5", trials=3, seed=23,
    )
    assert [row[:-1] for row in result.rows] == [
        [6, 0.10081137899729559, 0.08362925749624164],
        [10, 0.038861030279211776, 0.0013169866901792295],
    ]
    assert result.slopes == {"mse[num_states]": -1.86611484547165}
    assert result.meta["config"] == (
        '{"channel": "random:2:tp:5", "copies_per_state": 500, "d": 2, "num_states": [6, 10], '
        '"povm": "cube-povm:1", "trials": 3}'
    )
    assert result.meta["config_sha256"] == "66a66748d0f54b25"


@pytest.mark.parametrize("spec", ["random:2:7", "random:2:tp", "random:2:nontp:7", "random 2 tp 7"])
def test_random_channel_fields_in_order_parse(spec):
    assert make_channel(spec).d == 2


@pytest.mark.parametrize(
    "spec", ["random:2:3:5", "random:2:tp:nontp", "random:2:nontp:nontp", "random:2:5:tp", "random:2:7:nontp"]
)
def test_random_channel_fields_out_of_order_or_repeated_rejected(spec):
    with pytest.raises(ValueError, match=r"random:d\[:tp\|nontp\]\[:seed\]"):
        make_channel(spec)


@pytest.mark.parametrize(
    "factory, spec, form",
    [
        (make_channel, "identity:two", "identity:d"),
        (make_channel, "random:x:tp", "random:d[:tp|nontp][:seed]"),
        (make_channel, "random:2:abc", "random:d[:tp|nontp][:seed]"),
        (make_ensemble, "sic:x", "sic:d"),
        (make_ensemble, "random:4:M", "random:d:M[:seed]"),
        (make_ensemble, "random:4:8:1.5", "random:d:M[:seed]"),
        (make_ensemble, "cube-states:2.0", "cube-states:m"),
        (make_povm, "cube-povm:x", "cube-povm:m"),
        (make_povm, "mub-povm:four", "mub-povm:d"),
        (make_povm, "sic-povm:x", "sic-povm[:4]"),
        (make_channel, "random:4:tp:-2", "random:d[:tp|nontp][:seed]"),
        (make_ensemble, "random:2:4:-1", "random:d:M[:seed]"),
    ],
)
def test_non_integer_spec_fields_name_the_spec_and_form(factory, spec, form):
    with pytest.raises(ValueError) as info:
        factory(spec)
    assert repr(spec) in str(info.value) and f"expected {form}" in str(info.value)


@pytest.mark.parametrize("copies", [[1200.9], [1200.0], [True], ["1200"], [600, None], 1200])
def test_experiment_config_rejects_non_integer_copies(copies):
    with pytest.raises(ValueError, match="'copies'"):
        ExperimentConfig(copies=copies)


@pytest.mark.parametrize("ensembles", [5, [5], ["mub:2", None], []])
def test_experiment_config_rejects_non_string_ensembles(ensembles):
    with pytest.raises(ValueError, match="'ensembles'"):
        ExperimentConfig(ensembles=ensembles)


def test_experiment_config_keeps_integer_copies():
    cfg = ExperimentConfig(copies=[np.int64(600), 1200])
    assert cfg.copies == (600, 1200) and all(type(n) is int for n in cfg.copies)
    assert cfg.to_meta() == ExperimentConfig(copies=(600, 1200)).to_meta()
