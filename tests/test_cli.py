import json

import numpy as np
import pytest

import proctomo.io as pio
from proctomo.cli import main


def test_design_audit_sic_states(capsys):
    assert main(["design-audit", "sic", "4"]) == 0
    out = capsys.readouterr().out
    assert "304" in out
    assert "yes" in out


def test_design_audit_mub_povm(capsys):
    assert main(["design-audit", "mub-povm", "4"]) == 0
    out = capsys.readouterr().out
    assert "76" in out
    assert "yes" in out


def test_design_audit_natural_not_optimal(capsys):
    assert main(["design-audit", "natural:4"]) == 0
    out = capsys.readouterr().out
    assert "no" in out.splitlines()[-1]


def test_design_audit_rejects_unknown(capsys):
    assert main(["design-audit", "banana:4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_then_reconstruct(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    est_path = tmp_path / "est.json"
    assert main([
        "simulate", "--channel", "random:2:tp:5", "--ensemble", "mub:2",
        "--povm", "cube-povm:1", "--copies", "18000", "--seed", "9",
        "--output", str(rec_path), "--text", str(tmp_path / "rec.tsv"),
    ]) == 0
    assert main([
        "reconstruct", "--record", str(rec_path), "--ensemble", "mub:2",
        "--povm", "cube-povm:1", "--output", str(est_path),
        "--truth", "random:2:tp:5",
    ]) == 0
    out = capsys.readouterr().out
    assert "fidelity" in out
    est = pio.load_json(est_path)
    assert est.x_hat.shape == (4, 4)
    text_rec = pio.record_from_text((tmp_path / "rec.tsv").read_text())
    assert np.array_equal(text_rec.freq, pio.load_json(rec_path).freq)


def test_simulate_exact_flag(tmp_path):
    rec_path = tmp_path / "exact.json"
    assert main([
        "simulate", "--channel", "cnot", "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--exact", "--output", str(rec_path),
    ]) == 0
    rec = pio.load_json(rec_path)
    assert rec.shots_per_set is None
    assert np.array_equal(rec.freq, rec.ideal)


def test_simulate_rejects_indivisible_copies(tmp_path, capsys):
    code = main([
        "simulate", "--channel", "cnot", "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--copies", "1001",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


def run_study(tmp_path, capsys, tag):
    out_path = tmp_path / f"table-{tag}.tsv"
    code = main([
        "scaling-study", "--channel", "random:2:tp:5", "--ensemble", "mub:2",
        "--povm", "cube-povm:1", "--copies", "600", "6000",
        "--trials", "1", "--seed", "11", "--output", str(out_path),
    ])
    assert code == 0
    return capsys.readouterr().out, out_path.read_text()


def test_scaling_study_deterministic(tmp_path, capsys):
    out1, table1 = run_study(tmp_path, capsys, "a")
    out2, table2 = run_study(tmp_path, capsys, "b")

    def data_cells(text):
        rows = [l.split("\t") for l in text.splitlines() if l and not l.startswith("#")]
        # drop the runtime column, which is wall clock and not reproducible
        return [row[:-1] for row in rows]

    assert data_cells(table1) == data_cells(table2)
    assert "# config" in table1
    assert "slope" in out1


def test_scaling_study_config_file(tmp_path, capsys):
    cfg = {
        "channel": "random:2:tp:5",
        "ensembles": ["mub:2"],
        "povm": "cube-povm:1",
        "copies": [600],
        "trials": 1,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["scaling-study", "--config", str(cfg_path)]) == 0
    assert "mean_mse" in capsys.readouterr().out


def test_scaling_study_rejects_bad_copies(capsys):
    code = main([
        "scaling-study", "--channel", "random:2:tp:5", "--ensemble", "mub:2",
        "--povm", "cube-povm:1", "--copies", "601", "--trials", "1",
    ])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


def test_m_scaling_study_runs(tmp_path, capsys):
    out_path = tmp_path / "m.tsv"
    assert main([
        "m-scaling-study", "--dim", "2", "--num-states", "8", "16",
        "--copies-per-state", "500", "--povm", "cube-povm:1",
        "--channel", "random:2:tp:5", "--trials", "2", "--seed", "4",
        "--output", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "num_states" in out
    assert out_path.exists()


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["design-audit", "sic"],
        ["design-audit", "cube-povm"],
        ["simulate", "--channel", "random"],
        ["simulate", "--channel", "file"],
        ["simulate", "--ensemble", "random:4"],
    ],
)
def test_incomplete_specs_exit_2_without_traceback(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "x.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected" in err
    assert "Traceback" not in err

