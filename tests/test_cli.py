import json
import sys
from pathlib import Path

import numpy as np
import pytest

import proctomo.io as pio
from proctomo.channels import cnot_channel
from proctomo.cli import main
from proctomo.simulate import MeasurementRecord, ideal_probabilities
from proctomo.studies import SPECS, make_ensemble, make_povm, run_m_scaling_study


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


def test_design_audit_reads_a_povm_file(tmp_path, capsys):
    path = tmp_path / "povm.json"
    pio.save_json(make_povm("mub-povm:4"), path)
    assert main(["design-audit", f"file:{path}"]) == 0
    out = capsys.readouterr().out
    assert "mub-povm-4" in out and "76" in out and "yes" in out


class ClosedPipe:
    """A stdout whose reader has gone, as under ``| head``: ``write`` fails, or only ``flush``."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(failing, monkeypatch, capsys):
    # A closed pipe is no validation error; one first seen at the flush is caught too.
    monkeypatch.setattr(sys, "stdout", ClosedPipe(failing))
    assert main(["design-audit", "cube-povm", "4"]) == 141
    assert capsys.readouterr().err == ""


def test_design_audit_rejects_unknown(capsys):
    assert main(["design-audit", "banana:4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"", bytes(range(256)), b"[" * 100_000 + b"]" * 100_000], ids=["empty", "binary", "deep"]
)
def test_design_audit_names_a_file_that_is_not_json(tmp_path, capsys, content):
    path = tmp_path / "design.dat"
    path.write_bytes(content)
    assert main(["design-audit", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} is not a JSON document" in err
    assert "Traceback" not in err


def test_simulate_then_reconstruct(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    est_path = tmp_path / "est.json"
    assert main([
        "simulate", "--channel", "random:2:tp:5", "--ensemble", "mub:2",
        "--povm", "cube-povm:1", "--copies", "18000", "--seed", "9",
        "--output", str(rec_path),
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


def test_simulate_refuses_the_retired_text_flag(tmp_path, capsys):
    # The record's JSON document is its one output; argparse refuses --text before anything runs.
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--text", str(tmp_path / "x.tsv"), "--output", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert info.value.code == 2 and "error: unrecognized arguments: --text" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_refuses_a_truth_of_another_dimension(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    assert main([
        "simulate", "--channel", "cnot", "--ensemble", "mub:4", "--povm", "cube-povm:2",
        "--seed", "1", "--output", str(rec_path),
    ]) == 0
    capsys.readouterr()
    assert main([
        "reconstruct", "--record", str(rec_path), "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--truth", "identity:2",
    ]) == 2
    err = capsys.readouterr().err
    assert "--truth 'identity:2'" in err and "d=2" in err and "d=4" in err
    assert "broadcast" not in err and "Traceback" not in err


@pytest.mark.parametrize("povm", ["cube-povm:2", "mub-povm:4"])
def test_reconstruct_refuses_a_record_drawn_for_another_design(povm, tmp_path, capsys):
    # The record has natural:4's 16 states and cube-povm:2's 9 sets; mub:4 has 20 states.
    rec_path = tmp_path / "natural.json"
    assert main(["simulate", "--ensemble", "natural:4", "--exact", "--output", str(rec_path)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--record", str(rec_path), "--ensemble", "mub:4", "--povm", povm]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: record {rec_path} ")
    assert "--ensemble 'mub:4'" in err and f"--povm {povm!r}" in err and "Traceback" not in err


def test_simulate_exact_flag(tmp_path):
    rec_path = tmp_path / "exact.json"
    assert main([
        "simulate", "--channel", "cnot", "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--exact", "--output", str(rec_path),
    ]) == 0
    rec = pio.load_json(rec_path)
    assert rec.shots_per_set is None
    # An exact record's frequencies are its ideal probabilities, kept once.
    assert rec.ideal is None and json.loads(rec_path.read_text())["ideal"] is None
    assert np.array_equal(rec.freq, ideal_probabilities(cnot_channel(), make_ensemble("mub:4"), make_povm("cube-povm:2")))


def test_simulate_rejects_indivisible_copies(tmp_path, capsys):
    code = main([
        "simulate", "--channel", "cnot", "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--copies", "1001",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


@pytest.mark.parametrize("copies", ["-20", "0", "1001"])
def test_simulate_copies_rule_names_the_total_the_states_and_the_ensemble(copies, tmp_path, capsys):
    code = main([
        "simulate", "--ensemble", "mub:4", "--copies", copies, "--output", str(tmp_path / "x.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"total copies {copies} must be positive and divisible by the 20 input states of 'mub:4'" in err
    assert not (tmp_path / "x.json").exists()


def write_skewed_povm(path):
    """cube-povm:2 with +-3e-10 added at (0, 1) and (1, 0) of set 0's elements, opposite
    signs so the set still sums to I: ||P - P^dag||_F = 8.5e-10, between the Hermitian
    tolerance and 1e-9."""
    doc = pio.to_dict(make_povm("cube-povm:2"))
    for element, sign in zip(doc["sets"][0], (1.0, -1.0)):
        element["re"][0][1] += sign * 3e-10
        element["re"][1][0] -= sign * 3e-10
    path.write_text(json.dumps(doc))


def test_simulate_refuses_a_skewed_povm_file_naming_it(tmp_path, capsys):
    path = tmp_path / "skewed.json"
    write_skewed_povm(path)
    assert main(["simulate", "--povm", f"file:{path}", "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert f"povm document {path}: POVM element is not Hermitian" in err
    assert "imaginary" not in err and "Traceback" not in err


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
    assert out.endswith(f"table written to {out_path}\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--channel", "identity:2", "--ensemble", "mub:4", "--output", "{out}"],
         ["--channel 'identity:2': d=2", "--ensemble 'mub:4': d=4", "--povm 'cube-povm:2': d=4"]),
        (["reconstruct", "--record", "{out}", "--ensemble", "mub:2", "--povm", "cube-povm:2"],
         ["--ensemble 'mub:2': d=2", "--povm 'cube-povm:2': d=4"]),
        (["scaling-study", "--channel", "cnot", "--ensemble", "mub:2", "--povm", "cube-povm:2",
          "--copies", "60", "--trials", "1"],
         ["channel 'cnot': d=4", "POVM 'cube-povm:2': d=4", "ensemble 'mub:2': d=2"]),
        (["m-scaling-study", "--dim", "2", "--num-states", "4", "--trials", "1", "--copies-per-state", "90"],
         ["(d, --dim): d=2", "channel 'random:4:tp:7': d=4", "POVM 'cube-povm:2': d=4"]),
    ],
    ids=["simulate", "reconstruct", "scaling-study", "m-scaling-study"],
)
def test_dimension_mismatches_name_each_spec_and_flag(argv, named, tmp_path, capsys):
    out = tmp_path / "record.json"
    pio.save_json(MeasurementRecord(freq=[[0.5, 0.5]], set_sizes=(2,)), out)  # read by reconstruct
    assert main([a.format(out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dimension mismatch: ") and "Traceback" not in err
    assert all(text in err for text in named), err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["simulate", "--ensemble", "cube-states:2", "--copies", "36", "--output", "{out}"],
         "total copies 36 (1 per state of 'cube-states:2') leave no shot for some of the 9 sets "
         "of POVM 'cube-povm:2'; choose at least 324"),
        (["scaling-study", "--ensemble", "cube-states:2", "--copies", "36", "--trials", "1"],
         "total copies 36 (1 per state of 'cube-states:2') leave no shot for some of the 9 sets "
         "of POVM 'cube-povm:2'; choose at least 324"),
        (["m-scaling-study", "--copies-per-state", "5", "--trials", "1"],
         "copies_per_state (--copies-per-state) 5 leave no shot for some of the 9 sets "
         "of POVM 'cube-povm:2'; choose at least 9"),
        # More shots per set than an int64 count holds: refused naming what was typed, before sampling.
        (["simulate", "--ensemble", "mub:2", "--povm", "cube-povm:1", "--channel", "identity:2",
          "--copies", "600000000000000000000", "--output", "{out}"],
         "total copies 600000000000000000000 (100000000000000000000 per state of 'mub:2') give "
         "33333333333333333333 shots to each of the 3 sets of POVM 'cube-povm:1', above 9223372036854775807"),
        (["scaling-study", "--ensemble", "mub:2", "--povm", "cube-povm:1", "--channel", "identity:2",
          "--copies", "600", "600000000000000000000", "--trials", "1"],
         "total copies 600000000000000000000 (100000000000000000000 per state of 'mub:2') give "
         "33333333333333333333 shots to each of the 3 sets of POVM 'cube-povm:1', above 9223372036854775807"),
        (["m-scaling-study", "--dim", "2", "--num-states", "4", "--povm", "cube-povm:1", "--channel", "identity:2",
          "--copies-per-state", "27670116110564327424", "--trials", "1"],
         "copies_per_state (--copies-per-state) 27670116110564327424 give 9223372036854775808 shots "
         "to each of the 3 sets of POVM 'cube-povm:1', above 9223372036854775807"),
    ],
    ids=["simulate", "scaling-study", "m-scaling-study",
         "simulate-above-int64", "scaling-study-above-int64", "m-scaling-study-above-int64"],
)
def test_copies_too_few_for_the_povm_sets_are_refused_naming_them(argv, text, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert main([a.format(out=out) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not out.exists()


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



def test_file_spec_path_with_space(tmp_path, capsys):
    folder = tmp_path / "sp ace"
    folder.mkdir()
    pio.save_json(cnot_channel(), folder / "ch.json")
    assert main([
        "simulate", "--channel", f"file:{folder / 'ch.json'}", "--ensemble", "mub:4",
        "--povm", "cube-povm:2", "--copies", "2000", "--output", str(tmp_path / "rec.json"),
    ]) == 0
    assert "simulated" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["design-audit", "sic:x"], "sic:x"),
        (["design-audit", "cube-povm", "x"], "cube-povm x"),
        (["simulate", "--channel", "random:2:abc"], "random:2:abc"),
        (["simulate", "--ensemble", "random:4:M"], "random:4:M"),
        (["simulate", "--povm", "cube-povm:two"], "cube-povm:two"),
        (["design-audit", "random:2:4:-1"], "random:2:4:-1"),
        (["simulate", "--channel", "random:4:tp:-2"], "random:4:tp:-2"),
    ],
)
def test_non_integer_spec_fields_exit_2_naming_the_spec(argv, spec, tmp_path, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "x.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(spec) in err and "expected" in err
    assert "Traceback" not in err and "invalid literal" not in err


@pytest.mark.parametrize("spec", ["sic:4:99", "mub:4:x"])
def test_design_audit_rejects_surplus_fields(spec, capsys):
    assert main(["design-audit", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected" in err


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"chanel": "cnot"}, "chanel"),
        ({"trials": "3"}, "trials"),
        # Not JSON: the refusal names the file.
        *(pytest.param(content, "{path} is not a JSON document", id=name) for name, content in [
            ("deep", b"[" * 100_000 + b"]" * 100_000), ("binary", bytes(range(256))), ("malformed", b"{1: 2}")]),
    ],
)
def test_scaling_study_malformed_config_exits_2(cfg, key, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    assert main(["scaling-study", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key.format(path=path) in err
    assert "Traceback" not in err


def test_m_scaling_study_rejects_zero_trials(capsys):
    assert main([
        "m-scaling-study", "--dim", "2", "--num-states", "8", "--povm", "cube-povm:1",
        "--channel", "random:2:tp:5", "--trials", "0",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scaling-study", "--channel", "random:2:tp:5", "--ensemble", "mub:2", "--povm", "cube-povm:1",
         "--copies", "600", "--trials", "1", "--seed", "-1"],
        ["m-scaling-study", "--dim", "2", "--num-states", "8", "--povm", "cube-povm:1",
         "--channel", "random:2:tp:5", "--trials", "1", "--seed", "-1"],
    ],
    ids=["scaling-study", "m-scaling-study"],
)
def test_studies_refuse_a_negative_seed_naming_it(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed") and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, spec, text",
    [("--channel", "random:1", "dimension must be at least 2, got 1"),
     ("--channel", "identity:0", "dimension must be at least 1, got 0"),
     ("--povm", "cube-povm:0", "number of qubits must be at least 1, got 0")],
)
def test_a_builders_refusal_names_its_spec(flag, spec, text, tmp_path, capsys):
    assert main(["simulate", flag, spec, "--output", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == f"error: spec {spec!r}: {text}\n"


def test_oracle_check_refuses_a_negative_seed_naming_it(capsys):
    assert main(["oracle-check", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"


def test_m_scaling_study_flags_reach_the_study(tmp_path, capsys):
    out_path = tmp_path / "m.tsv"
    assert main([
        "m-scaling-study", "--dim", "2", "--num-states", "6", "10",
        "--copies-per-state", "500", "--povm", "cube-povm:1",
        "--channel", "random:2:tp:5", "--trials", "3", "--seed", "23",
        "--output", str(out_path),
    ]) == 0
    direct = run_m_scaling_study(
        d=2, num_states=(6, 10), copies_per_state=500, povm_spec="cube-povm:1",
        channel_spec="random:2:tp:5", trials=3, seed=23,
    )
    lines = out_path.read_text().splitlines()
    assert f"# config\t{direct.meta['config']}" in lines
    rows = [l.split("\t")[:-1] for l in lines if l and not l.startswith("#")][1:]
    assert rows == [[str(r[0]), repr(r[1]), repr(r[2])] for r in direct.rows]


@pytest.mark.parametrize(
    "doc", [{"kind": "ensemble", "states": []}, {"kind": "ensemble"}, {"kind": "povm", "sets": []}]
)
def test_design_audit_of_a_malformed_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert main(["design-audit", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg",
    [{"copies": 1200}, {"copies": [1200.9]}, {"ensembles": [4]}, {"ensembles": []}, {"trials": 2.5},
     {"output": 1}, {"output": ["a"]}],
)
def test_scaling_study_config_with_mistyped_lists_exits_2(cfg, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(cfg))
    assert main(["scaling-study", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(cfg)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, doc, text",
    [
        (
            ["reconstruct", "--ensemble", "mub:2", "--povm", "cube-povm:1", "--record", "{path}"],
            {"kind": "record", "set_sizes": [2], "freq": [1, 2]},
            "frequency matrix must be 2-D (states x operators)",
        ),
        (
            ["design-audit", "file:{path}"],
            {"kind": "ensemble", "states": [{"re": [[1.5, 0.0], [0.0, -0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}]},
            "ensemble state has negative eigenvalue -5.000e-01",
        ),
        (
            ["reconstruct", "--ensemble", "mub:2", "--povm", "cube-povm:1", "--record", "{path}"],
            {"kind": "record", "set_sizes": [2], "freq": [[0.5, 0.5]], "sampler": "abc"},
            "sampler must be a sampler version 1..2 or None, got 'abc'",
        ),
        (
            ["reconstruct", "--ensemble", "mub:2", "--povm", "cube-povm:1", "--record", "{path}"],
            {"kind": "record", "set_sizes": [2], "freq": [[]]},
            "frequency matrix must be 2-D (states x operators), got shape (1, 0)",
        ),
    ],
)
def test_documents_failing_their_class_checks_exit_2_naming_the_file(argv, doc, text, tmp_path, capsys):
    path = tmp_path / "bad_doc.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"{doc['kind']} document {path}: {text}" in err
    assert "Traceback" not in err


def forms(kind):
    return [e.form for e in SPECS if e.kind in (kind, None)]


@pytest.mark.parametrize(
    "command, flag, kinds",
    [
        ("simulate", "--channel", ["channel"]),
        ("simulate", "--ensemble", ["ensemble"]),
        ("simulate", "--povm", ["POVM"]),
        ("reconstruct", "--ensemble", ["ensemble"]),
        ("reconstruct", "--povm", ["POVM"]),
        ("reconstruct", "--truth", ["channel"]),
        ("scaling-study", "--channel", ["channel"]),
        ("scaling-study", "--ensemble", ["ensemble"]),
        ("scaling-study", "--povm", ["POVM"]),
        ("m-scaling-study", "--channel", ["channel"]),
        ("m-scaling-study", "--povm", ["POVM"]),
        ("design-audit", "spec", ["ensemble", "POVM"]),
    ],
)
def test_spec_flag_help_lists_every_form_of_its_kinds(command, flag, kinds, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    lines = capsys.readouterr().out.splitlines()
    # The flag's entry: its first line, then the lines indented deeper than an entry.
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == [flag])
    end = next((i for i in range(start + 1, len(lines)) if not lines[i].startswith("   ")), len(lines))
    entry = " ".join(lines[start:end])
    assert [form for kind in kinds for form in forms(kind) if form not in entry] == []


def test_readme_lists_every_spec_form():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [e.form for e in SPECS if f"`{e.form}`" not in readme] == []


def test_a_refused_file_spec_names_its_path_once(tmp_path, capsys, monkeypatch):
    # mub:2 with state 0 at diag(1 + 5e-9, -5e-9), beyond the state tolerance.
    doc = pio.to_dict(make_ensemble("mub:2"))
    doc["states"][0] = {"re": [[1.000000005, 0.0], [0.0, -5e-9]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    (tmp_path / "edge.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--ensemble", "file:edge.json", "--povm", "cube-povm:1", "--channel", "identity:2"]
    assert main([*argv, "--output", "edge_rec.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: ensemble document edge.json: ensemble state has negative eigenvalue -5.000e-09\n"
