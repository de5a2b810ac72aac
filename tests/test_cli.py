import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artdiff.cli import main

DATA = Path(__file__).parent / "data"


def run(argv):
    return main([str(a) for a in argv])


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def test_schedule_dump_runs_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["schedule-dump", "--timesteps", 50, "--out", a]) == 0
    assert run(["schedule-dump", "--timesteps", 50, "--out", b]) == 0
    files_a, files_b = read_all(a), read_all(b)
    assert set(files_a) == {"schedule.csv", "manifest.json"}
    assert files_a["schedule.csv"] == files_b["schedule.csv"]
    lines = files_a["schedule.csv"].decode().strip().splitlines()
    assert lines[0] == "t,beta,alpha,alpha_bar,posterior_var"
    assert len(lines) == 51


def test_toy_train_unknown_dataset_exits_2(tmp_path, capsys):
    code = run(["toy-train", "--dataset", "nope", "--out", tmp_path / "o"])
    assert code == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_toy_train_zero_steps_checkpoint_matches_init(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0,
            "--seed", 3, "--timesteps", 50]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert read_all(a)["checkpoint.bin"] == read_all(b)["checkpoint.bin"]
    assert read_all(a)["loss.csv"].decode().strip() == "step,loss"


def test_toy_train_fixed_seed_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["toy-train", "--dataset", "8-gaussian-ring", "--steps", 30,
            "--seed", 5, "--timesteps", 100]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    fa, fb = read_all(a), read_all(b)
    assert fa["checkpoint.bin"] == fb["checkpoint.bin"]
    assert fa["loss.csv"] == fb["loss.csv"]


def test_sample_oracle_writes_rows_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--oracle", "--mu0", "3,-1", "--var0", "0.25",
            "--sampler", "plms", "--ddim_steps", 50, "--batch", 200,
            "--seed", 9]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    fa, fb = read_all(a), read_all(b)
    assert fa["samples.csv"] == fb["samples.csv"]
    rows = fa["samples.csv"].decode().strip().splitlines()
    assert len(rows) == 200
    assert all(len(r.split(",")) == 2 for r in rows)


def test_sample_oracle_negative_first_mean_component_with_equals(tmp_path):
    # a negative first component works after '=' and after a space alike
    out, spaced = tmp_path / "o", tmp_path / "spaced"
    common = ["--var0", "0.25", "--ddim_steps", 10, "--batch", 3, "--seed", 1]
    assert run(["sample", "--oracle", "--mu0=-1.4,2", *common, "--out", out]) == 0
    assert run(["sample", "--oracle", "--mu0", "-1.4,2", *common, "--out", spaced]) == 0
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert [len(r.split(",")) for r in rows] == [2, 2, 2]
    assert (spaced / "samples.csv").read_bytes() == (out / "samples.csv").read_bytes()


def test_compare_samplers_accepts_spaced_negative_mu0(tmp_path):
    out, spaced = tmp_path / "o", tmp_path / "spaced"
    assert run(["compare-samplers", "--mu0=-1.4,2", "--batch", 8, "--out", out]) == 0
    assert run(["compare-samplers", "--mu0", "-1.4,2", "--batch", 8, "--out", spaced]) == 0
    assert (spaced / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


@pytest.mark.parametrize("command", ["sample", "compare-samplers"])
def test_mu0_help_documents_equals_form(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--mu0=-1.4,2" in help_text
    assert "--mu0 -1.4,2" in help_text


def test_sample_requires_predictor_source(tmp_path, capsys):
    assert run(["sample", "--out", tmp_path / "o"]) == 2
    assert "either --oracle or --checkpoint" in capsys.readouterr().err


def test_sample_ddpm_with_strided_timeline_is_config_error(tmp_path, capsys):
    code = run(["sample", "--oracle", "--sampler", "ddpm", "--ddim_steps", 200,
                "--batch", 4, "--out", tmp_path / "o"])
    assert code == 2
    assert "identity timeline" in capsys.readouterr().err


def test_sample_ddpm_full_timeline_works(tmp_path):
    code = run(["sample", "--oracle", "--sampler", "ddpm", "--timesteps", 50,
                "--ddim_steps", 50, "--batch", 4, "--out", tmp_path / "o"])
    assert code == 0


def test_sample_from_trained_checkpoint_with_plot(tmp_path):
    train_out = tmp_path / "train"
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 50,
                "--seed", 1, "--timesteps", 100, "--out", train_out]) == 0
    sample_out = tmp_path / "samp"
    code = run(["sample", "--checkpoint", train_out / "checkpoint.bin",
                "--sampler", "plms", "--ddim_steps", 10, "--batch", 50,
                "--plot", "--out", sample_out])
    assert code == 0
    files = read_all(sample_out)
    assert "density.ppm" in files
    assert files["density.ppm"].startswith(b"P6\n96 96\n255\n")
    rows = files["samples.csv"].decode().strip().splitlines()
    assert len(rows) == 50


def test_sample_conditional_checkpoint_label(tmp_path):
    train_out = tmp_path / "train"
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 50,
                "--seed", 1, "--timesteps", 100, "--conditional",
                "--out", train_out]) == 0
    code = run(["sample", "--checkpoint", train_out / "checkpoint.bin",
                "--sampler", "ddim", "--ddim_steps", 10, "--batch", 8,
                "--label", 3, "--scale", "5.0", "--out", tmp_path / "s"])
    assert code == 0
    # labels are rejected for unconditional checkpoints
    uncond_out = tmp_path / "u"
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0,
                "--seed", 1, "--timesteps", 100, "--out", uncond_out]) == 0
    code = run(["sample", "--checkpoint", uncond_out / "checkpoint.bin",
                "--label", 3, "--ddim_steps", 10, "--batch", 2,
                "--out", tmp_path / "s2"])
    assert code == 2


def test_compare_samplers_report_shape(tmp_path):
    out = tmp_path / "cmp"
    assert run(["compare-samplers", "--batch", 32, "--seed", 4, "--out", out]) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "kind,steps,rel_l2"
    body = [l.split(",") for l in lines[1:]]
    step_rows = [r for r in body if r[1] != "order"]
    order_rows = [r for r in body if r[1] == "order"]
    assert len(step_rows) == 10
    assert len(order_rows) == 2
    errs = {(r[0], r[1]): float(r[2]) for r in step_rows}
    assert errs[("ddim", "200")] < errs[("ddim", "10")]
    orders = {r[0]: float(r[2]) for r in order_rows}
    assert orders["plms"] >= 1.8
    assert 0.8 <= orders["ddim"] <= 1.3


SAMPLE_PINS = DATA / "sample_pins"
PINNED_RUNS = {
    "ddim-guided": ["--sampler", "ddim", "--label", 3, "--scale", 5],
    "ddim-unguided": ["--sampler", "ddim"],
    "plms-guided": ["--sampler", "plms", "--label", 3, "--scale", 5],
    "plms-unguided": ["--sampler", "plms"],
    "oracle-ddim": ["--oracle", "--mu0", "3,-1", "--var0", 0.25, "--timesteps", 100,
                    "--ddim_steps", 20, "--sampler", "ddim"],
    "oracle-plms": ["--oracle", "--mu0", "3,-1", "--var0", 0.25, "--timesteps", 100,
                    "--ddim_steps", 20, "--sampler", "plms"],
    "oracle-ddpm": ["--oracle", "--mu0", "3,-1", "--var0", 0.25, "--timesteps", 100,
                    "--ddim_steps", 100, "--sampler", "ddpm"],
    # one row: the guided pair and the loop buffers at their smallest
    "ddim-guided-b1": ["--sampler", "ddim", "--label", 3, "--scale", 5, "--batch", 1],
    "plms-guided-b1": ["--sampler", "plms", "--label", 3, "--scale", 5, "--batch", 1],
}


@pytest.fixture(scope="module")
def pin_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("pin-train")
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 50, "--seed", 1,
                "--timesteps", 100, "--conditional", "--out", out]) == 0
    return out / "checkpoint.bin"


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_sample_bytes_are_pinned(tmp_path, pin_checkpoint, name):
    # sampler changes must leave every ddim and plms sample byte-identical
    # (eta 1.0 by default, so the ddim runs also pin the noise draws)
    argv = PINNED_RUNS[name]
    if "--oracle" not in argv:
        argv = ["--checkpoint", pin_checkpoint, "--ddim_steps", 10, *argv]
    assert run(["sample", "--batch", 8, "--seed", 2, *argv, "--out", tmp_path]) == 0
    assert (tmp_path / "samples.csv").read_bytes() == \
        (SAMPLE_PINS / f"{name}.csv").read_bytes()


TRAIN_PINS = DATA / "train_pins"
PINNED_TRAINING = {
    "cond-adam": ["--conditional"],
    "uncond-adam": [],
    "cond-sgd": ["--conditional", "--optimizer", "sgd", "--lr", 0.01],
}
# "<sha256>  <run>/checkpoint.bin" lines, as sha256sum prints them
CHECKPOINT_PINS = dict(line.split()[::-1] for line in
                       (TRAIN_PINS / "checkpoints.sha256").read_text().splitlines())


@pytest.mark.parametrize("name", sorted(PINNED_TRAINING))
def test_train_loss_bytes_are_pinned(tmp_path, name):
    # training changes must leave every loss and checkpoint byte-identical
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 100,
                "--seed", 1, "--timesteps", 100, "--batch", 32, "--drop_prob", 0.2,
                *PINNED_TRAINING[name], "--out", tmp_path]) == 0
    assert (tmp_path / "loss.csv").read_bytes() == (TRAIN_PINS / f"{name}.csv").read_bytes()
    digest = hashlib.sha256((tmp_path / "checkpoint.bin").read_bytes()).hexdigest()
    assert digest == CHECKPOINT_PINS[f"{name}/checkpoint.bin"]


def test_prompt_extend_end_to_end(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["prompt-extend", "urbanization of China",
            "--corpus", DATA / "micro_corpus.jsonl",
            "--gazetteer", DATA / "gazetteer.txt",
            "--fixtures", DATA / "fixtures.jsonl",
            "--topk", 5]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    fa, fb = read_all(a), read_all(b)
    assert fa["candidates.jsonl"] == fb["candidates.jsonl"]
    rows = [json.loads(l) for l in fa["candidates.jsonl"].decode().splitlines()]
    assert len(rows) == 5
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(set(r) == {"text", "source", "tfidf", "cos", "spatial_entities",
                          "temporal_entities", "score"} for r in rows)


def test_prompt_extend_topk_one(tmp_path):
    out = tmp_path / "o"
    assert run(["prompt-extend", "urbanization of China",
                "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl",
                "--topk", 1, "--out", out]) == 0
    rows = (out / "candidates.jsonl").read_text().strip().splitlines()
    assert len(rows) == 1


def test_prompt_extend_missing_gazetteer_names_file(tmp_path, capsys):
    code = run(["prompt-extend", "x",
                "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", tmp_path / "missing-gaz.txt",
                "--fixtures", DATA / "fixtures.jsonl",
                "--out", tmp_path / "o"])
    assert code == 2
    assert "missing-gaz.txt" in capsys.readouterr().err


def test_prompt_extend_candidates_bytes_are_pinned(tmp_path):
    # retrieval changes must leave every score and the ranking byte-identical
    out = tmp_path / "o"
    assert run(["prompt-extend", "urbanization of China",
                "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl",
                "--topk", 10, "--out", out]) == 0
    assert (out / "candidates.jsonl").read_bytes() == \
        (DATA / "micro_candidates_top10.jsonl").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--topk", "0", "--topk must be >= 1"),
    ("--topk", "-3", "--topk must be >= 1"),
    ("--lambda1", "-1", "--lambda1 must be a finite number >= 0"),
    ("--lambda2", "-1", "--lambda2 must be a finite number >= 0"),
    ("--lambda1", "nan", "--lambda1 must be a finite number >= 0"),
    ("--lambda2", "inf", "--lambda2 must be a finite number >= 0"),
])
def test_prompt_extend_bad_flag_exits_2(tmp_path, capsys, flag, value, message):
    code = run(["prompt-extend", "urbanization of China",
                "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl",
                flag, value, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1


def test_prompt_extend_topk_zero_on_empty_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code = run(["prompt-extend", "x", "--corpus", corpus,
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl",
                "--topk", 0, "--out", tmp_path / "o"])
    assert code == 2
    assert "--topk must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_prompt_extend_empty_corpus_writes_no_candidates(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "o"
    assert run(["prompt-extend", "x", "--corpus", corpus,
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl", "--out", out]) == 0
    assert (out / "candidates.jsonl").read_bytes() == b""


def test_corpus_stats(tmp_path):
    out = tmp_path / "stats"
    assert run(["corpus-stats", "--metadata", DATA / "artworks.csv",
                "--out", out]) == 0
    hist_lines = (out / "artist_histogram.csv").read_text().strip().splitlines()
    assert hist_lines[0] == "artist,count"
    assert hist_lines[1] == "Pierre Auguste Renoir,3"
    shares = dict(l.split(",") for l in
                  (out / "shares.csv").read_text().strip().splitlines()[1:])
    assert float(shares["10"]) == 100.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == 10
    assert manifest["malformed_rows"] == 0


def test_corpus_stats_single_artist_share(tmp_path):
    table = tmp_path / "one.csv"
    table.write_text("a,Solo Artist,s,g,1900\nb,Solo Artist,s,g,1901\n")
    out = tmp_path / "stats"
    assert run(["corpus-stats", "--metadata", table, "--out", out]) == 0
    shares = dict(l.split(",") for l in
                  (out / "shares.csv").read_text().strip().splitlines()[1:])
    assert float(shares["10"]) == 100.0


def test_corpus_stats_quotes_comma_bearing_artist(tmp_path):
    table = tmp_path / "names.csv"
    table.write_text('a,"Smith, John",s,g,1900\n'
                     'b,"Smith, John",s,g,1901\n'
                     'c,"Say ""Hi"" Lee",s,g,1902\n')
    out = tmp_path / "stats"
    assert run(["corpus-stats", "--metadata", table, "--out", out]) == 0
    with open(out / "artist_histogram.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["artist", "count"], ["Smith, John", "2"], ['Say "Hi" Lee', "1"]]
    with open(out / "shares.csv", newline="", encoding="utf-8") as fh:
        shares = list(csv.reader(fh))
    assert shares[0] == ["top_k", "share_pct"]
    assert [len(r) for r in shares] == [2, 2, 2, 2]


def test_corpus_stats_quotes_an_artist_with_a_carriage_return(tmp_path):
    # a csv writer quotes only the characters of its own line terminator,
    # "\n" here, so a bare "\r" in a name used to split its row in two
    table = tmp_path / "names.csv"
    with open(table, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["a", "Ann\rBell", "s", "g", "1900"],
                                  ["b", "Ann\r\nBell", "s", "g", "1901"]])
    out = tmp_path / "stats"
    assert run(["corpus-stats", "--metadata", table, "--out", out]) == 0
    with open(out / "artist_histogram.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["artist", "count"], ["Ann\r\nBell", "1"], ["Ann\rBell", "1"]]
    assert (out / "shares.csv").read_bytes() == b"top_k,share_pct\n10,100.0\n20,100.0\n30,100.0\n"


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timesteps=40\nbeta_start=0.001\n# comment line\n")
    out = tmp_path / "o"
    assert run(["schedule-dump", "--config", cfg, "--timesteps", 20,
                "--out", out]) == 0
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert len(lines) == 21  # flag wins over file
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["timesteps"] == 20
    assert manifest["config"]["beta_start"] == 0.001  # file wins over default


def test_env_out_dir_override(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("ARTDIFF_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert run(["schedule-dump", "--timesteps", 10]) == 0
    assert (target / "schedule.csv").exists()


def test_sample_with_corrupt_checkpoint_exits_1(tmp_path, capsys):
    train_out = tmp_path / "train"
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0,
                "--seed", 1, "--timesteps", 50, "--out", train_out]) == 0
    blob = bytearray((train_out / "checkpoint.bin").read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    code = run(["sample", "--checkpoint", bad, "--ddim_steps", 10,
                "--batch", 2, "--out", tmp_path / "o"])
    assert code == 1
    assert "checksum" in capsys.readouterr().err


def test_config_file_booleans_and_missing_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle=true\nmu0=1,1\nvar0=0.5\nddim_steps=10\nbatch=3\n")
    out = tmp_path / "o"
    assert run(["sample", "--config", cfg, "--out", out]) == 0
    assert len((out / "samples.csv").read_text().strip().splitlines()) == 3
    assert run(["sample", "--config", tmp_path / "nope.cfg",
                "--out", tmp_path / "o2"]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run(["schedule-dump", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_2_with_one_line(tmp_path, capsys):
    assert run(["schedule-dump", "--config", tmp_path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config file not found" in err and str(tmp_path) in err


def test_empty_config_path_exits_2_config_file_not_found(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["schedule-dump", "--config", "", "--timesteps", 5, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "config file not found" in err
    assert not out.exists()


def test_config_file_not_utf8_exits_2_naming_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\n\xff=2\n")
    assert run(["toy-train", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{cfg}:2: not UTF-8 text" in err


def test_manifest_records_resolved_config(tmp_path):
    out = tmp_path / "o"
    assert run(["sample", "--oracle", "--mu0", "1,2", "--var0", "0.5",
                "--ddim_steps", 10, "--batch", 3, "--seed", 8,
                "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["config"]["seed"] == 8
    assert manifest["config"]["ddim_steps"] == 10
    assert manifest["schedule"]["T"] == 1000
    assert manifest["schedule"]["beta_start"] == 1e-4


def _check_output_digests(out):
    """The manifest names every other file in ``out`` with its sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"numpy": np.__version__,
                                    "python": platform.python_version()}
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == written
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_identical_sample_runs_write_identical_manifests(tmp_path):
    out = tmp_path / "o"
    argv = ["sample", "--oracle", "--ddim_steps", 10, "--batch", 5, "--seed", 8,
            "--plot", "--out", out]
    assert run(argv) == 0
    first = read_all(out)
    assert run(argv) == 0
    assert read_all(out) == first
    _check_output_digests(out)
    assert set(json.loads(first["manifest.json"])["outputs"]) == {"samples.csv",
                                                                   "density.ppm"}


@pytest.mark.parametrize("argv", [
    ["schedule-dump", "--timesteps", 20],
    ["toy-train", "--dataset", "8-gaussian-ring", "--steps", 5, "--timesteps", 20],
    ["compare-samplers", "--batch", 4],
    ["prompt-extend", "urbanization of China", "--corpus", DATA / "micro_corpus.jsonl",
     "--gazetteer", DATA / "gazetteer.txt", "--fixtures", DATA / "fixtures.jsonl"],
    ["corpus-stats", "--metadata", DATA / "artworks.csv"],
], ids=lambda argv: argv[0])
def test_manifest_digests_every_output_file(tmp_path, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", out]) == 0
    _check_output_digests(out)


# ---------------------------------------------------------------------------
# input boundaries: exit 2 for bad input, 1 for runtime failures
# ---------------------------------------------------------------------------

def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    return err


def test_config_file_uncastable_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset=8-gaussian-ring\nsteps=0\nseed=abc\n")
    assert run(["toy-train", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "seed='abc'" in _one_line_error(capsys)


@pytest.mark.parametrize("argv,line", [
    (["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0], "conditional=ture"),
    (["sample", "--oracle", "--ddim_steps", 5, "--batch", 2], "plot=maybe"),
])
def test_config_file_misspelled_boolean_exits_2(tmp_path, capsys, argv, line):
    # a misspelled switch must not read as false and run the other mode
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(argv + ["--config", cfg, "--out", tmp_path / "o"]) == 2
    key, value = line.split("=")
    assert f"{key}='{value}' is not a valid boolean" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_config_file_booleans_accept_every_spelling_in_any_case(tmp_path):
    for i, value in enumerate(["1", "TRUE", "Yes", "0", "false", "NO"]):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(f"conditional={value}\n")
        out = tmp_path / f"o{i}"
        assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0,
                    "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["conditional"] is (i < 3)


def test_toy_train_negative_seed_exits_2(tmp_path, capsys):
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0,
                "--seed", -1, "--out", tmp_path / "o"]) == 2
    assert "--seed" in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["sample", "--oracle", "--seed", -1],
    ["sample", "--oracle", "--var0", -0.5],
    ["sample", "--oracle", "--mu0", "nan,1"],
    ["compare-samplers", "--seed", -2],
    ["toy-train", "--dataset", "8-gaussian-ring", "--steps", -1],
    ["toy-train", "--dataset", "8-gaussian-ring", "--lr", 0],
    ["toy-train", "--dataset", "8-gaussian-ring", "--lr", "nan"],
    ["toy-train", "--dataset", "8-gaussian-ring", "--lr", "inf"],
    ["schedule-dump", "--timesteps", 2_000_000],
], ids=["sample-seed", "sample-var0", "sample-mu0", "compare-seed", "train-steps",
        "train-lr", "train-lr-nan", "train-lr-inf", "schedule-huge-T"])
def test_bad_flag_values_exit_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", tmp_path / "o"]) == 2
    assert _one_line_error(capsys).startswith("error: ")


@pytest.mark.parametrize("mu0", [[], ["--mu0", "0,0"]], ids=["default-mu0", "zero-mu0"])
def test_compare_samplers_zero_var0_exits_2(tmp_path, capsys, mu0):
    # point-mass data: every error is exactly 0 and the fitted order is undefined
    out = tmp_path / "o"
    assert run(["compare-samplers", *mu0, "--var0", 0, "--batch", 2, "--out", out]) == 2
    assert "--var0 > 0" in _one_line_error(capsys)
    assert not (out / "report.csv").exists()
    # the oracle itself stays defined for a point mass
    assert run(["sample", "--oracle", *mu0, "--var0", 0, "--ddim_steps", 5, "--batch", 2,
                "--out", tmp_path / "s"]) == 0


@pytest.mark.parametrize("hidden", [0, -3])
def test_toy_train_non_positive_hidden_exits_2(tmp_path, capsys, hidden):
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 1,
                "--hidden", hidden, "--out", tmp_path / "o"]) == 2
    assert "--hidden" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


def _train_conditional(tmp_path):
    out = tmp_path / "train"
    assert run(["toy-train", "--dataset", "8-gaussian-ring", "--steps", 0, "--conditional",
                "--seed", 1, "--timesteps", 50, "--out", out]) == 0
    return out / "checkpoint.bin"


def test_sample_label_out_of_range_exits_2(tmp_path, capsys):
    ckpt_path = _train_conditional(tmp_path)
    assert run(["sample", "--checkpoint", ckpt_path, "--label", 8, "--ddim_steps", 5,
                "--batch", 2, "--out", tmp_path / "o"]) == 2
    assert "--label" in _one_line_error(capsys)


def _rewrite_checkpoint(path, **changes):
    from artdiff.checkpoint import DENOISER_MAGIC, load_arrays, save_arrays
    arrays = load_arrays(path, DENOISER_MAGIC)
    arrays.update(changes)
    save_arrays(path, DENOISER_MAGIC, arrays)


def test_sample_overflowing_checkpoint_is_runtime_failure(tmp_path, capsys):
    # finite weights whose output overflows: a runtime failure, not bad input
    ckpt_path = _train_conditional(tmp_path)
    _rewrite_checkpoint(ckpt_path, b_out=np.array([1.7e308, 1.7e308]),
                        w_out=np.full((2, 16), 1e307))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["sample", "--checkpoint", ckpt_path, "--label", 3, "--ddim_steps", 5,
                    "--batch", 2, "--out", tmp_path / "o"])
    assert code == 1
    assert "non-finite" in _one_line_error(capsys)


def run_in_fresh_process(argv):
    """The CLI in a new interpreter, so numpy's floating-point warnings reach
    stderr as they would for a user, and pytest's warning capture cannot
    hide them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "artdiff.cli"] + [str(a) for a in argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_diverging_toy_train_prints_one_line(tmp_path):
    proc = run_in_fresh_process(["toy-train", "--dataset", "8-gaussian-ring", "--lr", "1e300",
                                 "--steps", "2", "--out", tmp_path / "o"])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: loss became non-finite at step 1"]


@pytest.mark.parametrize("argv", [
    ["compare-samplers", "--var0", "1e308", "--batch", "4"],
    ["sample", "--oracle", "--var0", "1e308"],
], ids=["compare-samplers", "sample-oracle"])
def test_diverging_sample_prints_one_line(tmp_path, argv):
    # the state overflows within the first steps; numpy's overflow and
    # invalid-value warnings must not reach stderr before the error line
    proc = run_in_fresh_process(argv + ["--out", tmp_path / "o"])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: sample state contains non-finite elements"]


def test_prompt_extend_on_a_corpus_without_tokens_prints_nothing(tmp_path):
    # every document tokenizes to nothing, so the mean document length is 0
    corpus = tmp_path / "marks.jsonl"
    corpus.write_text('{"id": "a", "title": "!!!"}\n{"id": "b", "title": "???"}\n')
    out = tmp_path / "o"
    proc = run_in_fresh_process(["prompt-extend", "x", "--corpus", corpus,
                                 "--gazetteer", DATA / "gazetteer.txt",
                                 "--fixtures", DATA / "fixtures.jsonl", "--out", out])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [json.loads(line)["text"] for line in
            (out / "candidates.jsonl").read_text().splitlines()] == ["!!!"]


def test_sample_inf_bias_checkpoint_exits_1(tmp_path, capsys):
    ckpt_path = _train_conditional(tmp_path)
    _rewrite_checkpoint(ckpt_path, b_out=np.array([np.inf, 0.0]))
    assert run(["sample", "--checkpoint", ckpt_path, "--ddim_steps", 5,
                "--batch", 2, "--out", tmp_path / "o"]) == 1
    assert "non-finite" in _one_line_error(capsys)


def test_sample_wrong_shape_checkpoint_exits_1(tmp_path, capsys):
    ckpt_path = _train_conditional(tmp_path)
    _rewrite_checkpoint(ckpt_path, w_in=np.zeros((16, 3)))
    assert run(["sample", "--checkpoint", ckpt_path, "--ddim_steps", 5,
                "--batch", 2, "--out", tmp_path / "o"]) == 1
    assert "'w_in'" in _one_line_error(capsys)


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_sample_oracle_non_finite_scale_exits_2(tmp_path, capsys, scale):
    assert run(["sample", "--oracle", "--scale", scale, "--ddim_steps", 5,
                "--batch", 2, "--out", tmp_path / "o"]) == 2
    assert "guidance_scale must be a finite number" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "samples.csv").exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_sample_checkpoint_non_finite_scale_exits_2(tmp_path, capsys, scale):
    ckpt_path = _train_conditional(tmp_path)
    assert run(["sample", "--checkpoint", ckpt_path, "--label", 0, "--scale", scale,
                "--ddim_steps", 5, "--batch", 2, "--out", tmp_path / "o"]) == 2
    assert "guidance_scale must be a finite number" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "samples.csv").exists()


GOOD_DOC = '{"id": "a", "title": "urban china"}\n'


@pytest.mark.parametrize("text, line, message", [
    (GOOD_DOC + '{"id": "b", "body": "x"}\n', 2, "missing field 'title'"),
    (GOOD_DOC + '["b", "title"]\n', 2, "expected a JSON object, got an array"),
    ('{"id": "a", "title": 5}\n', 1, "field 'title' must be a string, got an integer"),
    (GOOD_DOC + '{"id": "b" "title": "x"}\n', 2, "invalid JSON"),
    (GOOD_DOC + '\n{"id": "a", "title": "x"}\n', 3, "duplicate document id 'a'"),
    (GOOD_DOC + '{"id": "b", "title": ""}\n', 2, "empty title"),
], ids=["missing-title", "array-line", "integer-title", "bad-json-line-2",
        "duplicate-id", "empty-title"])
def test_prompt_extend_malformed_corpus_exits_2(tmp_path, capsys, text, line, message):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(text)
    assert run(["prompt-extend", "x", "--corpus", corpus,
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", DATA / "fixtures.jsonl", "--out", tmp_path / "o"]) == 2
    err = _one_line_error(capsys)
    assert f"{corpus}:{line}: " in err
    assert message in err
    assert not (tmp_path / "o" / "candidates.jsonl").exists()


def test_prompt_extend_malformed_fixtures_exits_2(tmp_path, capsys):
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text('{"prompt": "x", "responses": ["ok"]}\n{"prompt": "y"\n')
    assert run(["prompt-extend", "x", "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", DATA / "gazetteer.txt",
                "--fixtures", fixtures, "--out", tmp_path / "o"]) == 2
    assert f"{fixtures}:2: invalid JSON" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "candidates.jsonl").exists()


def _with_setting(tmp_path, argv, form, key, value):
    """argv with ``key`` set to ``value`` as a flag or in a config file."""
    if form == "flag":
        return argv + [f"--{key}", value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    return argv + ["--config", cfg]


@pytest.mark.parametrize("form, value, message", [
    pytest.param("flag", "ab", "must be exactly one character, got 'ab'", id="flag"),
    pytest.param("config", "ab", "must be exactly one character, got 'ab'", id="config"),
    # csv cannot split on its quote character or on a line break; a config
    # value cannot hold a line break
    pytest.param("flag", '"', "cannot be the quote character or a line break, got '\"'",
                 id="flag-quote"),
    pytest.param("config", '"', "cannot be the quote character or a line break, got '\"'",
                 id="config-quote"),
    pytest.param("flag", "\n", "cannot be the quote character or a line break, got '\\n'",
                 id="flag-line-feed"),
    pytest.param("flag", "\r", "cannot be the quote character or a line break, got '\\r'",
                 id="flag-carriage-return"),
])
def test_corpus_stats_multi_character_delimiter_exits_2(tmp_path, capsys, form, value, message):
    argv = ["corpus-stats", "--metadata", DATA / "artworks.csv", "--out", tmp_path / "o"]
    argv = _with_setting(tmp_path, argv, form, "delimiter", value)
    assert run(argv) == 2
    assert f"--delimiter {message}" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "artist_histogram.csv").exists()


@pytest.mark.parametrize("form", ["flag", "config"])
def test_compare_samplers_bad_beta_start_exits_2(tmp_path, capsys, form):
    argv = ["compare-samplers", "--batch", 2, "--out", tmp_path / "o"]
    argv = _with_setting(tmp_path, argv, form, "beta_start", 0)
    assert run(argv) == 2
    assert "beta_start" in _one_line_error(capsys)
    assert not (tmp_path / "o" / "report.csv").exists()


def test_prompt_extend_non_utf8_gazetteer_exits_2(tmp_path, capsys):
    gazetteer = tmp_path / "gazetteer.txt"
    gazetteer.write_bytes(b"Shenzhen\nBei\xffjing\n")
    assert run(["prompt-extend", "x", "--corpus", DATA / "micro_corpus.jsonl",
                "--gazetteer", gazetteer, "--fixtures", DATA / "fixtures.jsonl",
                "--out", tmp_path / "o"]) == 2
    assert f"{gazetteer}:2: not UTF-8 text" in _one_line_error(capsys)


def test_corpus_stats_non_utf8_metadata_exits_2(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_bytes(b"a,Solo Artist,s,g,1900\nb,Solo \xffArtist,s,g,1901\n")
    assert run(["corpus-stats", "--metadata", table, "--out", tmp_path / "o"]) == 2
    assert f"{table}:2: not UTF-8 text" in _one_line_error(capsys)


def test_corpus_stats_over_long_metadata_field_exits_2(tmp_path, capsys):
    # the csv module refuses a field over its limit of 131,072 characters
    table = tmp_path / "rows.csv"
    table.write_text("a,Solo Artist,s,g,1900\nb,\"" + "x" * 131_073 + "\",s,g,1901\n",
                     encoding="utf-8")
    assert run(["corpus-stats", "--metadata", table, "--out", tmp_path / "o"]) == 2
    assert f"{table}:2: field larger than field limit" in _one_line_error(capsys)


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    assert run(["sample", "--oracle", "--ddim_steps", 5, "--batch", 2, "--out", blocker]) == 2
    assert f"cannot create output directory {blocker}" in _one_line_error(capsys)
    assert blocker.read_text() == "not a directory\n"


def test_out_of_memory_is_one_line_runtime_failure(tmp_path, capsys, monkeypatch):
    # the allocation failure is simulated: a real huge request could succeed
    # under memory overcommit and then fill memory
    from artdiff import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(100000000000, 2) and data type float64")

    monkeypatch.setattr(cli, "sample", exhausted)
    assert run(["sample", "--oracle", "--ddim_steps", 5, "--batch", 2,
                "--out", tmp_path / "o"]) == 1
    assert _one_line_error(capsys).startswith("error: out of memory: Unable to allocate")


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("timesteps=40\n# comment\nbogus=1\n")
    assert run(["schedule-dump", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"{cfg}:3: unknown key 'bogus'" in _one_line_error(capsys)
    assert not (tmp_path / "o").exists()


def test_config_file_rejects_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle=true\nddim_steps=5\nbatch=2\nddim_steps=6\n")
    assert run(["sample", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert f"{cfg}:4: key 'ddim_steps' is already set on line 2" in _one_line_error(capsys)


def test_parser_is_built_once_per_process():
    from artdiff.cli import _config_keys, build_parser

    assert build_parser() is build_parser()
    assert {"timesteps", "ddim_steps", "delimiter"} <= _config_keys()


def test_bad_flag_after_a_good_call_still_exits_2(tmp_path, capsys):
    # the shared parser keeps no state from one call to the next
    assert run(["schedule-dump", "--timesteps", 10, "--out", tmp_path / "a"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["schedule-dump", "--bogus", 1, "--out", tmp_path / "b"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(["schedule-dump", "--timesteps", 10, "--out", tmp_path / "c"]) == 0
    assert read_all(tmp_path / "a")["schedule.csv"] == read_all(tmp_path / "c")["schedule.csv"]
