import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import emosup as es
from emosup.cli import COMMANDS, main
from test_encoders import OVERLONG_REF, TRUNCATED  # a bad ref, feature files cut short
from test_prompts import PROJECTOR_EDITS  # checkpoint edits that keep each network's dims


def run(*argv):
    return main([str(a) for a in argv])


def assert_dirs_byte_identical(a: Path, b: Path):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert run("gen-corpus", "--seed", 1, "--identities", 2, "--per-emotion", 2,
               "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("cli") / "ckpt"
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json",
               "--epochs", 2, "--steps-per-epoch", 3, "--batch-size", 4,
               "--out", out) == 0
    return out


# ---------------------------------------------------------------------------
# gen-corpus
# ---------------------------------------------------------------------------

def test_gen_corpus_counts(tmp_path, capsys):
    out = tmp_path / "c"
    assert run("gen-corpus", "--seed", 3, "--identities", 2, "--per-emotion", 1,
               "--out", out) == 0
    assert "14 samples" in capsys.readouterr().out
    manifest = es.CorpusManifest.load(out / "manifest.json")
    assert len(manifest.samples) == 14


def test_gen_corpus_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("gen-corpus", "--seed", 5, "--identities", 2,
                   "--per-emotion", 1, "--out", out) == 0
    assert_dirs_byte_identical(a, b)


def test_gen_corpus_defaults_are_the_world_config_defaults(tmp_path, capsys):
    out = tmp_path / "c"
    assert run("gen-corpus", "--out", out) == 0
    assert capsys.readouterr().out == "wrote 84 samples (76 train / 8 val) for 4 identities\n"
    flags = json.loads((out / "run.json").read_text())["flags"]
    assert flags == {"seed": 1, "per_emotion": 3, "identities": 4, "gap": 1.0,
                     "noise": 0.05, "d_e": 64, "d_b": 32, "d_tok": 32, "d_latent": 16}
    world = json.loads((out / "manifest.json").read_text())["world"]
    assert world == {"seed": 1, "config": es.WorldConfig().to_dict()}


def test_gen_corpus_missing_required_flag_exits_2():
    assert run("gen-corpus", "--seed", 1) == 2


def test_unknown_command_exits_2():
    assert run("frobnicate") == 2


def test_gen_corpus_features_loadable(corpus_dir):
    suite = es.load_precomputed_features(corpus_dir / "features.json")
    manifest = es.CorpusManifest.load(corpus_dir / "manifest.json")
    world = manifest.rebuild_world()
    sample = manifest.samples[0]
    served = suite.visual_encode((sample.id,))[0]
    direct = world.visual_embedding(sample.image_ref)
    # stored as float32: equality holds at float32 resolution
    assert np.allclose(served, direct, atol=1e-6)


# ---------------------------------------------------------------------------
# pretraining commands
# ---------------------------------------------------------------------------

def test_pretrain_outputs_and_determinism(tmp_path, corpus_dir):
    args = ["--manifest", corpus_dir / "manifest.json", "--epochs", 2,
            "--steps-per-epoch", 3, "--batch-size", 4]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("pretrain", *args, "--out", out) == 0
    assert_dirs_byte_identical(a, b)
    ckpt = es.AlignmentCheckpoint.load(a / "checkpoint.json")
    assert ckpt.frozen
    assert len((a / "curve.csv").read_text().splitlines()) == 1 + 2 * 3
    run_meta = json.loads((a / "run.json").read_text())
    assert run_meta["command"] == "pretrain"
    assert set(run_meta["outputs"]) == {"checkpoint.json", "curve.csv"}


def test_pretrain_default_flags_encode_schedule(tmp_path, corpus_dir):
    out = tmp_path / "sched"
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json",
               "--epochs", 1, "--steps-per-epoch", 1, "--out", out) == 0
    flags = json.loads((out / "run.json").read_text())["flags"]
    assert flags["lr"] == 0.1
    assert flags["decay_epochs"] == "2,4,6"
    assert flags["decay_factor"] == 10.0
    cfg = es.TrainConfig(lr=flags["lr"],
                         decay_epochs=tuple(int(x) for x
                                            in flags["decay_epochs"].split(",")),
                         decay_factor=flags["decay_factor"])
    assert [cfg.learning_rate_at(e) for e in (0, 2, 4, 6)] == pytest.approx(
        [0.1, 0.01, 0.001, 0.0001])


def test_pretrain_single_conditional_mode(tmp_path, corpus_dir):
    out = tmp_path / "sc"
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json",
               "--epochs", 1, "--steps-per-epoch", 2, "--batch-size", 4,
               "--projector-mode", "single_conditional", "--out", out) == 0
    ckpt = es.AlignmentCheckpoint.load(out / "checkpoint.json")
    assert ckpt.mode == "single_conditional"
    assert ckpt.bank.vector.shape[0] == 1


def test_pretrain_diff_ablation_same_curve_schema(tmp_path, corpus_dir):
    out = tmp_path / "abl"
    assert run("pretrain-diff-ablation", "--manifest", corpus_dir / "manifest.json",
               "--epochs", 1, "--steps-per-epoch", 2, "--batch-size", 4,
               "--out", out) == 0
    assert (out / "curve.csv").read_text().splitlines()[0] == "epoch,step,loss,lr"


def test_pretrain_missing_manifest_exits_2(tmp_path):
    assert run("pretrain", "--manifest", tmp_path / "nope.json",
               "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                         ("--decay-factor", "nan")])
def test_pretrain_rejects_a_non_finite_rate(tmp_path, corpus_dir, capsys, flag, value):
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json", flag, value,
               "--out", tmp_path / "x") == 2
    field = flag[2:].replace("-", "_")
    assert f"{field} must be finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analysis commands
# ---------------------------------------------------------------------------

def test_analyze_gap_outputs(tmp_path, corpus_dir, capsys):
    out = tmp_path / "gap"
    assert run("analyze-gap", "--manifest", corpus_dir / "manifest.json",
               "--compare-reference", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "ref_gap" in printed
    report = json.loads((out / "report.json").read_text())
    assert set(report["rows"]) == {e.name for e in es.EMOTIONS}
    assert (out / "matrix.csv").exists()


def _per_emotion_filter_outputs(manifest_path: Path) -> tuple[bytes, bytes]:
    """report.json and matrix.json bytes from one array per emotion, each
    built by filtering the manifest's samples on that emotion."""
    manifest = es.CorpusManifest.load(manifest_path)
    suite = es.synthetic_suite(manifest.rebuild_world())
    features = {e: suite.visual_encode(tuple(s.image_ref for s in manifest.samples
                                             if s.emotion == e))
                for e in es.EMOTIONS}
    texts = {e: suite.text_encode(suite.tokenize(es.prompt_for(e))[None])[0]
             for e in es.EMOTIONS}
    return tuple((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
                 for payload in (es.modality_gap_report(features, texts).to_json_dict(),
                                 es.cross_modal_matrix(features, texts).to_json_dict()))


def test_analyze_gap_identity_work_is_per_world_not_per_sample(tmp_path, monkeypatch,
                                                                capsys):
    world = es.build_synthetic_world(6, es.WorldConfig(n_identities=48))
    accesses = []
    names = es.SyntheticWorld.__dict__["identity_names"]

    def counted(self):
        accesses.append(1)
        return names.__get__(self, type(self))

    counts = []
    for per_emotion in (6, 12):  # 2016 and 4032 samples
        path = tmp_path / f"manifest_{per_emotion}.json"
        es.generate_synthetic_corpus(world, per_emotion).save(path)
        expected = _per_emotion_filter_outputs(path)
        out = tmp_path / f"gap_{per_emotion}"
        with monkeypatch.context() as patch:
            patch.setattr(es.SyntheticWorld, "identity_names", property(counted))
            accesses.clear()
            assert run("analyze-gap", "--manifest", path, "--out", out) == 0
            counts.append(len(accesses))
        assert ((out / "report.json").read_bytes(),
                (out / "matrix.json").read_bytes()) == expected
    assert counts[0] == counts[1] <= 2


def test_analyze_gap_holds_fewer_than_two_feature_stacks(tmp_path, capsys):
    # A wide embedding makes the N x d_e features dominate the manifest and
    # the rest, so a list of per-sample rows stacked into a second copy
    # (about 2 x N x d_e x 8 bytes plus the row objects) breaks the bound.
    d_e, per_emotion = 512, 30
    world = es.build_synthetic_world(7, es.WorldConfig(n_identities=24, d_e=d_e))
    path = tmp_path / "manifest.json"
    es.generate_synthetic_corpus(world, per_emotion).save(path)
    n = 24 * 7 * per_emotion
    assert n >= 5000
    del world
    tracemalloc.start()
    try:
        assert run("analyze-gap", "--manifest", path, "--out", tmp_path / "gap") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d_e * 8 + 2**20


def test_analyze_gap_refuses_a_non_canonical_image_ref(tmp_path, corpus_dir, capsys):
    spec = json.loads((corpus_dir / "manifest.json").read_text())
    spec["samples"][0]["image_ref"] += "0"  # replicate 0 spelled 00
    bad_ref = spec["samples"][0]["image_ref"]
    assert bad_ref.endswith(":00")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "gap"
    assert run("analyze-gap", "--manifest", path, "--out", out) == 2
    assert f"unknown image ref {bad_ref!r}" in capsys.readouterr().err
    assert not out.exists()


def test_derive_pools_reference_k1(tmp_path, capsys):
    out = tmp_path / "pools"
    assert run("derive-pools", "--k", 1, "--matrix", "reference",
               "--out", out) == 0
    note = capsys.readouterr().out
    assert "neutral" in note and "surprised" in note
    payload = json.loads((out / "pools.json").read_text())
    reference = es.load_reference_pools().to_names()
    for name in ("angry", "disgusted", "fear", "happy", "sad"):
        assert payload["pools"][name] == reference[name]
    assert set(payload["discrepancies"]) == {"neutral", "surprised"}


def test_derive_pools_from_measured_matrix(tmp_path, corpus_dir):
    gap_out = tmp_path / "gap"
    assert run("analyze-gap", "--manifest", corpus_dir / "manifest.json",
               "--out", gap_out) == 0
    out = tmp_path / "pools"
    assert run("derive-pools", "--k", 0, "--matrix", gap_out / "matrix.json",
               "--out", out) == 0
    payload = json.loads((out / "pools.json").read_text())
    assert all(len(v) == 6 for v in payload["pools"].values())


def test_derive_pools_refuses_a_nan_similarity(tmp_path, capsys):
    # a NaN cell passed the [-1, 1] range check, and pools were sorted on it
    data = es.load_reference_matrix().to_json_dict()
    data["rows"]["happy"]["sad"] = float("nan")
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(data))
    out = tmp_path / "pools"
    capsys.readouterr()
    assert run("derive-pools", "--k", 1, "--matrix", matrix, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {matrix}: similarities must be finite\n"
    assert not out.exists()


def test_eval_metrics_self_comparison(tmp_path, corpus_dir, capsys):
    out = tmp_path / "metrics"
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus_dir / "features.json", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    # 28 samples in 64 dims: the rank-deficient covariance costs sqrt(eps)
    # accuracy at the zero eigenvalues
    assert abs(report["fad"]) < 1e-5
    assert report["csim"] == pytest.approx(1.0)
    assert report["lse_d"] == 0.0


# ---------------------------------------------------------------------------
# demo commands
# ---------------------------------------------------------------------------

def test_supervise_demo_cli(tmp_path, corpus_dir, checkpoint_dir):
    out = tmp_path / "demo"
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json",
               "--steps", 10, "--batch-size", 4, "--hidden", "16",
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["baseline"]["lambda"] == 0.0
    assert report["supervised"]["lambda"] == 0.4  # toy default
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_supervise_demo_rejects_a_non_finite_lr(tmp_path, corpus_dir, checkpoint_dir,
                                                capsys, value):
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--lr", value,
               "--out", tmp_path / "demo") == 2
    assert "lr must be finite and positive" in capsys.readouterr().err


def test_sweep_lambda_cli_row_count(tmp_path, corpus_dir, checkpoint_dir):
    out = tmp_path / "sweep"
    assert run("sweep-lambda", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json",
               "--steps", 10, "--batch-size", 4, "--hidden", "16",
               "--grid", "0.1,0.2,0.4,0.8", "--out", out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 grid rows


def test_sweep_and_supervise_demo_give_the_same_rows(tmp_path, corpus_dir,
                                                     checkpoint_dir):
    # 25 steps: the rows average the last 2, where the lambda 0 run computes L2
    common = ["--manifest", corpus_dir / "manifest.json",
              "--checkpoint", checkpoint_dir / "checkpoint.json",
              "--seed", 3, "--steps", 25, "--batch-size", 4, "--hidden", "16"]
    sweep, demo = tmp_path / "sweep", tmp_path / "demo"
    assert run("sweep-lambda", *common, "--grid", "0,0.4", "--out", sweep) == 0
    assert run("supervise-demo", *common, "--out", demo) == 0
    assert (sweep / "sweep.csv").read_bytes() == (demo / "report.csv").read_bytes()
    report = json.loads((demo / "report.json").read_text())
    rows = json.loads((sweep / "sweep.json").read_text())["rows"]
    assert rows == [report["baseline"], report["supervised"]]
    assert rows[0]["l2_loss"] > 0


def test_export_diffs_cli(tmp_path, corpus_dir, checkpoint_dir):
    out = tmp_path / "diffs"
    assert run("export-diffs", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json",
               "--out", out) == 0
    lines = (out / "diffs.csv").read_text().splitlines()
    manifest = es.CorpusManifest.load(corpus_dir / "manifest.json")
    assert len(lines) == 1 + len(manifest.samples) * 6


# the C locale with neither locale coercion nor UTF-8 mode: Python's locale
# encoding is then ASCII
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf-8", "ascii-escaped"])
def test_export_diffs_reads_and_writes_utf8_under_an_ascii_locale(
        tmp_path, corpus_dir, checkpoint_dir, ensure_ascii):
    # one identity renamed to a non-ASCII name, in a manifest written as UTF-8
    # text or with the name escaped; the CSV holds the name, so it must be
    # written as UTF-8 too
    d = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    renamed = d["samples"][0]["identity"]
    for entry in d["samples"]:
        if entry["identity"] == renamed:
            entry["identity"] = "Zo\u00eb"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(d, ensure_ascii=ensure_ascii), encoding="utf-8")
    out = tmp_path / "diffs"
    env = {**os.environ, **ASCII_LOCALE,
           "PYTHONPATH": str(Path(es.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "emosup.cli", "export-diffs", "--manifest", str(manifest),
         "--checkpoint", str(checkpoint_dir / "checkpoint.json"), "--out", str(out)],
        env=env, capture_output=True, text=True, encoding="utf-8", errors="replace")
    assert result.returncode == 0, result.stderr
    with open(out / "diffs.csv", encoding="utf-8", newline="") as f:
        identities = [row[0] for row in csv.reader(f)][1:]
    # six target emotions for each of the renamed identity's samples
    assert identities.count("Zo\u00eb") == 6 * sum(entry["identity"] == "Zo\u00eb"
                                                   for entry in d["samples"])
    assert renamed not in identities


def test_a_key_error_prints_its_message_as_written(tmp_path, corpus_dir, checkpoint_dir,
                                                   capsys):
    # str() of a KeyError is the repr of its argument; the CLI prints the
    # message itself, as it prints a ContractError's
    d = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    renamed = d["samples"][0]["identity"]
    for entry in d["samples"]:
        if entry["identity"] == renamed:
            entry["identity"] = "Zo\u00eb"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(d), encoding="utf-8")
    assert run("supervise-demo", "--manifest", manifest, "--checkpoint",
               checkpoint_dir / "checkpoint.json", "--steps", 1,
               "--out", tmp_path / "demo") == 2
    assert capsys.readouterr().err == "error: unknown identity 'Zo\u00eb'\n"


# ---------------------------------------------------------------------------
# config flags: one flag per config field
# ---------------------------------------------------------------------------

def assert_every_field_differs_from_its_default(config, unflagged=()):
    """A field added to the config class without a flag value below keeps its
    default and fails here."""
    default = type(config)()
    for f in dataclasses.fields(config):
        if f.name not in unflagged:
            assert getattr(config, f.name) != getattr(default, f.name), f.name


def test_every_world_flag_reaches_its_field(tmp_path):
    expected = es.WorldConfig(n_identities=3, d_latent=8, d_e=48, d_b=24, d_tok=16,
                              noise_sigma=0.1, gap=0.5)
    assert_every_field_differs_from_its_default(expected, unflagged={"word_token_scale"})
    out = tmp_path / "c"
    assert run("gen-corpus", "--per-emotion", 1, "--identities", 3, "--d-latent", 8,
               "--d-e", 48, "--d-b", 24, "--d-tok", 16, "--noise", 0.1, "--gap", 0.5,
               "--out", out) == 0
    world = json.loads((out / "manifest.json").read_text())["world"]
    assert world["config"] == expected.to_dict()


def test_every_training_flag_reaches_its_field(tmp_path, corpus_dir):
    expected = es.TrainConfig(seed=2, epochs=2, batch_size=5, steps_per_epoch=2, lr=0.05,
                              decay_epochs=(1,), decay_factor=2.0, momentum=0.5,
                              projector_mode="single_conditional", guider_token_count=2)
    assert_every_field_differs_from_its_default(expected)
    out = tmp_path / "ckpt"
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json", "--seed", 2,
               "--epochs", 2, "--batch-size", 5, "--steps-per-epoch", 2, "--lr", 0.05,
               "--decay-epochs", 1, "--decay-factor", 2, "--momentum", 0.5,
               "--projector-mode", "single_conditional", "--guider-tokens", 2,
               "--out", out) == 0
    saved = es.AlignmentCheckpoint.load(out / "checkpoint.json")
    assert saved.metadata["config"] == expected.to_dict()


def test_every_demo_flag_reaches_its_field(tmp_path, corpus_dir, checkpoint_dir):
    expected = es.DemoConfig(seed=3, steps=4, batch_size=3, lr=0.1, hidden=(8, 4))
    assert_every_field_differs_from_its_default(expected)
    out = tmp_path / "demo"
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--seed", 3,
               "--steps", 4, "--batch-size", 3, "--lr", 0.1, "--hidden", "8,4",
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == {**expected.to_dict(), "baseline_tag": "toy"}


@pytest.mark.parametrize("flags", [["--lambda", 5], ["--baseline", "ned"]])
def test_sweep_lambda_refuses_lambda_and_baseline(tmp_path, corpus_dir, checkpoint_dir,
                                                  capsys, flags):
    out = tmp_path / "sweep"
    assert run("sweep-lambda", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", *flags,
               "--out", out) == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# refusals that come after the inputs are read
# ---------------------------------------------------------------------------

def test_pretrain_runs_on_a_one_sample_per_emotion_corpus(tmp_path, capsys):
    # world seed 4 ranks an identity's only neutral first for val; the corpus
    # keeps it in train, so pre-training has a reference for every identity
    assert run("gen-corpus", "--seed", 4, "--per-emotion", 1,
               "--out", tmp_path / "corpus") == 0
    assert run("pretrain", "--manifest", tmp_path / "corpus" / "manifest.json",
               "--epochs", 1, "--steps-per-epoch", 2, "--out", tmp_path / "ckpt") == 0
    assert "val retrieval accuracy=" in capsys.readouterr().out


def _resplit(corpus_dir: Path, path: Path, split_of) -> Path:
    """The corpus's manifest with each sample's split tag set by ``split_of``."""
    spec = json.loads((corpus_dir / "manifest.json").read_text())
    for sample in spec["samples"]:
        sample["split"] = split_of(sample)
    path.write_text(json.dumps(spec))
    return path


def test_pretrain_without_a_train_neutral_leaves_no_out(tmp_path, corpus_dir, capsys):
    # the manifest loads and validates; training refuses it, before --out exists
    manifest = _resplit(corpus_dir, tmp_path / "manifest.json", lambda s: (
        "val" if s["id"].startswith("id000_neutral_") else s["split"]))
    out = tmp_path / "ckpt"
    assert run("pretrain", "--manifest", manifest, "--epochs", 1, "--steps-per-epoch", 2,
               "--out", out) == 2
    assert "identity 'id000' has no train-split neutral sample" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "supervise-demo", "sweep-lambda"])
def test_an_empty_val_split_leaves_no_out(tmp_path, corpus_dir, checkpoint_dir, capsys,
                                          command):
    # pretrain scores val retrieval, and the demos judge on val, after they
    # train; a refusal there comes before --out exists
    manifest = _resplit(corpus_dir, tmp_path / "manifest.json", lambda s: "train")
    flags = (["--epochs", 1, "--steps-per-epoch", 2] if command == "pretrain" else
             ["--checkpoint", checkpoint_dir / "checkpoint.json", "--steps", 2])
    out = tmp_path / "out"
    assert run(command, "--manifest", manifest, *flags, "--out", out) == 2
    assert "is empty" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# replay from run metadata
# ---------------------------------------------------------------------------

def test_replay_from_run_metadata(tmp_path, corpus_dir):
    replay = tmp_path / "replay"
    assert run("gen-corpus", "--config", corpus_dir / "run.json",
               "--out", replay) == 0
    assert_dirs_byte_identical(corpus_dir, replay)


def test_replay_pretrain_from_run_metadata(tmp_path, corpus_dir, checkpoint_dir):
    replay = tmp_path / "replay"
    assert run("pretrain", "--config", checkpoint_dir / "run.json",
               "--out", replay) == 0
    assert_dirs_byte_identical(checkpoint_dir, replay)


def test_replay_supervise_demo_from_run_metadata(tmp_path, corpus_dir, checkpoint_dir):
    first, replay = tmp_path / "demo", tmp_path / "replay"
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--steps", 10,
               "--batch-size", 4, "--hidden", "16,8", "--lambda", 0.3,
               "--baseline", "ned", "--out", first) == 0
    assert json.loads((first / "run.json").read_text())["flags"]["hidden"] == "16,8"
    assert run("supervise-demo", "--config", first / "run.json", "--out", replay) == 0
    assert_dirs_byte_identical(first, replay)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, corpus_dir, checkpoint_dir):
    out = tmp_path_factory.mktemp("cli") / "sweep"
    assert run("sweep-lambda", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--steps", 10,
               "--batch-size", 4, "--hidden", "16,8", "--grid", "0,0.4",
               "--out", out) == 0
    return out


def test_replay_sweep_lambda_from_run_metadata(tmp_path, sweep_dir):
    assert json.loads((sweep_dir / "run.json").read_text())["flags"]["hidden"] == "16,8"
    replay = tmp_path / "replay"
    assert run("sweep-lambda", "--config", sweep_dir / "run.json", "--out", replay) == 0
    assert_dirs_byte_identical(sweep_dir, replay)


def test_sweep_replay_ignores_lambda_and_baseline_keys(tmp_path, sweep_dir):
    # a sweep run.json written when sweep-lambda still took --lambda and
    # --baseline records both; neither ever changed a sweep
    meta = json.loads((sweep_dir / "run.json").read_text())
    assert "lam" not in meta["flags"] and "baseline" not in meta["flags"]
    meta["flags"].update(lam=5.0, baseline="ned")
    config = tmp_path / "old_run.json"
    config.write_text(json.dumps(meta))
    replay = tmp_path / "replay"
    assert run("sweep-lambda", "--config", config, "--out", replay) == 0
    for name in ("sweep.csv", "sweep.json", "run.json"):
        assert (replay / name).read_bytes() == (sweep_dir / name).read_bytes(), name


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory, corpus_dir, checkpoint_dir):
    out = tmp_path_factory.mktemp("cli") / "demo"
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--steps", 5,
               "--batch-size", 4, "--out", out) == 0
    return out


@pytest.mark.parametrize("command, config_of", [("pretrain", "demo"),
                                                ("gen-corpus", "pretrain")])
def test_config_of_another_command_is_refused(tmp_path, checkpoint_dir, demo_dir,
                                              capsys, command, config_of):
    config = {"demo": demo_dir, "pretrain": checkpoint_dir}[config_of] / "run.json"
    recorded = json.loads(config.read_text())["command"]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"--config {config} records a {recorded} run" in err
    assert f"cannot configure {command}" in err
    assert not out.exists()


def test_plain_flags_config_still_applies(tmp_path, corpus_dir):
    config = tmp_path / "flags.json"
    config.write_text(json.dumps({"manifest": str(corpus_dir / "manifest.json"),
                                  "epochs": 1, "steps_per_epoch": 2, "batch_size": 4}))
    out = tmp_path / "ckpt"
    assert run("pretrain", "--config", config, "--out", out) == 0
    flags = json.loads((out / "run.json").read_text())["flags"]
    assert (flags["epochs"], flags["steps_per_epoch"], flags["batch_size"]) == (1, 2, 4)


def test_config_key_of_no_command_is_refused(tmp_path, corpus_dir, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"manifest": str(corpus_dir / "manifest.json"),
                                  "epoch": 1, "lrate": 0.1}))
    out = tmp_path / "ckpt"
    assert run("pretrain", "--config", config, "--out", out) == 2
    assert capsys.readouterr().err == \
        f"error: --config {config} has keys that are no command's flag: epoch, lrate\n"
    assert not out.exists()


def test_config_key_of_another_command_is_ignored(tmp_path, corpus_dir):
    # one flags file may serve several commands; grid is a sweep-lambda flag
    config = tmp_path / "flags.json"
    config.write_text(json.dumps({"manifest": str(corpus_dir / "manifest.json"),
                                  "epochs": 1, "steps_per_epoch": 2, "batch_size": 4,
                                  "grid": "0,0.4"}))
    out = tmp_path / "ckpt"
    assert run("pretrain", "--config", config, "--out", out) == 0
    flags = json.loads((out / "run.json").read_text())["flags"]
    assert flags["epochs"] == 1 and "grid" not in flags


@pytest.mark.parametrize("command, key, value", [
    ("pretrain", "epochs", 1.7), ("pretrain", "epochs", True), ("pretrain", "lr", "0.1"),
    ("supervise-demo", "hidden", None), ("pretrain", "decay_epochs", [2, 4.5]),
    ("pretrain", "manifest", 3), ("export-diffs", "include_mismatched", "false"),
    ("export-diffs", "include_mismatched", 0), ("supervise-demo", "lam", "0.4"),
    ("supervise-demo", "hidden", [True]), ("sweep-lambda", "grid", [0, "0.4"])])
def test_config_value_of_the_wrong_type_is_refused(tmp_path, corpus_dir, checkpoint_dir,
                                                   capsys, command, key, value):
    config = tmp_path / "flags.json"
    config.write_text(json.dumps({"manifest": str(corpus_dir / "manifest.json"),
                                  "checkpoint": str(checkpoint_dir / "checkpoint.json"),
                                  key: value}))
    out = tmp_path / "out"
    assert run(command, "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --config {config}: {key} takes ")
    assert err.endswith(f", not {json.dumps(value)}\n")
    assert not out.exists()


def test_config_values_of_the_flag_types_apply(tmp_path, corpus_dir, checkpoint_dir):
    # an int for a float flag, a list for a tuple field, null for a flag
    # with no default, true for a store_const flag
    config = tmp_path / "flags.json"
    config.write_text(json.dumps({"manifest": str(corpus_dir / "manifest.json"),
                                  "checkpoint": str(checkpoint_dir / "checkpoint.json"),
                                  "steps": 5, "batch_size": 4, "lr": 1, "hidden": [16, 8],
                                  "lam": None, "include_mismatched": True}))
    listed, spelled = tmp_path / "listed", tmp_path / "spelled"
    assert run("supervise-demo", "--config", config, "--out", listed) == 0
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--steps", 5,
               "--batch-size", 4, "--lr", 1.0, "--hidden", "16,8", "--out", spelled) == 0
    for name in ("report.json", "report.csv"):
        assert (listed / name).read_bytes() == (spelled / name).read_bytes(), name
    diffs = tmp_path / "diffs"
    assert run("export-diffs", "--config", config, "--out", diffs) == 0
    assert json.loads((diffs / "run.json").read_text())["flags"]["include_mismatched"]


@pytest.mark.parametrize("payload", [[1, 2], "flags", {"command": "pretrain", "flags": [1]},
                                     b"{nope", b"\xff{}"])
def test_config_that_holds_no_object_of_flags_is_refused(tmp_path, corpus_dir, capsys,
                                                         payload):
    # bytes are written as they are: a file that is not JSON, or not UTF-8
    config = tmp_path / "l.json"
    config.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    out = tmp_path / "ckpt"
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json",
               "--config", config, "--out", out) == 2
    err = capsys.readouterr().err
    if isinstance(payload, bytes):
        assert err.startswith(f"error: {config}: malformed (") and err.count("\n") == 1
    elif isinstance(payload, dict):  # a run.json whose "flags" is no object
        assert err == f"error: --config {config} holds no JSON object of flags\n"
    else:
        assert err == (f"error: {config}: expected a JSON object at the top level, "
                       f"got {type(payload).__name__}\n")
    assert not out.exists()


def test_config_baseline_tag_is_checked(tmp_path, corpus_dir, checkpoint_dir, capsys):
    config = tmp_path / "flags.json"
    config.write_text(json.dumps({"baseline": "bogus", "lam": 0.7}))
    out = tmp_path / "demo"
    assert run("supervise-demo", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--config", config,
               "--out", out) == 2
    assert "error: unknown baseline tag 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_metrics_reads_each_feature_file_once(tmp_path, corpus_dir, monkeypatch):
    expected = tmp_path / "expected"
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus_dir / "features.json", "--out", expected) == 0
    opened, read = [], []
    real_open, read_feature_file = open, es.encoders.read_feature_file

    def counted_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return real_open(path, *args, **kwargs)

    def counted_read(path):
        read.append(Path(path))
        return read_feature_file(path)

    monkeypatch.setattr("builtins.open", counted_open)
    monkeypatch.setattr(es.encoders, "read_feature_file", counted_read)
    out = tmp_path / "metrics"
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus_dir / "features.json", "--out", out) == 0
    monkeypatch.undo()
    assert opened.count("features.json") == 2  # once per set
    assert len(read) == 2 * len(set(read))
    assert (out / "report.json").read_bytes() == (expected / "report.json").read_bytes()


def test_eval_metrics_refuses_sets_with_different_ids(tmp_path, capsys):
    # the same 84 vectors under renamed ids whose sorted order reverses the
    # original: pairing by position would compare unrelated rows
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--seed", 1, "--out", corpus) == 0
    spec = json.loads((corpus / "features.json").read_text())
    ids = sorted(s["id"] for s in spec["samples"])
    assert len(ids) == 84
    new_id = {old: f"renamed_{len(ids) - 1 - k:05d}" for k, old in enumerate(ids)}
    spec["samples"] = [{**s, "id": new_id[s["id"]]} for s in spec["samples"]]
    (corpus / "renamed.json").write_text(json.dumps(spec))
    capsys.readouterr()
    out = tmp_path / "metrics"
    assert run("eval-metrics", "--real", corpus / "features.json",
               "--gen", corpus / "renamed.json", "--out", out) == 2
    captured = capsys.readouterr()
    assert "168 sample ids are unmatched" in captured.err
    assert captured.out == ""
    assert not (out / "report.json").exists()


def test_eval_metrics_refuses_a_feature_manifest_that_lists_an_id_twice(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--identities", 2, "--per-emotion", 1, "--out", corpus) == 0
    spec = json.loads((corpus / "features.json").read_text())
    twice = spec["samples"][0]["id"]
    spec["samples"].append({**spec["samples"][1], "id": twice})
    (corpus / "twice.json").write_text(json.dumps(spec))
    capsys.readouterr()
    out = tmp_path / "metrics"
    assert run("eval-metrics", "--real", corpus / "features.json",
               "--gen", corpus / "twice.json", "--out", out) == 2
    assert f"sample id {twice!r} is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["header", "entry"])
def test_eval_metrics_refuses_a_truncated_feature_file(tmp_path, corpus_dir, capsys, case):
    raw, message = TRUNCATED[case]
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--identities", 2, "--per-emotion", 1, "--out", corpus) == 0
    spec = json.loads((corpus / "features.json").read_text())
    cut = corpus / spec["samples"][-1]["feature_file"]
    cut.write_bytes(raw)
    out = tmp_path / "metrics"
    capsys.readouterr()
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus / "features.json", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {cut}: {message}\n"
    assert not out.exists()


def test_eval_metrics_refuses_a_feature_file_that_is_a_directory(tmp_path, corpus_dir,
                                                                  capsys):
    corpus = tmp_path / "corpus"
    assert run("gen-corpus", "--identities", 2, "--per-emotion", 1, "--out", corpus) == 0
    spec = json.loads((corpus / "features.json").read_text())
    folder = corpus / "folder.f32"
    folder.mkdir()
    spec["samples"][0]["feature_file"] = folder.name
    (corpus / "folder.json").write_text(json.dumps(spec))
    out = tmp_path / "metrics"
    capsys.readouterr()
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus / "folder.json", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err
    assert not out.exists()


def test_analyze_gap_refuses_an_overlong_replicate_by_name(tmp_path, corpus_dir, capsys):
    spec = json.loads((corpus_dir / "manifest.json").read_text())
    spec["samples"][3]["image_ref"] = OVERLONG_REF
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "gap"
    capsys.readouterr()
    assert run("analyze-gap", "--manifest", bad, "--out", out) == 2
    assert capsys.readouterr().err == f"error: unknown image ref {OVERLONG_REF!r}\n"
    assert not out.exists()


def test_cli_and_library_train_defaults_agree(tmp_path, corpus_dir, capsys):
    # no --seed and no TrainConfig seed: both fall back to the same default
    out = tmp_path / "ckpt"
    recipe = dict(epochs=1, steps_per_epoch=2, batch_size=4)
    assert run("pretrain", "--manifest", corpus_dir / "manifest.json", "--epochs", 1,
               "--steps-per-epoch", 2, "--batch-size", 4, "--out", out) == 0
    manifest = es.CorpusManifest.load(corpus_dir / "manifest.json")
    suite = es.synthetic_suite(manifest.rebuild_world())
    ckpt, _ = es.pretrain_alignment(manifest, es.load_reference_pools(), suite,
                                    es.TrainConfig(**recipe))
    saved = es.AlignmentCheckpoint.load(out / "checkpoint.json")
    assert saved.content_hash() == ckpt.content_hash()
    assert f"checkpoint hash: {ckpt.content_hash()}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# checkpoints that do not fit the corpus
# ---------------------------------------------------------------------------

FROZEN_COMMANDS = ["supervise-demo", "sweep-lambda", "export-diffs"]


@pytest.mark.parametrize("command", FROZEN_COMMANDS)
def test_checkpoint_of_another_world_is_refused(tmp_path, checkpoint_dir, capsys,
                                                command):
    corpus = tmp_path / "corpus48"
    assert run("gen-corpus", "--identities", 2, "--per-emotion", 2, "--d-e", 48,
               "--out", corpus) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--manifest", corpus / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json", "--out", out) == 2
    assert capsys.readouterr().err == \
        "error: checkpoint d_e is 64 but the encoder suite has d_e 48\n"
    assert not out.exists()


@pytest.mark.parametrize("command", FROZEN_COMMANDS)
def test_checkpoint_with_wrong_token_count_is_refused(tmp_path, corpus_dir,
                                                      checkpoint_dir, capsys, command):
    checkpoint = json.loads((checkpoint_dir / "checkpoint.json").read_text())
    checkpoint["dims"]["token_count"] = 2
    edited = tmp_path / "checkpoint.json"
    edited.write_text(json.dumps(checkpoint))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", edited, "--out", out) == 2
    assert f"error: {edited}: checkpoint guider head maps 32 -> 32" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit", sorted(PROJECTOR_EDITS))
@pytest.mark.parametrize("command", FROZEN_COMMANDS)
def test_checkpoint_whose_projector_is_not_the_chain_of_its_dims_is_refused(
        tmp_path, corpus_dir, checkpoint_dir, capsys, command, edit):
    checkpoint = json.loads((checkpoint_dir / "checkpoint.json").read_text())
    PROJECTOR_EDITS[edit][0](checkpoint)
    edited = tmp_path / "checkpoint.json"
    edited.write_text(json.dumps(checkpoint))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", edited, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {edited}: checkpoint projector 3 maps 64 -> 64, "
                          "through widths ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# rejected flags
# ---------------------------------------------------------------------------

MISSING = "<missing file>"

REJECTED = [
    ("gen-corpus", ["--identities", 1], "need at least 2 identities"),
    ("gen-corpus", ["--d-e", 0], "d_e must be positive, got 0"),
    ("gen-corpus", ["--per-emotion", 0], "per_identity_per_emotion must be >= 1"),
    ("gen-corpus", ["--seed", -1], "seed must be >= 0, got -1"),
    ("gen-corpus", ["--noise", "nan"], "noise_sigma must be finite, got nan"),
    ("gen-corpus", ["--noise", "inf"], "noise_sigma must be finite, got inf"),
    ("gen-corpus", ["--gap", "nan"], "gap must be finite, got nan"),
    ("gen-corpus", ["--gap", "inf"], "gap must be finite, got inf"),
    ("pretrain", ["--lr", "nan"], "lr must be finite and positive"),
    ("pretrain", ["--epochs", 0], "epochs, batch_size and steps_per_epoch must be >= 1"),
    ("pretrain", ["--manifest", MISSING], "No such file"),
    ("pretrain", ["--pools", MISSING], "No such file"),
    ("pretrain", ["--projector-mode", "bogus"], "unknown projector mode"),
    ("pretrain", ["--seed", -1], "seed must be >= 0, got -1"),
    ("pretrain-diff-ablation", ["--momentum", 1], "momentum must lie in [0, 1)"),
    ("pretrain-diff-ablation", ["--seed", -1], "seed must be >= 0, got -1"),
    ("analyze-gap", ["--manifest", MISSING], "No such file"),
    ("derive-pools", ["--k", 6], "k must lie in [0, 5], got 6"),
    ("derive-pools", ["--k", 1, "--matrix", MISSING], "No such file"),
    ("eval-metrics", ["--real", MISSING, "--gen", MISSING], "No such file"),
    ("supervise-demo", ["--lr", "nan"], "lr must be finite and positive"),
    ("supervise-demo", ["--steps", 0], "steps and batch_size must be >= 1"),
    ("supervise-demo", ["--hidden", "0"], "hidden widths must be >= 1, got 0"),
    ("supervise-demo", ["--hidden=-3"], "hidden widths must be >= 1, got -3"),
    ("supervise-demo", ["--hidden", "16,0"], "hidden widths must be >= 1, got 0"),
    ("supervise-demo", ["--hidden", "x"], "invalid literal"),
    ("supervise-demo", ["--lambda", -1], "lambda must be finite and >= 0"),
    ("supervise-demo", ["--checkpoint", MISSING], "No such file"),
    ("supervise-demo", ["--baseline", "bogus"], "unknown baseline tag 'bogus'"),
    ("supervise-demo", ["--seed", -1], "seed must be >= 0, got -1"),
    ("sweep-lambda", ["--hidden", "0"], "hidden widths must be >= 1, got 0"),
    ("sweep-lambda", ["--hidden=-3"], "hidden widths must be >= 1, got -3"),
    ("sweep-lambda", ["--steps", 0], "steps and batch_size must be >= 1"),
    ("sweep-lambda", ["--grid", "0,-0.4"], "lambda must be finite and >= 0"),
    ("sweep-lambda", ["--grid", "0,nan"], "lambda must be finite and >= 0"),
    ("sweep-lambda", ["--grid", ","], "lambda grid must be non-empty"),
    ("sweep-lambda", ["--seed", -1], "seed must be >= 0, got -1"),
    ("export-diffs", ["--checkpoint", MISSING], "No such file"),
]


# the flags each command cannot run without
REQUIRED_FLAGS = {"pretrain": ["--manifest"], "pretrain-diff-ablation": ["--manifest"],
            "analyze-gap": ["--manifest"], "derive-pools": ["--k"],
            "eval-metrics": ["--real", "--gen"],
            "supervise-demo": ["--manifest", "--checkpoint"],
            "sweep-lambda": ["--manifest", "--checkpoint"],
            "export-diffs": ["--manifest", "--checkpoint"]}


def required_argv(command, corpus_dir, checkpoint_dir, leave_out=None):
    """``command`` with a valid value for each of its required flags but
    ``leave_out``."""
    values = {"--manifest": corpus_dir / "manifest.json",
              "--checkpoint": checkpoint_dir / "checkpoint.json", "--k": 1,
              "--real": corpus_dir / "features.json", "--gen": corpus_dir / "features.json"}
    argv = [command]
    for flag in REQUIRED_FLAGS.get(command, []):
        if flag != leave_out:
            argv += [flag, values[flag]]
    return argv


@pytest.mark.parametrize("command, flags, message", REJECTED,
                         ids=[f"{c} {' '.join(map(str, f))}" for c, f, _ in REJECTED])
def test_rejected_command_exits_2_and_makes_no_directory(tmp_path, corpus_dir,
                                                         checkpoint_dir, capsys,
                                                         command, flags, message):
    argv = required_argv(command, corpus_dir, checkpoint_dir)
    # a repeated flag overrides the input given above
    argv += [tmp_path / "nope.json" if f == MISSING else f for f in flags]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


# each JSON input file a command reads, besides --config, holding a list;
# then malformed files: a field of the wrong type, a missing key, no JSON
JSON_INPUTS = [(command, flag, [1, 2]) for command, flag in [
    ("analyze-gap", "--manifest"), ("pretrain", "--manifest"), ("pretrain", "--pools"),
    ("export-diffs", "--checkpoint"), ("derive-pools", "--matrix"), ("eval-metrics", "--gen")]]
MALFORMED = [
    ("analyze-gap", "--manifest", {"samples": 3}),
    ("pretrain", "--pools", {"pools": 3}),
    ("eval-metrics", "--gen", {"samples": [1], "dim": 3, "text_embeddings": {}}),
    ("export-diffs", "--checkpoint", {"format_version": 1}),
    ("derive-pools", "--matrix", {"k": 1}),
    ("analyze-gap", "--manifest", "{nope"),  # written as is, not as a JSON string
]


@pytest.mark.parametrize("command, flag, payload", JSON_INPUTS + MALFORMED,
                         ids=[f"{c}-{f}" for c, f, _ in JSON_INPUTS]
                         + [f"{c}-{f}-{json.dumps(p)}" for c, f, p in MALFORMED])
def test_json_input_that_holds_no_object_exits_2_and_makes_no_directory(
        tmp_path, corpus_dir, checkpoint_dir, capsys, command, flag, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    # a repeated flag overrides the valid input required_argv gives
    assert run(*required_argv(command, corpus_dir, checkpoint_dir), flag, bad,
               "--out", out) == 2
    err = capsys.readouterr().err
    if isinstance(payload, list):
        assert err == f"error: {bad}: expected a JSON object at the top level, got list\n"
    else:
        assert err.startswith(f"error: {bad}: malformed (") and err.count("\n") == 1
    assert not out.exists()


# a manifest whose world block is malformed: each of these crashed with a
# traceback (exit 1) where the world was rebuilt, or, for a bool seed, ran
BAD_WORLDS = {"unknown config key": lambda world: world["config"].update(bogus=1),
              "string seed": lambda world: world.update(seed="1"),
              "bool seed": lambda world: world.update(seed=True),
              "string d_e": lambda world: world["config"].update(d_e="64"),
              "float d_e": lambda world: world["config"].update(d_e=64.0)}


@pytest.mark.parametrize("command", ["analyze-gap", "pretrain"])
@pytest.mark.parametrize("case", list(BAD_WORLDS))
def test_a_manifest_with_a_malformed_world_exits_2_naming_it(tmp_path, corpus_dir, capsys,
                                                             command, case):
    spec = json.loads((corpus_dir / "manifest.json").read_text())
    BAD_WORLDS[case](spec["world"])
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--manifest", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed (") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

TEXT_COLUMNS = {"identity", "source_emotion", "target_emotion", "prompt_emotion",
                "emotion", "image_emotion"}
INT_COLUMNS = {"epoch", "step", "seed"}


def rewritten_csv(path: Path) -> bytes:
    """The file's cells written again by ``csv.writer``: an int column as
    ``int``, a float column as ``repr(float(x))``, a text column as read."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        assert len(row) == len(header)
        writer.writerow([cell if name in TEXT_COLUMNS
                         else int(cell) if name in INT_COLUMNS
                         else repr(float(cell)) for name, cell in zip(header, row)])
    return buf.getvalue().encode()


def test_outputs_follow_the_file_format_rules(tmp_path, corpus_dir, checkpoint_dir,
                                              demo_dir, sweep_dir):
    """Every CSV float is ``repr(float(x))`` and every JSON output, of every
    command, is the stdlib's ``json.dumps(indent=2, sort_keys=True)`` plus a
    newline, byte for byte; the reference is built here, so the check holds
    on any numpy or BLAS."""
    manifest = corpus_dir / "manifest.json"
    assert run("export-diffs", "--manifest", manifest,
               "--checkpoint", checkpoint_dir / "checkpoint.json",
               "--out", tmp_path / "diffs") == 0
    assert run("analyze-gap", "--manifest", manifest, "--out", tmp_path / "gap") == 0
    assert run("pretrain-diff-ablation", "--manifest", manifest, "--epochs", 1,
               "--steps-per-epoch", 2, "--batch-size", 4, "--out", tmp_path / "ablation") == 0
    assert run("derive-pools", "--k", 1, "--out", tmp_path / "pools") == 0
    assert run("eval-metrics", "--real", corpus_dir / "features.json",
               "--gen", corpus_dir / "features.json", "--out", tmp_path / "metrics") == 0
    csvs = [checkpoint_dir / "curve.csv", demo_dir / "report.csv", sweep_dir / "sweep.csv",
            tmp_path / "diffs" / "diffs.csv", tmp_path / "gap" / "report.csv",
            tmp_path / "gap" / "matrix.csv"]
    for path in csvs:
        assert path.read_bytes() == rewritten_csv(path), path
    jsons = [p for d in (corpus_dir, checkpoint_dir, demo_dir, sweep_dir)
             for p in d.glob("*.json")] + list(tmp_path.rglob("*.json"))
    assert {p.name for p in jsons} >= {"manifest.json", "features.json", "checkpoint.json",
                                       "run.json", "report.json", "matrix.json",
                                       "pools.json", "sweep.json"}
    for path in jsons:
        with open(path) as f:
            canonical = json.dumps(json.load(f), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == canonical.encode(), path


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": [], "b": {}}, 0.5, "text", None, True, 7,
    [0.1, -0.0, 1e300, 5e-324, -2.5], [[1.0, 2.0], [3.0]], (1.0, 2.0),
    [1.0, float("nan")], [float("inf"), -float("inf")], {"x": float("nan")},
    [1, 2.0, True, None, "s"], [1.5, "s", 2], [True, False], [np.float64(0.1), 2.0],
    {"a": np.float64(0.25), "b": -3},
    {"é": "ü\n\t\"", "ключ": ["значение", 1.5]}, {"z": {"y": [[0.1], []]}},
    {1: "int key", 2: [1.0]}, {"k": {2.5: 1, 3.5: [1.0]}}])
def test_write_json_equals_the_stdlib_writer(tmp_path, value):
    es.errors.write_json(tmp_path / "out.json", value)
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out.json").read_bytes() == expected.encode()
    assert es.errors.canonical_json(value) == expected


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                  hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)))
def test_write_json_writes_an_array_as_its_list_form(tmp_path_factory, array):
    # NaN and inf included: hypothesis draws them for the float dtypes
    path = tmp_path_factory.mktemp("json") / "out.json"
    es.errors.write_json(path, {"k": [array, {"z": array}], "top": array})
    listed = array.tolist()
    expected = es.errors.canonical_json({"k": [listed, {"z": listed}], "top": listed})
    assert path.read_bytes() == expected.encode()


def test_a_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    es.errors.write_json(path, {"kept": 1})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        es.errors.write_json(path, {"a": [1.0, 2.0], "b": {1, 2}})
    assert path.read_text() == '{\n  "kept": 1\n}\n'

    def rows():
        yield [1.0, 2.0]
        raise RuntimeError("cut")

    csv_path = tmp_path / "out.csv"
    es.errors.write_csv(csv_path, ["a", "b"], [[3.0, 4.0]])
    with pytest.raises(RuntimeError, match="cut"):
        es.errors.write_csv(csv_path, ["a", "b"], rows())
    assert csv_path.read_bytes() == b"a,b\r\n3.0,4.0\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]


@pytest.mark.parametrize("rows", [
    [], [[0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), -float("inf")]],
    [["a,b", 'say "hi"', "x\ny", "cr\r", "", None, 7, -3, True, 1.5]],
    [[np.float64(0.1), np.float64(-2.5e-17), np.int64(4), np.float32(0.5)]],
    [[""], [None], [], ["", ""], [" lead", "trail "], ["é", "ключ", "\t"]],
    [["id001", "happy", "sad", *np.linspace(-1.0, 1.0, 9).tolist()]] * 3])
def test_write_csv_equals_the_stdlib_writer(tmp_path, rows):
    # the reference: csv.writer with every float cell (np.float64 too) as
    # repr(float(x)), which is what write_csv promises byte for byte
    header = ["h,1", 'h"2', "h3"]
    es.errors.write_csv(tmp_path / "out.csv", header, rows)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                     for row in rows)
    assert (tmp_path / "out.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REQUIRED_FLAGS.items()
                                           for f in flags])
def test_missing_required_flag_exits_2_and_makes_no_directory(
        tmp_path, corpus_dir, checkpoint_dir, capsys, command, flag):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*required_argv(command, corpus_dir, checkpoint_dir, leave_out=flag),
               "--out", out) == 2
    assert capsys.readouterr().err == f"error: {flag} is required\n"
    assert not out.exists()


def test_every_required_flag_missing_is_named_at_once(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("eval-metrics", "--out", out) == 2
    assert capsys.readouterr().err == "error: --real and --gen are required\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the output protocol: main writes what a handler returns, and run.json
# lists exactly that
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_world_runs(tmp_path_factory):
    """Every command run once on the default world (gen-corpus at its
    defaults), training short: command -> (its --out, what it printed)."""
    root = tmp_path_factory.mktemp("default-world")
    corpus, ckpt = root / "gen-corpus", root / "pretrain"
    manifest = ["--manifest", corpus / "manifest.json"]
    frozen = [*manifest, "--checkpoint", ckpt / "checkpoint.json"]
    argvs = {"gen-corpus": [],
             "pretrain": [*manifest, "--epochs", 1, "--steps-per-epoch", 2],
             "pretrain-diff-ablation": [*manifest, "--epochs", 1, "--steps-per-epoch", 2],
             "analyze-gap": [*manifest, "--compare-reference"],
             "derive-pools": ["--k", 1],
             "eval-metrics": ["--real", corpus / "features.json",
                              "--gen", corpus / "features.json"],
             "supervise-demo": [*frozen, "--steps", 5],
             "sweep-lambda": [*frozen, "--steps", 5, "--grid", "0,0.4,1"],
             "export-diffs": frozen}
    runs = {}
    for command, argv in argvs.items():  # in order: the corpus, then a checkpoint
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run(command, *argv, "--out", root / command) == 0
        runs[command] = root / command, printed.getvalue()
    return runs


@pytest.mark.parametrize("command", list(COMMANDS))
def test_run_json_lists_exactly_the_files_written(default_world_runs, command):
    out, _ = default_world_runs[command]
    outputs = json.loads((out / "run.json").read_text())["outputs"]
    # gen-corpus's features/ is a directory: its files are not listed
    assert set(outputs) == {p.name for p in out.iterdir() if p.is_file()} - {"run.json"}
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_a_handler_that_raises_after_computing_leaves_no_out(tmp_path, monkeypatch,
                                                             capsys):
    handler, help_, flags = COMMANDS["derive-pools"]

    def refuses_after_computing(resolved):
        outputs, _ = handler(resolved)
        raise es.ContractError(f"refused after computing {', '.join(outputs)}")

    monkeypatch.setitem(COMMANDS, "derive-pools", (refuses_after_computing, help_, flags))
    out = tmp_path / "pools"
    capsys.readouterr()
    assert run("derive-pools", "--k", 1, "--out", out) == 2
    assert capsys.readouterr() == ("", "error: refused after computing pools.json\n")
    assert not out.exists()


# what each command prints on the default world: the exact text where no
# float is printed, else the shape of each line
LOSS, ACCURACY = r"\d+\.\d{4}", r"\d\.\d{3}"
# perfbench/workloads.py parses these two lines, and checks the hash
PRETRAIN_STDOUT = (rf"epoch mean loss: first={LOSS} final={LOSS}; "
                   rf"val retrieval accuracy={ACCURACY}\n"
                   r"checkpoint hash: (?P<hash>[0-9a-f]{64})\n")
GAP_FIELD = r"   [ -]\d\.\d{3}"  # " {:>8.3f}" of a value in (-10, 10)
STDOUT_ON_DEFAULT_WORLD = {
    "gen-corpus": re.escape("wrote 84 samples (76 train / 8 val) for 4 identities\n"),
    "pretrain": PRETRAIN_STDOUT,
    "pretrain-diff-ablation": PRETRAIN_STDOUT,
    "analyze-gap": re.escape("emotion     s_image  s_match      gap  ref_gap    delta\n")
    + "".join(re.escape(f"{name:<10}") + GAP_FIELD * 5 + "\n"
              for name in [*(e.name for e in es.EMOTIONS), "average"]),
    "derive-pools": re.escape("note: derived pools differ from the published reference "
                              "for: neutral, surprised\n"),
    # the digits are not pinned: a set scored against itself prints a fad of
    # rounding noise, whose sign may differ with numpy and BLAS
    "eval-metrics": r"fad=-?\d+\.\d{6} lse_d=\d+\.\d{6} csim=-?\d+\.\d{6}\n",
    "supervise-demo": rf"lambda=0: accuracy={ACCURACY}; lambda=0\.4: accuracy={ACCURACY}\n",
    "sweep-lambda": "".join(rf"lambda={lam}: base_loss={LOSS} l2={LOSS} accuracy={ACCURACY}\n"
                            for lam in (r"0\.0", r"0\.4", r"1\.0")),
    "export-diffs": re.escape("exported 504 difference rows\n"),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_on_the_default_world(default_world_runs, command):
    out, printed = default_world_runs[command]
    match = re.fullmatch(STDOUT_ON_DEFAULT_WORLD[command], printed)
    assert match, printed
    if "hash" in match.groupdict():
        outputs = json.loads((out / "run.json").read_text())["outputs"]
        assert match["hash"] == outputs["checkpoint.json"]


def test_derive_pools_at_k0_names_the_pools_that_differ(tmp_path, capsys):
    capsys.readouterr()
    assert run("derive-pools", "--k", 0, "--out", tmp_path / "pools") == 0
    assert capsys.readouterr().out == ("note: derived pools differ from the published "
                                       "reference for: angry, disgusted, fear, happy, sad\n")
