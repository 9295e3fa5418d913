import json
from pathlib import Path

import numpy as np
import pytest

import emosup as es
from emosup.cli import main


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


def test_gen_corpus_missing_required_flag_exits_2():
    assert run("gen-corpus", "--seed", 1) == 2


def test_unknown_command_exits_2():
    assert run("frobnicate") == 2


def test_gen_corpus_features_loadable(corpus_dir):
    suite = es.load_precomputed_features(corpus_dir / "features.json")
    manifest = es.CorpusManifest.load(corpus_dir / "manifest.json")
    world = manifest.rebuild_world()
    synth = es.synthetic_suite(world)
    sample = manifest.samples[0]
    served = suite.visual_encode(sample.id)
    direct = synth.visual_encode(sample.image_ref)
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
    curve = es.LossCurve.load_csv(a / "curve.csv")
    assert len(curve.records) == 2 * 3
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
    assert ckpt.bank.mode == "single_conditional"
    assert len(ckpt.bank.projectors) == 1


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


def test_export_diffs_cli(tmp_path, corpus_dir, checkpoint_dir):
    out = tmp_path / "diffs"
    assert run("export-diffs", "--manifest", corpus_dir / "manifest.json",
               "--checkpoint", checkpoint_dir / "checkpoint.json",
               "--out", out) == 0
    lines = (out / "diffs.csv").read_text().splitlines()
    manifest = es.CorpusManifest.load(corpus_dir / "manifest.json")
    assert len(lines) == 1 + len(manifest.samples) * 6


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
