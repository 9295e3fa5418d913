"""Tests of the benchmark's own oracles and tracer.

Run with the program on the path, from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import time

import numpy as np
import pytest

import emosup as es
import oracles
import run as harness
import tracing


# ---------------------------------------------------------------------------
# oracles: closed forms
# ---------------------------------------------------------------------------

def test_frechet_one_dimensional_closed_form():
    # N(0, 1) vs N(3, 4): 9 + 1 + 4 - 2 * sqrt(4) = 10
    assert oracles.frechet([0.0], [[1.0]], [3.0], [[4.0]]) == pytest.approx(10.0, abs=1e-12)


def test_fad_of_a_shift_is_its_squared_norm():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 6))
    c = np.array([0.5, -1.0, 0.0, 2.0, 0.25, 0.0])
    assert oracles.fad(x, x + c) == pytest.approx(float(c @ c), rel=1e-9)
    assert abs(oracles.fad(x, x.copy())) < 1e-9


def test_fad_oracle_agrees_with_the_program():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((300, 8)), 0.5 + 2.0 * rng.standard_normal((300, 8))
    assert oracles.fad(x, y) == pytest.approx(es.fad(es.FeatureSet(x), es.FeatureSet(y)),
                                              rel=1e-9)


def test_paired_metrics_pair_by_id_not_by_order():
    real = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 2.0])}
    same = {"b": np.array([0.0, 2.0]), "a": np.array([1.0, 0.0])}
    assert oracles.paired_metrics(real, same) == (0.0, 1.0)
    moved = {"a": np.array([1.0, 1.0]), "b": np.array([0.0, 2.0])}
    lse_d, csim = oracles.paired_metrics(real, moved)
    assert lse_d == pytest.approx(0.5)
    assert csim == pytest.approx((np.sqrt(0.5) + 1.0) / 2)
    with pytest.raises(ValueError):
        oracles.paired_metrics(real, {"a": real["a"], "c": real["b"]})


def test_gap_report_by_hand():
    # three unit vectors at 0, 90 and 180 degrees: pair cosines 0, -1, 0
    vecs = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    report = oracles.gap_report({"happy": vecs}, {"happy": np.array([1.0, 0.0])})
    assert report["happy"]["s_image"] == pytest.approx(-1.0 / 3.0)
    assert report["happy"]["s_match"] == pytest.approx(0.0)
    assert report["happy"]["gap"] == pytest.approx(-1.0 / 3.0)


def test_top1_pools_drop_the_most_similar_other_emotion():
    names = oracles.EMOTION_NAMES
    rows = {e: {o: 0.1 for o in names} for e in names}
    rows["happy"]["sad"] = 0.9
    rows["sad"]["angry"] = 0.5
    rows["sad"]["fear"] = 0.5  # tie: the lower code (angry) is dropped
    pools = oracles.top1_pools({"rows": rows})
    assert pools["happy"] == sorted(set(names) - {"happy", "sad"})
    assert pools["sad"] == sorted(set(names) - {"sad", "angry"})
    assert pools["neutral"] == sorted(set(names) - {"neutral", "angry"})


def test_position_weights():
    assert np.allclose(oracles.position_weights(3), [1 / 3, 1 / 2, 1.0])


# ---------------------------------------------------------------------------
# oracles against the program on a small world
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run():
    world = es.build_synthetic_world(3)
    suite = es.synthetic_suite(world)
    manifest = es.generate_synthetic_corpus(world, 2)
    config = es.TrainConfig(seed=2, epochs=1, steps_per_epoch=3, batch_size=4)
    ckpt, _ = es.pretrain_alignment(manifest, es.load_reference_pools(), suite, config)
    return world, suite, manifest, ckpt


def test_retrieval_oracle_matches_the_program(small_run):
    world, suite, manifest, ckpt = small_run
    checkpoint, spec = ckpt.to_json_dict(), manifest.to_json_dict()
    for split in ("train", "val"):
        assert oracles.retrieval_accuracy(checkpoint, spec, world, split) == \
            es.retrieval_accuracy(ckpt, manifest, split, suite)


def test_text_difference_oracle_matches_exported_rows(small_run):
    world, suite, manifest, ckpt = small_run
    rows = es.export_difference_rows(ckpt, manifest, suite)
    for row in rows:
        expected = oracles.text_difference(world, row["source_emotion"],
                                           row["target_emotion"])
        assert np.max(np.abs(row["text_diff"] - expected)) < 1e-12


def test_feature_reader_reads_what_the_program_writes(tmp_path):
    vec = np.array([0.5, -1.25, 3.0])
    es.write_feature_file(tmp_path / "a.f32", vec)
    (tmp_path / "features.json").write_text(
        '{"dim": 3, "samples": [{"id": "a", "feature_file": "a.f32"}]}')
    assert np.array_equal(oracles.read_feature_dir(tmp_path / "features.json")["a"], vec)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_on_a_hand_built_span_tree():
    # a [0, 10] holds b [1, 3] and c [4, 8]; c holds d [5, 6]; then a second b
    t = tracing.Tracer()
    t.begin("a", 0.0)
    t.begin("b", 1.0)
    t.end(3.0)
    t.begin("c", 4.0)
    t.begin("d", 5.0)
    t.end(6.0)
    t.end(8.0)
    t.end(10.0)
    t.begin("b", 10.0)
    t.end(10.5)
    assert dict(t.calls) == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert t.self_s["a"] == pytest.approx(4.0)
    assert t.self_s["b"] == pytest.approx(2.5)
    assert t.self_s["c"] == pytest.approx(3.0)
    assert t.self_s["d"] == pytest.approx(1.0)
    assert sum(t.self_s.values()) == pytest.approx(10.5)  # the two root spans
    # a probe of 0.25 s inside e [11, 12] is charged to no span
    t.begin("e", 11.0)
    t.skip(0.25)
    t.end(12.0)
    assert t.self_s["e"] == pytest.approx(0.75)


def test_observers_run_in_their_own_span():
    tracer = tracing.Tracer()

    def observe(t, args, result):
        time.sleep(0.02)
        t.counts["seen"] += 1

    tracer.span("outer", tracer.span("inner", lambda: None, observe))()
    assert tracer.counts["seen"] == 1
    assert tracer.calls[tracing.OBSERVE_SPAN] == 1
    assert tracer.self_s[tracing.OBSERVE_SPAN] >= 0.02
    assert tracer.self_s["outer"] < 0.01


def test_install_reaches_every_binding_and_restores_them():
    originals = (es.numerics.mlp_forward, es.prompts.mlp_forward,
                 es.supervision.mlp_forward, es.mlp_forward)
    default_before = es.supervision.supervise_demo.__defaults__
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        for binding in (es.numerics.mlp_forward, es.prompts.mlp_forward,
                        es.supervision.mlp_forward, es.mlp_forward):
            assert binding is not originals[0]
        # a default argument bound at definition time is rebound too
        assert es.supervision.squared_error_loss in \
            es.supervision.supervise_demo.__wrapped__.__defaults__
        params = es.init_mlp([3, 2], np.random.default_rng(0))
        es.prompts.mlp_forward(params, np.ones(3))
        suite = es.synthetic_suite(es.build_synthetic_world(1))
        suite.tokenize("a photo of a happy face")
    finally:
        patches.restore()
    assert (es.numerics.mlp_forward, es.prompts.mlp_forward,
            es.supervision.mlp_forward, es.mlp_forward) == originals
    assert es.supervision.supervise_demo.__defaults__ == default_before
    assert tracer.calls["numerics.mlp_forward"] == 1
    assert tracer.calls["encoders.tokenize"] == 1
    assert tracer.calls["encoders.build_synthetic_world"] == 1
    assert tracer.distinct["encoders.tokenize"] == {"a photo of a happy face"}


def test_missing_or_silent_spans_fail_loudly(monkeypatch):
    original = es.numerics.mlp_forward
    monkeypatch.setitem(tracing.LAYERS, "numerics", ["mlp_forward", "renamed_away"])
    with pytest.raises(tracing.TraceError, match="renamed_away"):
        tracing.install(tracing.Tracer())
    assert es.numerics.mlp_forward is original  # nothing left patched
    assert es.prompts.mlp_forward is original
    with pytest.raises(tracing.TraceError, match="numerics.sgd_step"):
        tracing.Tracer().require_calls(["numerics.sgd_step"], "pretrain")


def test_every_layer_metric_is_reported():
    metrics = tracing.layer_metrics(tracing.Tracer(), run_s=1.0)
    for name in tracing.all_span_names():
        assert f"{name}.calls" in metrics and f"{name}.self_s" in metrics
    assert metrics["trace.unattributed_s"] == (1.0, "s")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_trimmed_mean_drops_the_tails():
    assert harness.trimmed_mean([100.0] + [1.0] * 8 + [-50.0]) == 1.0
    assert harness.trimmed_mean([2.0, 4.0]) == 3.0


def test_scale_divides_by_the_probed_speed():
    assert harness.scale(2.0, harness.REFERENCE_S) == pytest.approx(2.0)
    # a machine running at half speed takes twice as long for the probe
    assert harness.scale(2.0, 2 * harness.REFERENCE_S) == pytest.approx(1.0)
    assert harness.scale(2.0, harness.REFERENCE_S, 3 * harness.REFERENCE_S) == \
        pytest.approx(1.0)


def test_op_slices_a_command_at_its_marker(tmp_path):
    import emosup.cli  # noqa: F401

    ctx = harness.Context(es, tmp_path, seed=0)
    # gen-corpus on the default world writes 84 + 7 feature files
    op = ctx.op(["gen-corpus", "--out", tmp_path / "corpus"],
                marker=("encoders.write_feature_file", 10))
    assert op.rc == 0 and ctx.attempted == 1 and ctx.failed == 0
    assert len(op.slices) == 9  # boundaries at calls 0, 10, ..., 90
    assert 0 < sum(op.slices) <= op.scaled
    assert ctx.cli_wall == op.seconds and ctx.cli_scaled == op.scaled
    assert es.encoders.write_feature_file.__name__ == "write_feature_file"
    assert not hasattr(es.encoders.write_feature_file, "__wrapped__")


def test_a_refused_known_fault_counts_as_passed(tmp_path):
    import emosup.cli  # noqa: F401

    ctx = harness.Context(es, tmp_path, seed=0)
    ctx.op(["derive-pools", "--out", tmp_path / "pools"], passed=lambda rc, out: rc != 0)
    assert (ctx.attempted, ctx.failed) == (1, 0)
    with pytest.raises(harness.BenchmarkError):
        ctx.op(["derive-pools", "--out", tmp_path / "pools"])
