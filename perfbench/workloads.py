"""The three workloads: what set-up builds, what one timed round runs, and
how the outputs are checked.

A round is a fixed list of CLI operations, and a run makes a fixed number of
rounds: ``--seconds`` / ``ROUND_S`` (a round's rough duration at the
reference speed), rounded, and at least one. So ``attempted`` and ``failed``
depend only on ``--seconds``, never on how fast the program runs. Inputs:

- pretrain: the default world (seed 1, 4 identities x 7 x 3, noise 0.05) and
  the default recipe, whatever the run's seed. The convergence check
  (final epoch mean below 0.1 x the first) is a property of that recipe:
  training seeds 0-11 end between -0.06 and 0.098 of the first epoch, too
  close to the line for a seed-varied run.
- supervise: the same world, a checkpoint that set-up trains on it, and the
  run's seed as the demo seed.
- analyze: worlds of 48 identities whose seed is the run's seed (the next
  seed for the generated set). The mismatched-id probe uses the default
  world, whatever the seed.

Writing many small files on a virtual disk costs whatever the disk is
doing at the time (10^4 feature files took 0.7 s to 8 s on the machine the
reference figures come from). So the feature sets eval-metrics reads are
written once before set-up (``prepare``), and the timed rounds only read
them.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

import oracles

DEFAULT_WORLD_SEED = 1
SEED_SPACE = 2 ** 31


def _read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _flags(out: Path) -> dict:
    return _read_json(out / "run.json")["flags"]


def _epoch_means(curve_csv: Path) -> list[float]:
    sums: dict[int, list[float]] = {}
    with open(curve_csv, newline="") as f:
        for row in csv.DictReader(f):
            sums.setdefault(int(row["epoch"]), []).append(float(row["loss"]))
    return [float(np.mean(sums[e])) for e in sorted(sums)]


def _param_bytes(ckpt) -> bytes:
    return b"".join(layer.weights.tobytes() + layer.bias.tobytes()
                    for params in ckpt.all_params() for layer in params.layers)


class Workload:
    name = ""
    # the rates reported as main_items_per_s and side_items_per_s
    main = side = ""
    # spans that must record calls on this workload's traced run
    spans: list[str] = []
    # a round's rough duration in seconds at the reference speed; a run
    # makes max(1, round(--seconds / ROUND_S)) rounds
    ROUND_S = 1.0

    def prepare(self, ctx) -> None:
        """Write input data a user would already have; runs once, untimed."""

    def setup(self, ctx) -> None:
        raise NotImplementedError

    def round(self, ctx) -> None:
        """Run the timed operations, recording each rate's samples."""
        raise NotImplementedError

    def check(self, ctx) -> list[str]:
        """Problems found in the outputs of the last round."""
        raise NotImplementedError


class Pretrain(Workload):
    name = "pretrain"
    main, side = "pretrain_entries_per_s", "ablation_pairs_per_s"
    ROUND_S = 30.0
    STEPS_PER_SLICE = 8  # about 0.25 s; one sampler call starts each step
    spans = ["cli.pretrain", "cli.pretrain-diff-ablation",
             "encoders.tokenize", "encoders.visual_encode", "encoders.text_encode",
             "encoders.backbone_identity", "encoders.text_token_vjp",
             "encoders.build_synthetic_world",
             "numerics.mlp_forward", "numerics.mlp_backward", "numerics.sgd_step",
             "numerics.cosine_with_flag", "numerics.cosine_grads", "numerics.as_vector",
             "corpus.sample_contrastive_batch", "corpus.sample_pair_batch",
             "corpus.CorpusManifest.in_split", "corpus.CorpusManifest.neutrals_of",
             "prompts.contrastive_step_grads", "prompts.difference_step_grads",
             "prompts.build_personalized_prompt", "prompts.project_visual",
             "prompts.retrieval_accuracy", "prompts.AlignmentCheckpoint.save",
             "analysis.load_reference_pools"]

    def setup(self, ctx) -> None:
        ctx.setup_cli(["gen-corpus", "--seed", DEFAULT_WORLD_SEED,
                       "--out", ctx.work / "corpus"])
        self.manifest = ctx.work / "corpus" / "manifest.json"
        self.stdout = {}

    def round(self, ctx) -> None:
        for command, out, rate, marker in [
                ("pretrain", "ckpt", "pretrain_entries_per_s",
                 "corpus.sample_contrastive_batch"),
                ("pretrain-diff-ablation", "ablation", "ablation_pairs_per_s",
                 "corpus.sample_pair_batch")]:
            op = ctx.op([command, "--manifest", self.manifest, "--out", ctx.work / out],
                        marker=(marker, self.STEPS_PER_SLICE))
            self.stdout.setdefault(command, set()).add(op.stdout)
            batch = _flags(ctx.work / out)["batch_size"]
            ctx.record(rate, self.STEPS_PER_SLICE * batch, op.slices)

    def check(self, ctx) -> list[str]:
        problems = []
        manifest = _read_json(self.manifest)
        world = ctx.world(manifest)
        for command, out in [("pretrain", "ckpt"), ("pretrain-diff-ablation", "ablation")]:
            if len(self.stdout[command]) != 1:
                problems.append(f"{command}: rounds printed different output")
            text = next(iter(self.stdout[command]))
            m = re.search(r"first=(\S+) final=(\S+); val retrieval accuracy=(\S+)\n"
                          r"checkpoint hash: (\w+)", text)
            if m is None:
                problems.append(f"{command}: unexpected output {text!r}")
                continue
            first, final, accuracy = (float(m.group(i)) for i in (1, 2, 3))
            printed_hash = m.group(4)
            means = _epoch_means(ctx.work / out / "curve.csv")
            if abs(means[0] - first) > 5e-5 or abs(means[-1] - final) > 5e-5:
                problems.append(f"{command}: printed epoch means {first}, {final} != "
                                f"curve.csv {means[0]:.6f}, {means[-1]:.6f}")
            limit = 0.1 * means[0] if command == "pretrain" else means[0]
            if not means[-1] < limit:
                problems.append(f"{command}: final epoch mean {means[-1]:.4f} "
                                f"not below {limit:.4f}")
            path = ctx.work / out / "checkpoint.json"
            checkpoint = _read_json(path)
            recomputed = oracles.retrieval_accuracy(checkpoint, manifest, world)
            if abs(recomputed - accuracy) > 5e-4:
                problems.append(f"{command}: printed val retrieval {accuracy} != "
                                f"recomputed {recomputed:.4f}")
            if command == "pretrain" and not recomputed > 0.95:
                problems.append(f"pretrain: val retrieval {recomputed:.3f} not above 0.95")
            reloaded = ctx.emosup.AlignmentCheckpoint.load(path)
            if not reloaded.frozen or any(l.weights.flags.writeable
                                          for p in reloaded.all_params() for l in p.layers):
                problems.append(f"{command}: reloaded checkpoint is not frozen")
            if not (reloaded.content_hash() == printed_hash == ctx.sha256(path)):
                problems.append(f"{command}: checkpoint hash does not match the printed one")
        return problems


class Supervise(Workload):
    name = "supervise"
    main, side = "demo_entries_per_s", "export_rows_per_s"
    ROUND_S = 20.0
    STEPS_PER_SLICE = 40  # generator steps (one SGD update each), about 0.25 s
    ROWS_PER_SLICE = 12   # exported rows (one embedded pair each), about 16 ms
    spans = ["cli.supervise-demo", "cli.export-diffs",
             "encoders.tokenize", "encoders.visual_encode", "encoders.text_encode",
             "encoders.backbone_identity", "encoders.build_synthetic_world",
             "numerics.mlp_forward", "numerics.mlp_backward", "numerics.sgd_step",
             "numerics.cosine_with_flag", "numerics.cosine_grads", "numerics.as_vector",
             "corpus.CorpusManifest.in_split",
             "prompts.build_personalized_prompt", "prompts.project_visual",
             "prompts.AlignmentCheckpoint.load",
             "differencing.embed_pair", "differencing.diff_vectors",
             "differencing.difference_loss_with_grads",
             "differencing.export_difference_rows", "differencing.write_difference_csv",
             "supervision.supervise_demo", "supervision.squared_error_loss",
             "supervision.total_loss"]

    # A shorter recipe than the default: the demo's cost does not depend on how
    # well the checkpoint was trained, and set-up runs three times per run.
    CHECKPOINT_FLAGS = ["--steps-per-epoch", 10]

    def setup(self, ctx) -> None:
        ctx.setup_cli(["gen-corpus", "--seed", DEFAULT_WORLD_SEED,
                       "--out", ctx.work / "corpus"])
        self.manifest = ctx.work / "corpus" / "manifest.json"
        ctx.setup_cli(["pretrain", "--manifest", self.manifest, *self.CHECKPOINT_FLAGS,
                       "--out", ctx.work / "ckpt"],
                      marker=("corpus.sample_contrastive_batch", Pretrain.STEPS_PER_SLICE))
        self.checkpoint = ctx.work / "ckpt" / "checkpoint.json"
        self.demo_seed = ctx.seed % SEED_SPACE
        self.loaded = []
        self.rounds = 0

    def _capture(self, load):
        def capturing_load(path):
            ckpt = load(path)
            self.loaded.append((ckpt, _param_bytes(ckpt)))
            return ckpt
        return capturing_load

    def round(self, ctx) -> None:
        common = ["--manifest", self.manifest, "--checkpoint", self.checkpoint]
        self.rounds += 1
        with ctx.patched_method(ctx.emosup.AlignmentCheckpoint, "load", self._capture):
            demo = ctx.op(["supervise-demo", *common, "--seed", self.demo_seed,
                           "--out", ctx.work / "demo"],
                          marker=("numerics.sgd_step", self.STEPS_PER_SLICE))
            export = ctx.op(["export-diffs", *common, "--out", ctx.work / "diffs"],
                            marker=("differencing.embed_pair", self.ROWS_PER_SLICE))
        batch = _flags(ctx.work / "demo")["batch_size"]
        ctx.record("demo_entries_per_s", self.STEPS_PER_SLICE * batch, demo.slices)
        ctx.record("export_rows_per_s", self.ROWS_PER_SLICE, export.slices)

    def check(self, ctx) -> list[str]:
        problems = []
        # both commands load the checkpoint; a load that bypasses
        # AlignmentCheckpoint.load would leave nothing to compare
        if len(self.loaded) != 2 * self.rounds:
            problems.append(f"{len(self.loaded)} checkpoint loads seen through "
                            f"AlignmentCheckpoint.load in {self.rounds} rounds, "
                            f"expected {2 * self.rounds}")
        for ckpt, before in self.loaded:
            if not ckpt.frozen or _param_bytes(ckpt) != before:
                problems.append("checkpoint parameters changed during a command")
        self.loaded.clear()

        report = _read_json(ctx.work / "demo" / "report.json")
        base, supervised = report["baseline"], report["supervised"]
        if (base["lambda"], supervised["lambda"]) != (0.0, 0.4):
            problems.append("supervise-demo: rows are not lambda 0 and 0.4")
        if not supervised["l2_loss"] < base["l2_loss"]:
            problems.append("supervise-demo: lambda 0.4 l2_loss not below lambda 0")
        if not supervised["base_loss"] > base["base_loss"]:
            problems.append("supervise-demo: lambda 0.4 base_loss not above lambda 0")

        manifest = _read_json(self.manifest)
        world = ctx.world(manifest)
        with open(ctx.work / "diffs" / "diffs.csv", newline="") as f:
            table = list(csv.DictReader(f))
        expected_rows = len(manifest["samples"]) * (len(oracles.EMOTION_NAMES) - 1)
        if len(table) != expected_rows:
            problems.append(f"export-diffs: {len(table)} rows, expected {expected_rows}")
        d = world.config.d_e
        # every row matching the recomputation also makes the rows of one
        # emotion pair identical across identities
        worst = 0.0
        for row in table:
            t_diff = np.array([float(row[f"t_diff_{j}"]) for j in range(d)])
            expected = oracles.text_difference(world, row["source_emotion"],
                                               row["target_emotion"])
            worst = max(worst, float(np.max(np.abs(t_diff - expected))))
        if worst > 1e-9:
            problems.append(f"export-diffs: text difference off the identity-free "
                            f"recomputation by {worst:.2e}")
        return problems


class Analyze(Workload):
    name = "analyze"
    main, side = "eval_samples_per_s", "gap_samples_per_s"
    spans = ["cli.gen-corpus", "cli.analyze-gap", "cli.eval-metrics", "cli.derive-pools",
             "encoders.tokenize", "encoders.visual_encode", "encoders.text_encode",
             "encoders.build_synthetic_world", "encoders.write_feature_file",
             "encoders.read_feature_file",
             "numerics.as_vector", "numerics.cosine_with_flag", "numerics.psd_sqrt_trace",
             "corpus.generate_synthetic_corpus", "corpus.CorpusManifest.in_split",
             "metrics.metric_report", "metrics.fad", "metrics.lse_d", "metrics.csim",
             "analysis.modality_gap_report", "analysis.cross_modal_matrix",
             "analysis.derive_negative_pools", "analysis.load_reference_pools"]

    IDENTITIES = 48
    GAP_PER_EMOTION = 30   # 48 x 7 x 30 = 10080 samples, encoded once by analyze-gap
    EVAL_PER_EMOTION = 3   # 1008 feature files per set, each read once by eval-metrics

    def prepare(self, ctx) -> None:
        # The feature files eval-metrics compares stand for features a user
        # already has, so they are written once, before set-up is timed.
        self.world_seed = ctx.seed % SEED_SPACE
        self.gen_seed = (self.world_seed + 1) % SEED_SPACE
        for seed, out in [(self.world_seed, "real"), (self.gen_seed, "gen")]:
            ctx.setup_cli(["gen-corpus", "--seed", seed, "--identities", self.IDENTITIES,
                           "--per-emotion", self.EVAL_PER_EMOTION, "--out", ctx.work / out])
        self.n_eval = sum(len(_read_json(ctx.work / out / "features.json")["samples"])
                          for out in ("real", "gen"))

    def setup(self, ctx) -> None:
        emosup = ctx.emosup
        world = emosup.build_synthetic_world(
            self.world_seed, emosup.WorldConfig(n_identities=self.IDENTITIES))
        big = ctx.work / "big"
        big.mkdir(exist_ok=True)
        manifest = emosup.generate_synthetic_corpus(world, self.GAP_PER_EMOTION)
        manifest.save(big / "manifest.json")
        self.n_gap = len(manifest.samples)
        probe = ctx.work / "probe"
        ctx.setup_cli(["gen-corpus", "--seed", DEFAULT_WORLD_SEED, "--out", probe])
        # the same vectors under new ids whose sorted order reverses the original
        spec = _read_json(probe / "features.json")
        ids = sorted(s["id"] for s in spec["samples"])
        new_id = {old: f"renamed_{len(ids) - 1 - k:05d}" for k, old in enumerate(ids)}
        spec["samples"] = [{**s, "id": new_id[s["id"]]} for s in spec["samples"]]
        (probe / "renamed.json").write_text(json.dumps(spec))
        self.probe = probe
        self.n_probe = len(spec["samples"])

    def round(self, ctx) -> None:
        # rewrites the default-world corpus the probe reads, with the same bytes
        corpus = ctx.op(["gen-corpus", "--seed", DEFAULT_WORLD_SEED, "--out", self.probe])
        ctx.record("corpus_samples_per_s", self.n_probe, [corpus.scaled])
        gap = ctx.op(["analyze-gap", "--manifest", ctx.work / "big" / "manifest.json",
                      "--compare-reference", "--out", ctx.work / "gap"])
        ctx.record("gap_samples_per_s", self.n_gap, [gap.scaled])
        evaluation = ctx.op(["eval-metrics", "--real", ctx.work / "real" / "features.json",
                             "--gen", ctx.work / "gen" / "features.json",
                             "--out", ctx.work / "metrics"])
        ctx.record("eval_samples_per_s", self.n_eval, [evaluation.scaled])
        ctx.op(["derive-pools", "--k", 1, "--out", ctx.work / "pools"])
        # Known fault: eval-metrics pairs rows by position after sorting each
        # file by id, so sets whose ids differ get lse_d and csim over unrelated
        # rows. The operation passes only if it refuses or reports them as null.
        ctx.op(["eval-metrics", "--real", self.probe / "features.json",
                "--gen", self.probe / "renamed.json", "--out", ctx.work / "probe-metrics"],
               passed=self._probe_passed)

    @staticmethod
    def _probe_passed(rc: int, stdout: str) -> bool:
        return rc != 0 or "lse_d=n/a csim=n/a" in stdout

    def check(self, ctx) -> list[str]:
        problems = []
        real, gen = ctx.work / "real", ctx.work / "gen"
        manifest = _read_json(ctx.work / "big" / "manifest.json")
        world = ctx.world(manifest)
        by_emotion = {e: [] for e in oracles.EMOTION_NAMES}
        for s in manifest["samples"]:
            by_emotion[s["emotion"]].append(world.visual_embedding(s["image_ref"]))
        features = {e: np.array(v) for e, v in by_emotion.items()}
        texts = {e: world.text_prototype(code)
                 for code, e in enumerate(oracles.EMOTION_NAMES)}
        expected = oracles.gap_report(features, texts)
        reported = _read_json(ctx.work / "gap" / "report.json")["rows"]
        worst = max(abs(reported[e][k] - expected[e][k])
                    for e in expected for k in ("s_image", "s_match", "gap"))
        if worst > 1e-9:
            problems.append(f"analyze-gap: report off the brute-force oracle by {worst:.2e}")

        real_vecs = oracles.read_feature_dir(real / "features.json")
        gen_vecs = oracles.read_feature_dir(gen / "features.json")
        report = _read_json(ctx.work / "metrics" / "report.json")
        ids = sorted(real_vecs)
        fad = oracles.fad(np.array([real_vecs[i] for i in ids]),
                          np.array([gen_vecs[i] for i in sorted(gen_vecs)]))
        lse_d, csim = oracles.paired_metrics(real_vecs, gen_vecs)
        if abs(report["fad"] - fad) > 1e-6 * max(1.0, abs(fad)):
            problems.append(f"eval-metrics: fad {report['fad']} != oracle {fad}")
        if abs(report["lse_d"] - lse_d) > 1e-9 or abs(report["csim"] - csim) > 1e-9:
            problems.append(f"eval-metrics: lse_d/csim {report['lse_d']}/{report['csim']} "
                            f"!= id-paired oracle {lse_d}/{csim}")

        pools = _read_json(ctx.work / "pools" / "pools.json")
        data = ctx.src / "emosup" / "data"
        derived = oracles.top1_pools(_read_json(data / "reference_crossmodal_matrix.json"))
        published = _read_json(data / "reference_negative_pools.json")["pools"]
        if pools["pools"] != derived:
            problems.append("derive-pools: pools differ from top-1 exclusion")
        differ = {e for e in oracles.EMOTION_NAMES
                  if sorted(published[e]) != derived[e]}
        if differ != {"neutral", "surprised"} or set(pools["discrepancies"]) != differ:
            problems.append(f"derive-pools: flagged {sorted(pools['discrepancies'])}, "
                            f"expected {sorted(differ)} = ['neutral', 'surprised']")
        return problems


WORKLOADS = {w.name: w for w in (Pretrain(), Supervise(), Analyze())}
