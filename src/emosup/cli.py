"""Command-line entry point for reproducible corpus generation, training,
supervision demos, metrics, and modality-gap analyses.

Every command takes --out and writes fixed-name outputs there plus a
run.json capturing the fully resolved flags and output hashes, so any
run can be reproduced from its metadata alone. Exit codes: 0 success,
2 usage/validation problems (among them eval-metrics sets whose sample ids
differ), 3 numerical failures. Each command's handler, help line and
flag defaults are declared once, in ``COMMANDS``.

One protocol serves every command. A handler takes the resolved flags,
reads its inputs and computes its results, and returns two things: its
outputs, an ordered mapping from file name to a writer of that path, and
its report, a function from the outputs' sha256 hashes (by name) to the
text to print. ``main`` alone resolves the flags, calls the handler,
creates --out, runs each writer in order, writes run.json listing exactly
the returned names, and prints the report. So a refusal, which comes from
the handler, leaves no --out behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, differencing, prompts, supervision
from .corpus import CorpusManifest, NegativePoolTable, generate_synthetic_corpus
from .emotions import EMOTIONS, prompt_for
from .encoders import (NOISE_BLOCK, WorldConfig, build_synthetic_world,
                       read_feature_manifest, synthetic_suite, write_feature_file)
from .errors import (ContractError, GenerationError, NumericalError, load_json_object,
                     write_json)
from .metrics import FeatureSet, metric_report
from .prompts import AlignmentCheckpoint, TrainConfig
from .supervision import DemoConfig, LambdaConfig, lambda_for_baseline

USAGE_ERROR = 2
NUMERICAL_ERROR = 3


HASH_BLOCK = 1 << 16  # bytes read at a time when an output is hashed


def _file_sha256(path: Path) -> str:
    # read in blocks, so a 3 MB checkpoint is never held whole; hashlib's
    # file_digest does the same but needs Python 3.11
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_run_metadata(out: Path, command: str, flags: dict,
                        names) -> dict[str, str]:
    """Write run.json; returns the sha256 of each named output file in
    ``out``, by name."""
    hashes = {name: _file_sha256(out / name) for name in names}
    write_json(out / "run.json", {"command": command, "flags": flags, "outputs": hashes})
    return hashes


def _resolve_flags(args: argparse.Namespace) -> dict:
    """defaults < config file (flags, or this command's run.json) < passed flags.

    Refuses, naming it, a config file that is not JSON or holds no JSON
    object of flags (read by ``load_json_object``), a config key that is no
    command's flag or whose value's JSON type does not fit the flag, and a
    flag with no default that has no value after the merge."""
    resolved = dict(COMMANDS[args.command][2])
    if args.config:
        file_conf = load_json_object(args.config, lambda conf: conf)
        recorded = file_conf.pop("command", None)
        if recorded is not None and recorded != args.command:
            raise ContractError(f"--config {args.config} records a {recorded} run; "
                                f"it cannot configure {args.command}")
        file_conf = file_conf.get("flags", file_conf)  # a previous run.json
        if not isinstance(file_conf, dict):
            raise ContractError(f"--config {args.config} holds no JSON object of flags")
        unknown = sorted(set(file_conf) - ALL_FLAGS)
        if unknown:
            raise ContractError(f"--config {args.config} has keys that are no "
                                f"command's flag: {', '.join(unknown)}")
        # another command's flag is ignored: a flags file may serve several
        for key, value in file_conf.items():
            if key not in resolved:
                continue
            kind, item, default = FLAG_TYPES[key], LIST_FLAGS.get(key), resolved[key]
            if not (type(value) in JSON_TYPES[kind] or value is None and default is None
                    or item and isinstance(value, list)
                    and all(type(x) in JSON_TYPES[item] for x in value)):
                raise ContractError(f"--config {args.config}: {key} takes {kind.__name__}"
                                    f"{f' or a list of {item.__name__}' if item else ''}, "
                                    f"not {json.dumps(value)}")
            resolved[key] = value
    for key in resolved:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    missing = [_flag(key) for key in REQUIRED
               if key in resolved and resolved[key] in (None, "")]
    if missing:
        raise ContractError(f"{' and '.join(missing)} "
                            f"{'is' if len(missing) == 1 else 'are'} required")
    return resolved


# config field -> flag name, only where the two differ; None: the field has no flag
FLAG_NAMES = {"n_identities": "identities", "noise_sigma": "noise",
              "guider_token_count": "guider_tokens", "word_token_scale": None}


def _flagged_fields(cls):
    """(field, flag name, default) for each field of config dataclass
    ``cls`` that has a flag."""
    for field, default in dataclasses.asdict(cls()).items():
        name = FLAG_NAMES.get(field, field)
        if name is not None:
            yield field, name, default


def _config_defaults(cls) -> dict:
    """Flag defaults of a config dataclass, keyed by flag name; a tuple
    default is spelled as a comma list."""
    return {name: ",".join(map(str, default)) if isinstance(default, tuple) else default
            for _, name, default in _flagged_fields(cls)}


def _config_from_flags(cls, flags: dict):
    """The validated config built from resolved flags, each value cast to the
    type of its field's default; a tuple field takes a comma string of ints
    or a list."""
    values = {}
    for field, name, default in _flagged_fields(cls):
        value = flags[name]
        if isinstance(default, tuple) and isinstance(value, str):
            value = [int(x) for x in value.split(",") if x]
        values[field] = type(default)(value)
    config = cls(**values)
    config.validate()
    return config


def _load_pools(spec: str) -> NegativePoolTable:
    if spec == "reference":
        return analysis.load_reference_pools()
    if spec == "all":
        return NegativePoolTable.all_others()
    return load_json_object(spec, lambda d: NegativePoolTable.from_names(d["pools"]))


def _manifest_and_suite(manifest_path: str):
    manifest = CorpusManifest.load(manifest_path)
    world = manifest.rebuild_world()
    return manifest, world, synthetic_suite(world)


# ---------------------------------------------------------------------------
# commands: each takes the resolved flags and returns (outputs, report)
# ---------------------------------------------------------------------------

def cmd_gen_corpus(flags):
    config = _config_from_flags(WorldConfig, flags)
    world = build_synthetic_world(int(flags["seed"]), config)
    suite = synthetic_suite(world)
    manifest = generate_synthetic_corpus(world, int(flags["per_emotion"]))

    def write_features(path: Path) -> None:
        """features.json and the feature files it names, in features/ beside it."""
        out = path.parent
        (out / "features").mkdir(exist_ok=True)
        feature_entries = []
        samples = sorted(manifest.samples, key=lambda s: s.id)
        # one batched encode per block of samples, so no (N, d_e) stack is held
        for start in range(0, len(samples), NOISE_BLOCK):
            block = samples[start:start + NOISE_BLOCK]
            for s, vector in zip(block, suite.visual_encode(tuple(s.image_ref for s in block))):
                rel = f"features/{s.id}.f32"
                write_feature_file(out / rel, vector)
                feature_entries.append({"id": s.id, "identity": s.identity,
                                        "emotion": s.emotion.name, "feature_file": rel})
        text_refs = {}
        for e in EMOTIONS:
            rel = f"features/text_{e.name}.f32"
            write_feature_file(out / rel, world.text_prototype(e))
            text_refs[e.name] = rel
        write_json(path, {"dim": world.config.d_e, "samples": feature_entries,
                          "text_embeddings": text_refs})

    n_train = len(manifest.in_split("train"))
    n_val = len(manifest.in_split("val"))
    return ({"manifest.json": manifest.save, "features.json": write_features},
            lambda hashes: (f"wrote {len(manifest.samples)} samples ({n_train} train / "
                            f"{n_val} val) for {flags['identities']} identities"))


def cmd_pretrain(train, flags):
    """pretrain and pretrain-diff-ablation: ``train`` is the objective."""
    config = _config_from_flags(TrainConfig, flags)
    manifest, _, suite = _manifest_and_suite(flags["manifest"])
    ckpt, curve = train(manifest, _load_pools(flags["pools"]), suite, config)
    accuracy = prompts.retrieval_accuracy(ckpt, manifest, "val", suite)
    means = curve.epoch_means()
    # the file holds the canonical JSON, so its sha256 is ckpt.content_hash()
    return ({"checkpoint.json": ckpt.save, "curve.csv": curve.save_csv},
            lambda hashes: (f"epoch mean loss: first={means[0]:.4f} final={means[-1]:.4f}; "
                            f"val retrieval accuracy={accuracy:.3f}\n"
                            f"checkpoint hash: {hashes['checkpoint.json']}"))


def cmd_analyze_gap(flags):
    manifest, _, suite = _manifest_and_suite(flags["manifest"])
    # one (N, d_e) stack with the rows grouped by emotion, in manifest order
    # within each (a stable sort); every emotion reads a view of its slice
    counts = np.bincount([s.emotion for s in manifest.samples], minlength=len(EMOTIONS))
    stack = suite.visual_encode(tuple(s.image_ref for s in sorted(manifest.samples,
                                                                   key=lambda s: s.emotion)))
    ends = np.cumsum(counts)
    starts = ends - counts
    features = {e: stack[starts[e]:ends[e]] for e in EMOTIONS}
    texts = {e: suite.text_encode(suite.tokenize(prompt_for(e))[None])[0]
             for e in EMOTIONS}
    report = analysis.modality_gap_report(features, texts)
    matrix = analysis.cross_modal_matrix(features, texts)
    reference = analysis.load_reference_gap_table() if flags["compare_reference"] else None
    return ({"report.json": lambda path: write_json(path, report.to_json_dict()),
             "report.csv": report.to_csv,
             "matrix.json": lambda path: write_json(path, matrix.to_json_dict()),
             "matrix.csv": matrix.to_csv},
            lambda hashes: analysis.format_gap_report(report, reference))


def cmd_derive_pools(flags):
    if flags["matrix"] == "reference":
        matrix = analysis.load_reference_matrix()
    else:
        matrix = load_json_object(flags["matrix"],
                                  analysis.CrossModalSimilarityMatrix.from_json_dict)
    derived = analysis.derive_negative_pools(matrix, int(flags["k"]))
    reference = analysis.load_reference_pools()
    discrepancies = analysis.pool_discrepancies(derived, reference)
    payload = {"k": int(flags["k"]), "pools": derived.to_names(),
               "reference_pools": reference.to_names(),
               "discrepancies": {e.name: d for e, d in discrepancies.items()}}
    note = (f"note: derived pools differ from the published reference for: "
            f"{', '.join(e.name for e in discrepancies)}" if discrepancies
            else "derived pools match the published reference exactly")
    return {"pools.json": lambda path: write_json(path, payload)}, lambda hashes: note


def _feature_set_from_manifest(path: str, tag: str) -> FeatureSet:
    _, rows, _ = read_feature_manifest(path)
    rows.sort(key=lambda row: row[0])
    return FeatureSet(np.array([vec for _, vec in rows]), tag, [i for i, _ in rows])


def cmd_eval_metrics(flags):
    real = _feature_set_from_manifest(flags["real"], "real")
    gen = _feature_set_from_manifest(flags["gen"], "gen")
    report = metric_report(real, gen)
    lse = "n/a" if report["lse_d"] is None else f"{report['lse_d']:.6f}"
    cs = "n/a" if report["csim"] is None else f"{report['csim']:.6f}"
    return ({"report.json": lambda path: write_json(path, report)},
            lambda hashes: f"fad={report['fad']:.6f} lse_d={lse} csim={cs}")


def _checkpoint_inputs(flags):
    """Manifest, world, suite and a checkpoint whose dims match the suite's."""
    manifest, world, suite = _manifest_and_suite(flags["manifest"])
    ckpt = AlignmentCheckpoint.load(flags["checkpoint"])
    ckpt.require_suite(suite)
    return manifest, world, suite, ckpt


def cmd_supervise_demo(flags):
    manifest, world, suite, ckpt = _checkpoint_inputs(flags)
    config = _config_from_flags(DemoConfig, flags)
    lam = (lambda_for_baseline(flags["baseline"]) if flags["lam"] is None
           else LambdaConfig(float(flags["lam"]), flags["baseline"]))
    report = supervision.supervise_demo(manifest, ckpt, lam, suite, config, world=world)
    base, sup = report.baseline, report.supervised
    return ({"report.json": lambda path: write_json(
                 path, {**report.to_json_dict(), "content_hash": report.content_hash()}),
             "report.csv": lambda path: supervision.write_demo_csv(report.rows(), path)},
            lambda hashes: (f"lambda=0: accuracy={base.emotion_accuracy:.3f}; "
                            f"lambda={sup.lam}: accuracy={sup.emotion_accuracy:.3f}"))


def cmd_sweep_lambda(flags):
    manifest, world, suite, ckpt = _checkpoint_inputs(flags)
    config = _config_from_flags(DemoConfig, flags)
    grid_spec = flags["grid"]
    grid = supervision.lambda_grid([x for x in grid_spec.split(",") if x]
                                   if isinstance(grid_spec, str) else grid_spec)
    rows = supervision.sweep_lambda(manifest, ckpt, grid, suite, config, world=world)
    return ({"sweep.csv": lambda path: supervision.write_demo_csv(rows, path),
             "sweep.json": lambda path: write_json(path, {"rows": [r.to_dict() for r in rows]})},
            lambda hashes: "\n".join(f"lambda={r.lam}: base_loss={r.base_loss:.4f} "
                                     f"l2={r.l2_loss:.4f} accuracy={r.emotion_accuracy:.3f}"
                                     for r in rows))


def cmd_export_diffs(flags):
    manifest, _, suite, ckpt = _checkpoint_inputs(flags)
    rows = differencing.export_difference_rows(
        ckpt, manifest, suite, include_mismatched=bool(flags["include_mismatched"]))
    return ({"diffs.csv": lambda path: differencing.write_difference_csv(rows, path)},
            lambda hashes: f"exported {len(rows)} difference rows")


# ---------------------------------------------------------------------------
# the command table and the parser
# ---------------------------------------------------------------------------

# command -> (handler, help, {flag: default}); a handler maps the resolved flags
# to (outputs, report), as the module docstring says; a flag's type is its default's
COMMANDS = {
    "gen-corpus": (cmd_gen_corpus, "generate a synthetic corpus + features",
                   {"seed": 1, "per_emotion": 3, **_config_defaults(WorldConfig)}),
    "pretrain": (functools.partial(cmd_pretrain, prompts.pretrain_alignment),
                 "contrastive pre-training",
                 {"manifest": None, **_config_defaults(TrainConfig), "pools": "reference"}),
    "pretrain-diff-ablation": (
        functools.partial(cmd_pretrain, prompts.pretrain_with_difference_objective),
        "pre-train with the difference objective instead",
        {"manifest": None, **_config_defaults(TrainConfig), "pools": "reference"}),
    "analyze-gap": (cmd_analyze_gap, "modality-gap report on a corpus",
                    {"manifest": None, "compare_reference": False}),
    "derive-pools": (cmd_derive_pools, "derive negative pools by top-k exclusion",
                     {"k": None, "matrix": "reference"}),
    "eval-metrics": (cmd_eval_metrics, "fad / lse-d / csim between feature sets",
                     {"real": None, "gen": None}),
    "supervise-demo": (cmd_supervise_demo,
                       "train the toy generator with and without the regularizer",
                       {"manifest": None, "checkpoint": None,
                        **_config_defaults(DemoConfig), "baseline": "toy", "lam": None}),
    "sweep-lambda": (cmd_sweep_lambda, "demo runs over a lambda grid",
                     {"manifest": None, "checkpoint": None,
                      **_config_defaults(DemoConfig), "grid": "0.1,0.2,0.4,0.8"}),
    "export-diffs": (cmd_export_diffs,
                     "export difference vectors for external 2-D projection",
                     {"manifest": None, "checkpoint": None, "include_mismatched": False}),
}
# every flag with no default but --lambda is required wherever it appears
REQUIRED = ("manifest", "checkpoint", "k", "real", "gen")
# a flag's value type is its default's (bool for a store_const flag); flags
# with no default are str but for these two
FLAG_TYPES = {key: {"k": int, "lam": float}.get(key, str) if default is None
              else type(default)
              for _, _, flags in COMMANDS.values() for key, default in flags.items()}
# flags a config file may also give as a JSON list: tuple fields (of ints) and grid
LIST_FLAGS = {"grid": float, **{name: int for cls in (WorldConfig, TrainConfig, DemoConfig)
              for _, name, default in _flagged_fields(cls) if isinstance(default, tuple)}}
# the JSON types a config file may give a flag of each type: a float flag takes
# an int too, and a bool is no number (type(True) is bool)
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}
FLAG_HELP = {"pools": "'reference', 'all', or a pools.json path",
             "matrix": "'reference' or a matrix.json path",
             "baseline": "one of " + ", ".join(sorted(supervision.DEFAULT_LAMBDAS))}
# --out is always passed, so an "out" key in a config file is overridden
ALL_FLAGS = {"out"}.union(*(flags for _, _, flags in COMMANDS.values()))


def _flag(key: str) -> str:
    return "--" + {"lam": "lambda"}.get(key, key).replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emosup",
        description="cross-modal emotional supervision toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, default in flags.items():
            if default is False:
                p.add_argument(_flag(key), dest=key, action="store_const", const=True)
            else:
                p.add_argument(_flag(key), dest=key, help=FLAG_HELP.get(key),
                               type=FLAG_TYPES[key])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        flags = _resolve_flags(args)
        outputs, report = COMMANDS[args.command][0](flags)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in outputs.items():
            write(out / name)
        print(report(_write_run_metadata(out, args.command, flags, outputs)))
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ContractError, GenerationError, KeyError, OSError, ValueError) as exc:
        # str() of a KeyError is the repr of its argument: print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
