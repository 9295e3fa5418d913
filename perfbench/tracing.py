"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each emosup module in spans,
without changing any file under ``src/``. A function imported by name
(``from .numerics import mlp_forward``) is a separate binding in every
importing module, and a function used as a default argument is bound
again in ``__defaults__``; ``patch_everywhere`` replaces all of them, so
no call escapes its span. A span that names a missing function raises,
and ``Tracer.require_calls`` raises for an expected span that recorded no
calls, so a renamed function shows up as an error instead of a silent 0.

Self time is a span's duration minus the time its child spans cover.
Spans are aggregated as they close (name -> calls, self time), since a
traced pre-training run opens millions of them. The observers that count
distinct inputs, degenerate cosines and trainable backward calls run in a
span of their own (``trace.observe``), so their cost is not charged to the
caller of the observed function.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> functions spanned. "Class.method" names a method; "suite.<field>"
# names an EncoderSuite callable, which the tracer reaches by wrapping the
# suite factories (suites are built inside each CLI command).
LAYERS = {
    "encoders": ["suite.tokenize", "suite.visual_encode", "suite.text_encode",
                 "suite.backbone_identity", "suite.text_token_vjp",
                 "build_synthetic_world", "write_feature_file", "read_feature_file"],
    "numerics": ["mlp_forward", "mlp_backward", "sgd_step", "cosine_with_flag",
                 "cosine_grads", "as_vector", "psd_sqrt_trace"],
    "corpus": ["generate_synthetic_corpus", "sample_contrastive_batch",
               "sample_pair_batch", "CorpusManifest.in_split",
               "CorpusManifest.neutrals_of"],
    "prompts": ["contrastive_step_grads", "difference_step_grads",
                "build_personalized_prompt", "project_visual", "retrieval_accuracy",
                "AlignmentCheckpoint.save", "AlignmentCheckpoint.load"],
    "differencing": ["embed_pair", "diff_vectors", "difference_loss_with_grads",
                     "export_difference_rows", "write_difference_csv"],
    "supervision": ["supervise_demo", "squared_error_loss", "total_loss"],
    "metrics": ["metric_report", "fad", "lse_d", "csim"],
    "analysis": ["modality_gap_report", "cross_modal_matrix",
                 "derive_negative_pools", "load_reference_pools"],
}
SUITE_FACTORIES = [("encoders", "synthetic_suite"),
                   ("encoders", "load_precomputed_features")]
# one span per CLI command the workloads run, named cli.<command>
CLI_COMMANDS = ["gen-corpus", "pretrain", "pretrain-diff-ablation", "supervise-demo",
                "export-diffs", "analyze-gap", "eval-metrics", "derive-pools"]
OBSERVE_SPAN = "trace.observe"  # the observers' own cost


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removeprefix('suite.')}"


def all_span_names() -> list[str]:
    names = [span_name(layer, f) for layer, funcs in LAYERS.items() for f in funcs]
    return names + [f"cli.{c}" for c in CLI_COMMANDS] + [OBSERVE_SPAN]


class TraceError(RuntimeError):
    """The trace cannot be trusted: a spanned function is missing or silent."""


class Tracer:
    """Span stack with on-the-fly self-time aggregation.

    ``begin``/``end`` take explicit timestamps so the arithmetic can be
    tested on a hand-built span tree; ``span`` wraps a callable with the
    real clock.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds]
        self.distinct: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str, t: float) -> None:
        self._stack.append([name, t, 0.0])

    def end(self, t: float) -> None:
        name, start, child = self._stack.pop()
        duration = t - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` spent inside the open span (the benchmark's own
        speed probes) out of its self time, and charge them to no span."""
        if self._stack:
            self._stack[-1][2] += seconds

    def span(self, name: str, fn, observe=None):
        clock = time.perf_counter
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end(clock())
            if observe is not None:
                begin(OBSERVE_SPAN, clock())
                try:
                    observe(self, args, result)
                finally:
                    end(clock())
            return result

        return wrapper

    def require_calls(self, names, workload: str) -> None:
        silent = [n for n in names if self.calls.get(n, 0) == 0]
        if silent:
            raise TraceError(f"spans expected on workload {workload!r} recorded no "
                             f"calls: {', '.join(silent)} (renamed or no longer called?)")


def _observe_distinct(key):
    def observe(tracer, args, result):
        arg = args[0]
        if isinstance(arg, np.ndarray):
            arg = hashlib.blake2b(arg.tobytes(), digest_size=16).digest()
        tracer.distinct[key].add(arg)
    return observe


def _observe_degenerate(tracer, args, result):
    tracer.counts["numerics.cosine_with_flag.degenerate"] += bool(result[1])


def _observe_trainable(tracer, args, result):
    tracer.counts["numerics.mlp_backward.trainable"] += bool(
        args[0].layers[0].weights.flags.writeable)


OBSERVERS = {
    "encoders.tokenize": _observe_distinct("encoders.tokenize"),
    "encoders.visual_encode": _observe_distinct("encoders.visual_encode"),
    "numerics.cosine_with_flag": _observe_degenerate,
    "numerics.mlp_backward": _observe_trainable,
}


def _emosup_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "emosup" or name.startswith("emosup."))]


class Patches:
    """Replacements applied to module globals, class attributes and function
    defaults; ``restore`` undoes them in reverse order."""

    def __init__(self):
        self._undo: list = []

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind every emosup module global, and every default argument of an
        emosup module-level function, that holds ``original``."""
        for module in _emosup_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                elif callable(value) and not isinstance(value, type):
                    for fn in _functions_of(value):
                        self._patch_defaults(fn, original, replacement)

    def _patch_defaults(self, fn, original, replacement) -> None:
        defaults = fn.__defaults__
        if defaults and any(d is original for d in defaults):
            fn.__defaults__ = tuple(replacement if d is original else d for d in defaults)
            self._undo.append(lambda: setattr(fn, "__defaults__", defaults))

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._set(cls, attr, new)

    def _set(self, owner, attr, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _functions_of(value):
    """The function a module global holds and the functions it wraps (a
    function spanned earlier is reached through its wrapper)."""
    fn = value
    while hasattr(fn, "__defaults__"):
        yield fn
        fn = getattr(fn, "__wrapped__", None)


def resolve(emosup, name: str):
    """The function a span name such as 'corpus.sample_pair_batch' refers to."""
    layer, _, func = name.partition(".")
    owner, attr = _resolve(getattr(emosup, layer), func)
    return vars(owner)[attr]


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    target = getattr(module, owner) if owner else module
    if attr not in vars(target):
        raise TraceError(f"spanned function {module.__name__}.{dotted} does not exist")
    return target, attr


def install(tracer: Tracer) -> Patches:
    """Span every function in ``LAYERS``; returns the patches to restore."""
    import emosup

    patches = Patches()
    suite_fields = {}
    try:
        for layer, funcs in LAYERS.items():
            module = getattr(emosup, layer)
            for func in funcs:
                name = span_name(layer, func)
                observe = OBSERVERS.get(name)
                if func.startswith("suite."):
                    field = func.removeprefix("suite.")
                    if field not in {f.name for f in dataclasses.fields(emosup.EncoderSuite)}:
                        raise TraceError(f"EncoderSuite has no callable {field!r}")
                    suite_fields[field] = (name, observe)
                    continue
                owner, attr = _resolve(module, func)
                if isinstance(owner, type):
                    patches.patch_method(
                        owner, attr, lambda fn, n=name, o=observe: tracer.span(n, fn, o))
                else:
                    original = vars(owner)[attr]
                    patches.patch_everywhere(original, tracer.span(name, original, observe))

        def wrap_suite(suite):
            return dataclasses.replace(suite, **{
                field: tracer.span(name, getattr(suite, field), observe)
                for field, (name, observe) in suite_fields.items()})

        for layer, factory in SUITE_FACTORIES:
            owner, attr = _resolve(getattr(emosup, layer), factory)
            original = vars(owner)[attr]

            @functools.wraps(original)
            def traced_factory(*args, _original=original, **kwargs):
                return wrap_suite(_original(*args, **kwargs))

            patches.patch_everywhere(original, traced_factory)
    except BaseException:
        patches.restore()
        raise
    return patches


def layer_metrics(tracer: Tracer, run_s: float) -> dict:
    """Every per-layer metric of the benchmark, zero for spans not called;
    ``run_s`` is the traced round's wall time."""
    out = {}
    for name in all_span_names():
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    for key in ("encoders.tokenize", "encoders.visual_encode"):
        calls = tracer.calls.get(key, 0)
        out[f"{key}.distinct_ratio"] = (
            len(tracer.distinct[key]) / calls if calls else 0.0, "ratio")
    out["numerics.cosine_with_flag.degenerate"] = (
        tracer.counts["numerics.cosine_with_flag.degenerate"], "count")
    backward = tracer.calls.get("numerics.mlp_backward", 0)
    out["numerics.mlp_backward.trainable_ratio"] = (
        tracer.counts["numerics.mlp_backward.trainable"] / backward if backward else 0.0,
        "ratio")
    out["cli.bytes_written"] = (tracer.counts["cli.bytes_written"], "bytes")
    out["trace.run_s"] = (run_s, "s")
    out["trace.spans"] = (sum(tracer.calls.values()), "count")
    out["trace.unattributed_s"] = (run_s - sum(tracer.self_s.values()), "s")
    return out
