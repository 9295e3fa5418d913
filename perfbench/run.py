"""Benchmark of the emosup pipeline: pre-training, plug-in supervision and
evaluation, driven through ``emosup.cli.main`` in this process.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` directory. ``setup_s`` is the median time of importing the program
in eight fresh interpreters (four before set-up, four after the rounds)
plus the median of three set-ups. Then a fixed
number of whole rounds of the workload's CLI operations run: about
``--seconds`` worth at the reference speed, a count that depends only on
``--seconds`` and the workload, so ``attempted`` and ``failed`` do not
depend on how fast the program is. Each rate is taken over slices of a long
command's main loop, or over rounds for a short command, as a mean without
the top and bottom tenth; ``run_s`` is the median round.

Times are scaled to a reference speed. The host's CPU speed switches
between two levels about 1.8x apart, several times a minute, so a wall
time mixes them in a proportion that changes from run to run. A fixed
reference kernel is timed beside every timing (before and after each
command, and at every slice boundary), and each timing is multiplied by
``REFERENCE_S`` / the kernel's duration. Wall times are kept in the
result file.

With ``--trace 1`` each round runs twice, untraced and then with every
module's public functions wrapped in spans, and the per-layer metrics are
printed instead. Speed probes inside a traced command are charged to no
span. The tracing
overhead is the traced round's time minus the untraced one's. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = "1"  # one thread: steadiest on a shared machine, and <= nproc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# share of a traced round that may lie outside every span even when the
# measured tracing overhead is smaller (see the check in ``run``)
UNATTRIBUTED_FLOOR = 0.01
# imports timed in fresh interpreters, this many before set-up and as many
# again after the rounds, so that the median spans the host's slow and fast
# spells (the same import took 0.12 s in one run and 0.2 s in the next)
IMPORT_REPEATS = 4


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result."""


def import_program():
    """Import emosup from this checkout's src/, never from anywhere else."""
    if not (SRC / "emosup" / "__init__.py").is_file():
        raise BenchmarkError(f"no emosup sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import emosup
    import emosup.cli
    if not Path(emosup.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"emosup was imported from {emosup.__file__}, not {SRC}")
    return emosup


@dataclass
class Op:
    rc: int
    stdout: str
    seconds: float  # wall time of the command, without the speed probes inside it
    scaled: float = 0.0  # the same at the reference speed
    slices: list[float] = field(default_factory=list)  # scaled slice durations


# The reference kernel's typical duration on the machine the reference figures
# come from (the common, slower of its two speeds); scaled times are wall
# times multiplied by REFERENCE_S / (the kernel's duration measured beside them).
REFERENCE_S = 5.0e-3


def reference_kernel() -> float:
    """Fixed work written apart from the program: small numpy products and
    Python dict traffic, like the program's inner loops."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    w = np.full((64, 64), 1.0 / 64.0)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(600):
        table[i % 17] = float(np.linalg.norm(w @ x + i))
        acc += table[i % 17] / len(table)
    return acc


def trimmed_mean(samples: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of the samples."""
    ordered = sorted(samples)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def scale(seconds: float, *probes: float) -> float:
    return seconds * REFERENCE_S / statistics.mean(probes)


class Context:
    """What a workload sees: its work directory, the seed, and the way to run
    CLI operations (timed and counted, or as set-up)."""

    def __init__(self, emosup, work: Path, seed: int):
        self.emosup = emosup
        self.work = work
        self.seed = seed
        self.src = SRC
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.probe_s = 0.0  # time spent in speed probes, kept out of every timing
        self.cli_wall = self.cli_scaled = 0.0  # running totals over CLI commands
        self.samples: dict[str, tuple[int, list[float]]] = {}

    def probe_speed(self) -> float:
        """Seconds one reference kernel takes now, with the garbage collector
        off so the program's heap does not leak into it."""
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self.probe_s += seconds
        return seconds

    def timed(self, start_probe: float, body) -> tuple[float, float]:
        """(wall, scaled) seconds of ``body()``: its CLI commands as they
        scale themselves, the rest at the speed probed before and after."""
        wall0, scaled0, probe0 = self.cli_wall, self.cli_scaled, self.probe_s
        start = time.perf_counter()
        body()
        wall = time.perf_counter() - start - (self.probe_s - probe0)
        rest = wall - (self.cli_wall - wall0)
        return wall, (self.cli_scaled - scaled0) + scale(rest, start_probe,
                                                         self.probe_speed())

    def _run_cli(self, argv, marker) -> Op:
        """Run one command, slicing it at ``marker=(function, k)``: every k
        calls of a function called once per step of the command's main loop,
        the speed is probed and a slice boundary stamped. With a tracer, the
        command runs in a ``cli.<command>`` span."""
        import tracing

        argv = [str(a) for a in argv]
        main = self.emosup.cli.main
        patches = tracing.Patches()
        stamps: list[float] = []
        probes: list[float] = []
        before = self.probe_speed()
        try:
            if marker is not None:
                function, k = marker
                original = tracing.resolve(self.emosup, function)
                calls = 0

                @functools.wraps(original)
                def stamped(*args, **kwargs):
                    nonlocal calls
                    if calls % k == 0:
                        probes.append(self.probe_speed())
                        if self.tracer is not None:
                            self.tracer.skip(probes[-1])
                        stamps.append(time.perf_counter())
                    calls += 1
                    return original(*args, **kwargs)

                patches.patch_everywhere(original, stamped)
            if self.tracer is not None:
                main = self.tracer.span(f"cli.{argv[0]}", main)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                rc = main(argv)
                seconds = time.perf_counter() - start - sum(probes)
        finally:
            patches.restore()
        raw_slices = [b - a - p for a, b, p in zip(stamps, stamps[1:], probes[1:])]
        slices = [scale(s, p, q) for s, p, q in zip(raw_slices, probes, probes[1:])]
        if marker is not None and not slices:
            raise BenchmarkError(f"{marker[0]} was called {len(stamps)} times in "
                                 f"{argv[0]}, fewer than one slice")
        scaled = sum(slices) + scale(seconds - sum(raw_slices), before, self.probe_speed())
        self.cli_wall += seconds
        self.cli_scaled += scaled
        return Op(rc, buf.getvalue(), seconds, scaled, slices)

    def setup_cli(self, argv, marker=None) -> Op:
        op = self._run_cli(argv, marker)
        if op.rc != 0:
            raise BenchmarkError(f"set-up command {argv} exited {op.rc}")
        return op

    def op(self, argv, marker=None, passed=None) -> Op:
        """One timed, counted operation; ``slices`` holds its slices at the
        reference speed (see ``_run_cli``). ``passed(rc, stdout)`` decides
        success for an operation expected to show a known fault; any other
        operation that exits non-zero stops the benchmark."""
        op = self._run_cli(argv, marker)
        ok = passed(op.rc, op.stdout) if passed else op.rc == 0
        if passed is None and not ok:
            raise BenchmarkError(f"operation {argv} exited {op.rc}")
        self.attempted += 1
        self.failed += not ok
        if self.tracer is not None:
            argv = [str(a) for a in argv]
            out = Path(argv[argv.index("--out") + 1])
            self.tracer.counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
        return op

    def record(self, rate: str, items: int, seconds: list[float]) -> None:
        """Samples of a rate: each of ``seconds`` processed ``items`` items."""
        self.samples.setdefault(rate, (items, []))[1].extend(seconds)

    @contextlib.contextmanager
    def patched_method(self, cls, attr, make_wrapper):
        import tracing

        patches = tracing.Patches()
        patches.patch_method(cls, attr, make_wrapper)
        try:
            yield
        finally:
            patches.restore()

    def world(self, manifest: dict):
        spec = manifest["world"]
        return self.emosup.build_synthetic_world(
            spec["seed"], self.emosup.WorldConfig.from_dict(spec["config"]))

    @staticmethod
    def sha256(path: Path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def import_seconds() -> list[float]:
    """Wall seconds a fresh interpreter takes to import ``emosup.cli``
    (numpy included), once per child process, ``IMPORT_REPEATS`` times.
    This process has imported the program already, so the files are in the
    page cache. The times are not scaled: probes in this process do not see
    the child's speed, and scaling by them spread the figure more than it
    steadied it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import emosup.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            raise BenchmarkError(f"importing emosup in a child failed:\n{child.stderr}")
        times.append(float(child.stdout.split()[-1]))
    return times


def git_hash() -> str:
    """HEAD of the checkout if it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    emosup = import_program()
    import numpy
    import tracing
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload_name!r}; "
                             f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    # One work directory per workload, kept between runs: its files are
    # rewritten in place, since deleting thousands of files slows the disk
    # for whatever runs next.
    work = OUT / "work" / workload_name
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(emosup, work, seed)
    imports = import_seconds()
    workload.prepare(ctx)
    setups = [ctx.timed(ctx.probe_speed(), lambda: workload.setup(ctx))[1]
              for _ in range(SETUP_REPEATS)]

    rounds = max(1, round(seconds / workload.ROUND_S))
    round_wall, round_scaled, layer_rounds = [], [], []
    for _ in range(rounds):
        patches = tracing.Patches()
        if trace:
            untraced = ctx.timed(ctx.probe_speed(), lambda: workload.round(ctx))
            ctx.tracer = tracing.Tracer()
            patches = tracing.install(ctx.tracer)
        try:
            wall0, scaled0 = ctx.cli_wall, ctx.cli_scaled
            wall, scaled = ctx.timed(ctx.probe_speed(), lambda: workload.round(ctx))
        finally:
            patches.restore()
        round_wall.append(ctx.cli_wall - wall0)
        round_scaled.append(ctx.cli_scaled - scaled0)
        if trace:
            ctx.tracer.require_calls(workload.spans, workload_name)
            layer = tracing.layer_metrics(ctx.tracer, wall)
            layer["trace.overhead_s"] = (scaled - untraced[1], "s")
            layer_rounds.append(layer)
            ctx.tracer = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    imports += import_seconds()
    problems = workload.check(ctx)

    if trace:
        rates = {}
        metrics = {name: (statistics.median(layer[name][0] for layer in layer_rounds),
                          unit) for name, (_, unit) in layer_rounds[0].items()}
        # Time a traced round spends outside every span (the harness's own
        # work between commands) is part of what tracing adds, so it must
        # lie between 0 and the overhead; a fault in the self-time
        # arithmetic or a span left open breaks this. On analyze the
        # overhead (about 0.05 s a round) is smaller than the round-to-round
        # noise of its estimate (0.3 s), hence the floor.
        unattributed, overhead, run_s = (metrics[k][0] for k in (
            "trace.unattributed_s", "trace.overhead_s", "trace.run_s"))
        allowed = max(overhead, UNATTRIBUTED_FLOOR * run_s)
        if not 0.0 <= unattributed <= allowed:
            problems.append(f"self times leave {unattributed:.4f} s of the traced round "
                            f"unattributed, outside [0, {allowed:.4f} s]")
    else:
        rates = {name: items / trimmed_mean(secs)
                 for name, (items, secs) in ctx.samples.items()}
        metrics = {"setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
                   "run_s": (statistics.median(round_scaled), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "main_items_per_s": (rates[workload.main], "items/s"),
                   "side_items_per_s": (rates[workload.side], "items/s")}
    return {
        "correct": not problems, "attempted": ctx.attempted, "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems, "rates": rates, "rounds": rounds,
        "round_wall_s": round_wall, "round_scaled_s": round_scaled,
        "samples": ctx.samples, "imports_s": imports, "setups_s": setups,
        "trace_overheads_s": [layer["trace.overhead_s"][0] for layer in layer_rounds],
        "environment": {"numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
                        "git": git_hash(), "python": sys.version.split()[0]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="pretrain, supervise or analyze")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # before numpy is imported, which reads these once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in record["rates"].items():
        print(f"rate {name} {value:.6g}")
    print(f"rounds {record['rounds']}; environment {json.dumps(record['environment'])}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**vars(args), **record}, indent=2) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
