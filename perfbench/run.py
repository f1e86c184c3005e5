"""Benchmark entry point for splitmetric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The run makes its inputs from
the seed, repeats passes of its workload for up to ``--seconds`` seconds of
timed work, checks every pass's outputs outside the timed region, and prints a
table followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` passes alternate between an untraced copy of the workload and
a copy with every layer wrapped, and the metrics are the per-layer ones plus
the tracing overhead.  A run record (and with tracing, every span) is
written under ``perfbench/out/``.

The machine's pace is sampled through every timed interval (a pass, a batch
of input builds) by timing a short fixed reference loop that uses nothing of
splitmetric: before and after the interval, and inside a pass every
``PACE_INTERVAL_S`` from a timer signal, whose handler's time is taken off
the pass.  The gated times are the measured ones times ``REFERENCE_S`` over
the loop's median time, so they read as seconds at one fixed machine speed
and the machine's own drift in speed cancels out; the measured times are
printed and recorded beside them.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread and no inherited k-NN thread count, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPLITMETRIC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_BATCHES = 8  # paced batches of input builds before the first pass
SETUP_BATCH = 5  # builds per batch: one per gate corpus seed
TRACED_BUILDS = 5
REFERENCE_S = 0.005  # the reference loop's time at the pace gated times are scaled to
EDGE_SAMPLES = 3  # reference loops before and after each timed interval
PACE_INTERVAL_S = 0.5
RATES = (("train_steps_per_s", "train", "steps/s"), ("eval_anchors_per_s", "eval", "anchors/s"),
         ("mine_anchors_per_s", "mine", "anchors/s"), ("loss_calls_per_s", "loss", "calls/s"))


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _reference_loop() -> None:
    """Fixed pure-Python work that uses nothing of splitmetric: the bytecode
    loop tracks the machine's drift in speed more closely than numpy work."""
    total = 0
    for i in range(60_000):
        total += i * i


class Pace:
    """The machine's pace over a block, as times of the reference loop."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s  # 0: sample only before and after the block
        self.samples: list[float] = []
        self.inside_s = 0.0  # time the timer's samples took from the block

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.inside_s += time.perf_counter() - t0

    def __enter__(self) -> "Pace":
        for _ in range(EDGE_SAMPLES):
            self._sample()
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    @property
    def scale(self) -> float:
        """Factor from times measured in the block to the reference pace."""
        return REFERENCE_S / statistics.median(self.samples)


def _environment(np, seed: int, workload) -> dict:
    sizes = workload.sizes()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "knn_threads": sizes.get("knn_threads", 1),
        "seed": seed,
        "inputs_sha256": workload.inputs_digest(),
        "sizes": sizes,
    }


def _group_walls(passes, scaled: bool = True) -> dict:
    """group -> median wall time of its passes, scaled to the reference pace or as measured."""
    groups: dict = {}
    for p in passes:
        groups.setdefault(p.group, []).append(p.wall * p.scale if scaled else p.wall)
    return {group: statistics.median(walls) for group, walls in groups.items()}


def _wall(passes, scaled: bool = True) -> float:
    """Median pass wall time per group, summed over groups: one round of the workload."""
    return sum(_group_walls(passes, scaled).values())


def _run_passes(sides, tally, seconds: float) -> list:
    """Passes of each (workload, tracer or None) side in turn, one at a time.

    A round (one pass per side) starts while a side is short of its minimum
    passes, or while the round, at the median pass times so far, ends within
    `seconds` of timed passes.  Each pass's pace is sampled (see `Pace`).
    """
    passes = [[] for _ in sides]
    timed = 0.0
    failed = False
    while True:
        short = any(len(done) < workload.min_passes for done, (workload, _) in zip(passes, sides))
        upcoming = sum(statistics.median(p.wall for p in done) for done in passes if done)
        if (failed or not short) and timed + upcoming > seconds:
            break
        for done, (workload, tracer) in zip(passes, sides):
            t0 = time.perf_counter()
            p = None
            try:
                with Pace(PACE_INTERVAL_S) as pace:
                    with nullcontext() if tracer is None else tracer.installed() as segment:
                        p = workload.run_pass(tally)
                if segment is not None:
                    segment.group = p.group
                p.wall -= pace.inside_s
                p.scale = pace.scale
                workload.check_pass(p, tally)
            except Exception:  # the operation in flight, or the check of its output, failed
                if not tally.attempted:
                    tally.op()
                tally.fail(tally.attempted - 1, traceback.format_exc())
            if p is None:
                failed = True
                timed += time.perf_counter() - t0
                continue
            timed += p.wall
            p.outputs.clear()
            done.append(p)
    for workload, _ in sides:
        workload.finish(tally)
    return passes


def _build(workload, repeat: int, tracer=None) -> float:
    """Seconds to make the workload's inputs once."""
    t0 = time.perf_counter()
    if tracer is None:
        workload.make_inputs(repeat)
    else:
        with tracer.installed(tracer.BUILD):
            workload.make_inputs(repeat)
    return time.perf_counter() - t0


def _set_up(make, seed: int) -> tuple:
    """A workload with its inputs made SETUP_BATCHES * SETUP_BATCH times, and
    each build's time as measured and scaled to the reference pace."""
    workload = make(seed, OUT)
    measured, scaled = [], []
    for batch in range(SETUP_BATCHES):
        repeats = range(batch * SETUP_BATCH, (batch + 1) * SETUP_BATCH)
        with Pace(0) as pace:
            times = [_build(workload, r) for r in repeats]
        measured += times
        scaled += [t * pace.scale for t in times]
    return workload, measured, scaled


def _print_table(rows) -> None:
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<42} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splitmetric" / "__init__.py").is_file():
        print(f"error: no splitmetric sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splitmetric
    if Path(splitmetric.__file__).resolve().parent != SRC / "splitmetric":
        print(f"error: imported splitmetric from {splitmetric.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    make = workloads.WORKLOADS[args.workload]
    workload, setup_measured, setup_scaled = _set_up(make, args.seed)

    if not args.trace:
        (measured,) = _run_passes([(workload, None)], tally, args.seconds)
        traced = []
    else:
        # the same inputs twice, passes alternating untraced and traced, so
        # warm-up and machine drift fall on both sides of the overhead alike
        tracer = spans.Tracer()
        twin = make(args.seed, OUT)
        for repeat in range(TRACED_BUILDS):
            _build(twin, repeat, tracer)
        measured, traced = _run_passes([(workload, None), (twin, tracer)], tally, args.seconds)
    passes = measured + traced
    if not measured or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        for note in tally.notes:
            print(note, file=sys.stderr)
        return 1

    rates = {}
    for name, kind, _ in RATES:
        seconds = sum(p.work[kind][0] for p in measured if kind in p.work)
        amount = sum(p.work[kind][1] for p in measured if kind in p.work)
        rates[name] = amount / seconds if seconds else None
    e2e = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (_wall(measured), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    table = [(k, v, u) for k, (v, u) in e2e.items()]
    table += [(f"wall_s.{group}", v, "s") for group, v in _group_walls(measured).items()]
    table += [("measured.setup_s", statistics.median(setup_measured), "s"),
              ("measured.wall_s", _wall(measured, scaled=False), "s"),
              ("pace_scale", statistics.median(p.scale for p in measured), "ratio")]
    table += [(name, rates[name], unit) for name, _, unit in RATES]
    table.append(("error_rate", len(tally.failed) / max(tally.attempted, 1), "ratio"))

    if not args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        untraced_wall, traced_wall = _wall(measured), _wall(traced)
        metrics = spans.per_layer_metrics(tracer, traced_wall - untraced_wall, untraced_wall)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(np, args.seed, workload),
        "reference_s": REFERENCE_S,
        "passes": [{"group": p.group, "traced": traced_pass, "wall_s": p.wall,
                    "pace_scale": p.scale, "work": p.work}
                   for pass_list, traced_pass in ((measured, False), (traced, True))
                   for p in pass_list],
        "setup_times_s": {"measured": setup_measured, "scaled": setup_scaled},
        "end_to_end": {name: {"value": v, "unit": u} for name, v, u in table},
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "failures": tally.notes,
        "metrics": metrics,
    }
    record_file = OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{tally.attempted} operations, {len(tally.failed)} failed")
    _print_table(table)
    if args.trace:
        _print_table((k, m["value"], m["unit"]) for k, m in metrics.items())
    print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                      "failed": len(tally.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
