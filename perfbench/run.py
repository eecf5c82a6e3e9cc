#!/usr/bin/env python3
"""sharc benchmark: drive the sharc CLI on one seeded workload.

    python3 perfbench/run.py --workload embed_heavy --seed 1 --seconds 60 --trace 0

--trace 0 times the real CLI, one subprocess per command, in rounds of the
seven-command session for about --seconds, and reports the median of each
end-to-end metric. Each call's times are scaled to the reference host speed
by the host-speed probes (hostspeed.py) run just before and after it; the
unscaled medians are printed beside them. --trace 1 runs the scoring ladder, then alternates
untraced and traced in-process sessions, all within about --seconds, and
reports the per-layer metrics. Every round's outputs are checked against scalar oracles
and byte-compared with the first round; a failed command, check or comparison
counts as a failed operation. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Workload definitions live in
workloads.py; see README.md for the metric list.
"""

import os

# pin BLAS before numpy loads, here and in every child process: --threads is
# then the only parallelism a run uses
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import hostspeed
from ladder import run_ladder
from tracing import Tracer
from workloads import COMMANDS, DATA_DIRS, DEFAULT_SEED, MAIN_CONFIG, MAIN_DATA, SIDE_CONFIG, SIDE_DATA, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_ROUNDS = 3
MIN_TRACED = 1
STARTUP_SAMPLES = 3
PROBES_PER_CALL = 6
# a call's host scale comes from the probes of the calls this many places either side of it
SCALE_WINDOW = 5
COMMAND_TIMEOUT_S = 30.0
CLI = "import sys; from sharc.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END_UNITS = {
    "setup_s": "s",
    "enroll_tracklets_per_s": "1/s",
    "query_tracklets_per_s": "1/s",
    "evaluate_s": "s",
    "ablate_gamma_s": "s",
    "ablate_alpha_s": "s",
    "train_toy_s": "s",
    "session_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}
# evaluate, the command with the least work, repeats within a round, so that
# its median rests on more samples
REPEATS = {"evaluate": 2}
PER_COMMAND_TIME = {"synth": "setup_s", "evaluate": "evaluate_s", "ablate-gamma": "ablate_gamma_s",
                    "ablate-alpha": "ablate_alpha_s", "train-toy": "train_toy_s"}

# per-layer metric -> span whose self time it reports
SPAN_METRICS = {
    f"{span}_s": span
    for span in (
        "synth.generate_dataset", "synth.write_dataset", "synth.load_dataset",
        "encoders.encode_silhouette", "encoders.encode_smpl",
        "encoders.encode_skeleton_sequence", "encoders.encode_appearance",
        "shape.embed", "shape.fuse_pose", "shape.temporal_pool_pose", "shape.motion_bin",
        "core.strip_pool",
        "gallery.AppearanceModel.embed_tracklet", "appearance.pyramid_aggregate",
        "appearance.average_aggregate", "appearance.flatten_feature", "appearance.mean_embedding",
        "gallery.tracklet_embeddings", "gallery.register", "gallery.save_index", "gallery.load_index",
        "matcher.shape_scores", "matcher.appearance_scores", "matcher.fuse_scores", "matcher.rank",
        "matcher.write_csv", "matcher.read_csv",
        "metrics.evaluate_ranking", "losses.train_toy", "losses.numerical_gradient",
        "config.parse_config",
    )
}
SPAN_METRICS["cli.self_s"] = "cli"  # the root span of each command
COUNT_METRICS = (
    "synth.bytes_written", "synth.bytes_read", "synth.tracklets_loaded", "encoders.frames_encoded",
    "shape.embed.calls", "appearance.pyramid_aggregate.calls", "gallery.tracklet_embeddings.calls",
    "gallery.chunk_frames.groups", "gallery.index_bytes", "matcher.pairs_scored",
    "core.cosine_similarity.calls", "core.euclidean_distance.calls", "core.as_vector.calls",
    "metrics.cmc.calls", "metrics.average_precision.calls", "config.build_appearance_model.calls",
)
COUNT_UNITS = {"synth.bytes_written": "bytes", "synth.bytes_read": "bytes", "gallery.index_bytes": "bytes"}


class Ledger:
    """Attempted and failed operations, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], cwd: Path, log: Path, env: dict) -> tuple[int, float, float, int]:
    """(exit code, wall s, user+system CPU s, peak RSS bytes) of one command."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *args], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024


def tail(path: Path) -> str:
    try:
        return path.read_text().strip().splitlines()[-1][:200]
    except (OSError, IndexError):
        return ""


def check_session(work: Path, reference: dict | None, ledger: Ledger, label: str) -> dict:
    """Output checks plus the byte comparison with the first round."""
    for name, problems in checks.run_output_checks(str(work / MAIN_DATA), str(work / SIDE_DATA)).items():
        ledger.record(f"{label} {name}", problems)
    snap = checks.snapshot(str(work), DATA_DIRS)
    if reference is not None:
        diff = checks.snapshot_diff(reference, snap)
        ledger.record(f"{label} byte-identical to round 1", [f"differs: {diff[:5]}"] if diff else [])
    return snap


def make_side_dataset(work: Path, env: dict, ledger: Ledger) -> None:
    """Untimed: synthesize the side dataset the sweep commands read."""
    code, *_ = run_cli(["synth", "--config", SIDE_CONFIG], work, work / "command.log", env)
    ledger.record("side synth", [f"exit {code}: {tail(work / 'command.log')}"] if code else [])


def probe_batch() -> list[float]:
    return [hostspeed.probe() for _ in range(PROBES_PER_CALL)]


def timed_round(work: Path, workload: Workload, threads: int, env: dict, ledger: Ledger,
                label: str) -> list[tuple[str, float, float, int, float]]:
    """One pass of the commands from an empty main data directory:
    (command, wall s, CPU s, peak RSS bytes, probe s) of each call, where
    probe s is the median of the host-speed probes run just before and just
    after the call."""
    shutil.rmtree(work / MAIN_DATA, ignore_errors=True)
    timings = []
    before = probe_batch()
    for command in COMMANDS:
        for _ in range(REPEATS.get(command, 1)):
            code, wall, used, peak = run_cli(
                [command, "--config", workload.config_for(command), "--threads", str(threads)],
                work, work / "command.log", env)
            after = probe_batch()
            ledger.record(f"{label} {command}", [f"exit {code}: {tail(work / 'command.log')}"] if code else [])
            timings.append((command, wall, used, peak, statistics.median(before + after)))
            before = after
    return timings


def host_scales(timings: list) -> list[float]:
    """Each call's host scale: REFERENCE_S over the median probe time of the
    calls within SCALE_WINDOW places of it, in the run's order."""
    probes = [t[4] for t in timings]
    return [hostspeed.REFERENCE_S / statistics.median(probes[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1])
            for i in range(len(probes))]


def metric_samples(work: Path, timings: list, scales: list[float]) -> dict[str, list[float]]:
    """End-to-end metric -> its samples, from every timed call of the run,
    each call's times multiplied by its scale."""
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    for (command, wall, used, *_), scale in zip(timings, scales):
        walls.setdefault(command, []).append(wall * scale)
        cpus.setdefault(command, []).append(used * scale)
    samples = {PER_COMMAND_TIME[c]: walls[c] for c in PER_COMMAND_TIME}
    data = work / MAIN_DATA
    try:
        n_gallery = checks.count_rows(str(data / "gallery.csv"))
        n_query = checks.count_rows(str(data / "query.csv"))
    except (OSError, ValueError):
        n_gallery = n_query = 0
    samples["enroll_tracklets_per_s"] = [n_gallery / w for w in walls["enroll"]]
    samples["query_tracklets_per_s"] = [n_query / w for w in walls["query"]]
    # one pass of the seven commands, each at its median over the run
    samples["session_s"] = [sum(statistics.median(w) for w in walls.values())]
    samples["cpu_s"] = [sum(statistics.median(c) for c in cpus.values())]
    samples["peak_rss_mb"] = [max(t[3] for t in timings) / 1e6]
    samples["disk_mb"] = [checks.tree_bytes(str(work), DATA_DIRS) / 1e6]
    return samples


def thread_check(work: Path, env: dict, ledger: Ledger) -> None:
    """Untimed: enroll and query at --threads 1 must match the threaded round byte for byte."""
    for command in ("enroll", "query"):
        code, *_ = run_cli([command, "--config", MAIN_CONFIG, "--threads", "1", "--out", "threads1"],
                           work, work / "command.log", env)
        ledger.record(f"threads=1 {command}", [f"exit {code}"] if code else [])
    diff = [name for name in ("index.shrc", "scores_shape.csv", "scores_appearance.csv", "scores_fused.csv")
            if not _same_bytes(work / MAIN_DATA / name, work / "threads1" / name)]
    ledger.record("threads=1 outputs match threaded outputs", [f"differs: {diff}"] if diff else [])


def _same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def end_to_end(work: Path, workload: Workload, threads: int, seconds: float,
               ledger: Ledger) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """End-to-end metric -> its samples, pooled over the rounds: once scaled
    to the reference host speed, once as measured (with the scale of each call)."""
    env = child_env()
    timings, reference, rounds = [], None, 0
    start = time.perf_counter()
    make_side_dataset(work, env, ledger)
    while True:
        rounds += 1
        label = f"round {rounds}"
        timings += timed_round(work, workload, threads, env, ledger, label)
        snap = check_session(work, reference, ledger, label)
        reference = reference or snap
        if rounds == 1 and threads > 1:
            thread_check(work, env, ledger)
        # stop before a round that would end after --seconds, at the mean pace so far
        spent = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and spent * (rounds + 1) / rounds > seconds:
            break
    scales = host_scales(timings)
    raw = metric_samples(work, timings, [1.0] * len(timings))
    raw["host_scale"] = scales
    return metric_samples(work, timings, scales), raw


def inprocess(main, argv: list[str], tracer=None):
    """Exit code of one in-process command, or a note if it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return tracer.run_root(main, argv) if tracer else main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            return f"{argv[0]}: {type(exc).__name__}: {exc}"


def inprocess_session(main, work: Path, workload: Workload, tracer=None) -> tuple[float, list]:
    """One in-process session; exit codes, or a note for a command that raised."""
    shutil.rmtree(work / MAIN_DATA, ignore_errors=True)
    codes = []
    start = time.perf_counter()
    for command in COMMANDS:
        codes.append(inprocess(main, [command, "--config", workload.config_for(command), "--threads", "1"],
                               tracer))
    return time.perf_counter() - start, codes


def traced(work: Path, workload: Workload, seed: int, seconds: float, ledger: Ledger) -> dict[str, list[float]]:
    """Per-layer metric -> its samples: one per traced session (ladder: one per call)."""
    sys.path.insert(0, str(SRC))
    from sharc.cli import main

    start = time.perf_counter()
    samples = run_ladder(seed)
    tracer = Tracer()
    plain, traced_walls, reference, counts0 = [], [], None, None
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = inprocess(main, ["synth", "--config", SIDE_CONFIG])
        ledger.record("side synth", [f"exit {code}"] if code else [])
        while True:
            n = len(traced_walls) + 1
            pair_start = time.perf_counter()
            wall, codes = inprocess_session(main, work, workload)
            plain.append(wall)
            ledger.record(f"untraced session {n}", [f"exit codes {codes}"] if any(codes) else [])
            tracer.reset()
            tracer.install()
            try:
                wall, codes = inprocess_session(main, work, workload, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            label = f"traced session {n}"
            ledger.record(label, [f"exit codes {codes}"] if any(codes) else [])
            ledger.record(f"{label} spans closed and nested", tracer.nesting_problems())
            snap = check_session(work, reference, ledger, label)
            reference = reference or snap
            counts = tracer.counts
            if counts0 is None:
                counts0 = dict(counts)
            else:
                diff = sorted(k for k in set(counts) | set(counts0) if counts.get(k) != counts0.get(k))
                ledger.record(f"{label} counts equal session 1", [f"differ: {diff[:5]}"] if diff else [])
            own = tracer.self_seconds()
            session = {metric: own.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
            session.update({name: counts[name] for name in COUNT_METRICS})
            session["shape.embed.useful_ratio"] = counts["shape.embed.useful"] / max(counts["shape.embed.calls"], 1)
            session["gallery.chunk_frames.fill_ratio"] = (
                counts["gallery.chunk_frames.frames"] / max(counts["gallery.chunk_frames.slots"], 1))
            for metric, value in session.items():
                samples.setdefault(metric, []).append(value)
            spent = time.perf_counter() - pair_start
            if n >= MIN_TRACED and time.perf_counter() - start + spent > seconds:
                break
    finally:
        os.chdir(cwd)
    samples["trace.overhead_ratio"] = [statistics.median(traced_walls) / statistics.median(plain)]
    return samples


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s.n" in name:
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return COUNT_UNITS.get(name, "count")


def startup_seconds() -> float:
    """Median wall time of a child that only imports sharc.cli: the fixed cost in every command's time."""
    walls = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sharc.cli"], env=child_env(), check=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def machine_block(threads: int, startup: float) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cli_threads": threads,
        "startup_s": round(startup, 4),
        "commit": git_commit(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sharc" / "cli.py").is_file():
        print(f"error: no sharc source tree at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    threads = min(workload.threads, os.cpu_count() or 1)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in workload.configs(args.seed).items():
        (work / name).write_text(text)

    startup = startup_seconds()
    ledger = Ledger()
    raw_samples: dict[str, list[float]] = {}
    if args.trace:
        samples = traced(work, workload, args.seed, args.seconds, ledger)
        units = {name: per_layer_unit(name) for name in samples}
    else:
        samples, raw_samples = end_to_end(work, workload, threads, args.seconds, ledger)
        units = END_TO_END_UNITS
    values = {name: statistics.median(samples[name]) for name in units}
    raw = {name: statistics.median(v) for name, v in raw_samples.items()}
    shutil.rmtree(work, ignore_errors=True)

    machine = machine_block(1 if args.trace else threads, startup)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
              "metrics": values, "unscaled": raw, "failures": ledger.failures, "samples": samples,
              "unscaled_samples": raw_samples}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: median of n samples"
          + (", then the median as measured, before host scaling" if raw else ""))
    print("machine " + json.dumps(machine))
    for name, value in values.items():
        unscaled = f" {raw[name]:>14.6g}" if raw else ""
        print(f"  {name:44s} {value:>14.6g} {units[name]:6s} n={len(samples[name])}{unscaled}")
    if raw:
        print(f"  {'host_scale':44s} {raw['host_scale']:>14.6g} {'ratio':6s} n={len(raw_samples['host_scale'])}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    print(f"  fail_ratio {len(ledger.failures)}/{ledger.attempted}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
