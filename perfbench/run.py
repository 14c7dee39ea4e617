"""End-to-end defender benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload acso-paper-vec16 --seed 1 --seconds 36 --trace 0

Workloads: ``acso-paper-vec16``, ``playbook-paper-full``, ``ope-small``
(see ``workloads.py``). A run sets the workload up, then runs whole
batches for about ``--seconds`` and checks each. The last timed batch
is the default-seed batch, checked against the committed digest
(``digests.json``), so the check covers a workload that earlier
batches have used. ``setup_s`` is the median of ``SETUP_REPEATS``
set-ups at the start of the run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``steps_per_s`` and ``report_s`` over all batches of the timed phase,
and the mean and p95 of the lockstep round times. ``--trace 1`` runs
one untraced reference batch, then the same batches with every layer
wrapped (``tracer.py``), and reports the per-layer metrics per batch;
it fails if tracing changed a result or if the wrapped layers leave
more than a stated share of the round time to the driver. The last
stdout line is the result object; the lines above it give each
metric's sample count, the run's host metadata and the default-seed
digest it got. The exit code is 0 only if every check passed.

When the results change on purpose, copy the printed
``digest.default_seed`` value into ``digests.json``.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads: the load is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
#: set-ups at the start of a run; a fixed count, because repeated
#: set-ups in one process slow down as they go
SETUP_REPEATS = 5
#: digests.json rounds floats to this many significant digits
DIGEST_DIGITS = 10
#: in a traced run, the driver's own share of the round time (what the
#: wrapped layers leave over) must stay below this
ROUND_TOLERANCE = 0.15
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TMP_DIR = ".perfbench_tmp"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# host metadata
# ----------------------------------------------------------------------
def reference_loop_s() -> float:
    """Time a fixed numpy + interpreter loop; host drift shows in it."""
    import numpy as np

    a = np.random.default_rng(0).random((48, 48))
    start = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        a = np.tanh(a @ a * 0.02)
        for j in range(20):
            acc += (i * j) % 7
    return time.perf_counter() - start


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes when possible."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def host_metadata(args, workload, why: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "why": why,
        "scenario": workload.scenario,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_phase(workload, seed: int, seconds: float, failures: list):
    """Whole batches from ``seed`` for about ``seconds``, the last of
    them the default-seed batch the digest check reads, so that it runs
    on a workload the batches before it have used. A batch from ``seed``
    starts while its expected midpoint, with the default-seed batch
    after it, falls inside the budget. Returns (batches, the
    default-seed batch or None if a batch raised)."""
    from workloads import episode_seed

    batches = []
    start = time.perf_counter()
    while not batches or (time.perf_counter() - start) * (
        1 + 1.5 / len(batches)
    ) < seconds:
        batch = run_checked(workload, episode_seed(seed, len(batches)), failures)
        if batch is None:
            return batches, None
        batches.append(batch)
    canary = run_checked(workload, episode_seed(DEFAULT_SEED, 0), failures)
    if canary is not None:
        batches.append(canary)
    return batches, canary


def run_checked(workload, first_seed: int, failures: list):
    """One batch; a raise or a failed check is recorded in ``failures``."""
    from workloads import LANES

    try:
        batch = workload.run_batch(first_seed)
    except Exception:  # a batch that raises is a failed operation
        traceback.print_exc()
        failures.append((LANES, f"batch seeded {first_seed} raised"))
        return None
    if batch.errors:
        failures.append((batch.episodes, "; ".join(batch.errors)))
    return batch


def add_probe(workload, canary, failures) -> None:
    """The workload's extra digest input, taken untimed and untraced."""
    from workloads import episode_seed

    try:
        canary.probe = workload.probe(episode_seed(DEFAULT_SEED, 0))
    except Exception:  # the probe replays the canary's first episode
        traceback.print_exc()
        failures.append((canary.episodes, "the digest probe raised"))


def set_up(workload, times: list) -> None:
    """Set the workload up SETUP_REPEATS times, keeping the last."""
    for _ in range(SETUP_REPEATS):
        workload.close()
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)


def check_digest(canary, first, args, failures, committed_digest):
    """The default-seed batch, run on the workload the batches before
    it used, against the committed digest and, in a default-seed run,
    bit for bit against the run's first batch, which followed a set-up."""
    from workloads import digest

    probe = [canary.probe] if canary.probe else []
    got = digest(canary.payload + probe, DIGEST_DIGITS)
    if got != committed_digest:
        failures.append((canary.episodes, f"digest {got} != {committed_digest}"))
    if args.seed == DEFAULT_SEED and digest(first.payload) != digest(canary.payload):
        failures.append((canary.episodes, "reusing the workload changed the results"))
    return got


def end_to_end(batches, setup_times):
    """{metric: (value, samples)} of an untraced run."""
    rounds = [r for b in batches for r in b.rounds_ms]
    steps = sum(b.steps for b in batches)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "steps_per_s": (steps / sum(b.step_s for b in batches), steps),
        "round_ms_mean": (statistics.fmean(rounds), len(rounds)),
        "round_ms_p95": (percentile(rounds, 95), len(rounds)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "report_s": (statistics.mean(b.report_s for b in batches), len(batches)),
    }


def per_layer(tracer, batches, reference):
    """{metric: (value, samples)} of a traced run, per batch."""
    from tracer import SPAN_LAYERS

    n = len(batches)
    rounds = [r for b in batches for r in b.rounds_ms]
    round_s = sum(rounds) / 1e3
    # the driver's own time inside the rounds: what the wrapped layers
    # leave of each round, by the round clock's independent time stamps
    bookkeeping_s = round_s - sum(r for b in batches for r in b.rounds_inner_ms) / 1e3
    out = {
        "eval.runner.self_s": (bookkeeping_s / n, len(rounds)),
        "eval.runner.outside_rounds_s": (
            (tracer.self_s["eval.runner"] - bookkeeping_s) / n,
            n,
        ),
    }
    for layer in SPAN_LAYERS:
        if layer == "eval.runner":
            continue
        if layer == "validation.suite":
            out[f"{layer}.self_s"] = (tracer.self_s[layer] / n, n)
        else:
            out[f"{layer}_s"] = (tracer.self_s[layer] / n, n)
            out[f"{layer}_calls"] = (tracer.calls[layer] / n, n)
    calls = tracer.calls["rl.qnetwork.forward"]
    rows = tracer.counts["rl.qnetwork.rows"]
    out["rl.qnetwork.forward_rows"] = (rows / calls if calls else 0.0, calls)
    lane_steps = tracer.counts["sim.lane_steps"]
    oracle = tracer.counts["sim.engine.oracle_lane_steps"]
    empty = tracer.counts["sim.empty_actions"]
    out["sim.lane_steps"] = (lane_steps / n, n)
    out["sim.engine.oracle_lane_steps"] = (oracle / n, n)
    if lane_steps:
        out["sim.fast_path_share"] = ((lane_steps - oracle) / lane_steps, lane_steps)
        out["sim.empty_action_share"] = (empty / lane_steps, lane_steps)
    else:
        out["sim.fast_path_share"] = out["sim.empty_action_share"] = (0.0, 0)
    trace_bytes = sum(b.trace_bytes for b in batches)
    out["validation.tracestore.bytes"] = (trace_bytes / n, n)
    out["validation.tracestore.shards"] = (sum(b.trace_shards for b in batches) / n, n)
    steps = sum(b.steps for b in batches)
    out["trace.steps_per_s"] = (steps / sum(b.step_s for b in batches), steps)
    out["trace.overhead_ratio"] = (batches[0].wall_s / reference.wall_s, 1)
    out["trace.runner_round_share"] = (bookkeeping_s / round_s, len(rounds))
    return out


def check_trace(tracer, metrics, batches, reference, failures):
    """The traced run's own invariants. The round clock stamps every
    ``venv.step`` return apart from the tracer, so the layers' self time
    inside a round can be checked against the round's own length."""
    from workloads import digest

    negative = [k for k, v in tracer.self_s.items() if v < -1e-6]
    if metrics["eval.runner.outside_rounds_s"][0] < -1e-6:
        negative.append("eval.runner.outside_rounds")
    if negative:
        failures.append((0, f"negative self time in {negative}"))
    overfull = sum(
        inner > length * (1 + 1e-9) + 1e-6
        for b in batches
        for inner, length in zip(b.rounds_inner_ms, b.rounds_ms)
    )
    if overfull:
        failures.append((0, f"{overfull} rounds hold more layer time than they last"))
    share = metrics["trace.runner_round_share"][0]
    if not 0.0 <= share <= ROUND_TOLERANCE:
        message = (
            f"the wrapped layers leave {share:.1%} of the traced round time "
            f"to the driver (tolerance {ROUND_TOLERANCE:.0%})"
        )
        failures.append((0, message))
    if digest(batches[0].payload) != digest(reference.payload):
        failures.append((batches[0].episodes, "tracing changed the batch's results"))


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def declared(spec: dict, trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for a mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(values: dict, units: dict) -> list[str]:
    problems = [f"bad metric name {k!r}" for k in values if not NAME_RE.fullmatch(k)]
    missing = sorted(set(units) - set(values))
    undeclared = sorted(set(values) - set(units))
    if missing or undeclared:
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {undeclared}"
        )
    return problems


def check_predictions(spec: dict) -> list[str]:
    """Every name in predictions.json is a declared metric or workload."""
    with open(HERE / "predictions.json", encoding="utf-8") as handle:
        table = json.load(handle)["predictions"]
    layers = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    for row in table:
        for name in row["layer"]:
            if name not in layers:
                problems.append(f"predictions: unknown layer metric {name}")
        for name in row["moves"]:
            if name not in e2e:
                problems.append(f"predictions: unknown metric {name}")
        for name in row["on"] + row["flat_on"]:
            if name not in workloads:
                problems.append(f"predictions: unknown workload {name}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS, episode_seed, make_workload

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        committed = json.load(handle)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}: {WORKLOADS}", file=sys.stderr)
        return 2

    tmp_root = ROOT / TMP_DIR
    tmp_root.mkdir(exist_ok=True)
    workload = make_workload(args.workload, str(tmp_root))
    failures: list[tuple[int, str]] = []
    setup_times: list[float] = []
    reference = canary = None
    batches: list = []
    try:
        reference_start = reference_loop_s()
        set_up(workload, setup_times)
        if args.trace:
            reference = run_checked(workload, episode_seed(args.seed, 0), failures)
            tracer = Tracer()
            tracer.install()
            workload.clock.layer_s = tracer.inner_s
            try:
                batches, canary = run_phase(
                    workload, args.seed, args.seconds, failures
                )
            finally:
                tracer.restore()
                workload.clock.layer_s = None
        else:
            batches, canary = run_phase(workload, args.seed, args.seconds, failures)
        if canary is not None:
            add_probe(workload, canary, failures)
        reference_end = reference_loop_s()
    finally:
        workload.close()
        shutil.rmtree(tmp_root, ignore_errors=True)

    if canary is None or not batches or (args.trace and reference is None):
        print("\n".join(text for _, text in failures), file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(tracer, batches, reference)
        check_trace(tracer, values, batches, reference, failures)
    else:
        values = end_to_end(batches, setup_times)
    committed_digest = committed.get(workload.name)
    first = reference or batches[0]
    got = check_digest(canary, first, args, failures, committed_digest)
    units = declared(spec, args.trace)
    problems = check_names(values, units) + check_predictions(spec)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, samples) in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<9} n={samples}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    detail = {
        "metadata": host_metadata(args, workload, why),
        "host_reference_s": {"start": reference_start, "end": reference_end},
        "batches": len(batches),
        "setup_s_samples": setup_times,
        # the median round flips between the host's fast and slow modes
        # from run to run, so it is shown here and not gated
        "round_ms_p50": percentile([r for b in batches for r in b.rounds_ms], 50),
        "samples": {name: samples for name, (_, samples) in values.items()},
        "digest": {"default_seed": got, "committed": committed_digest},
        "failures": [text for _, text in failures],
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    attempted = sum(b.episodes for b in [reference, *batches] if b)
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": min(attempted, sum(count for count, _ in failures)),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
