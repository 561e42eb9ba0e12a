"""Benchmark of gatedlora's continual runs.

Run from the repository root:

    python3 bench/run.py --workload gpm-inflora --seed 0 --seconds 30 --trace 0

Workloads are defined in workloads.py, the layer -> end-to-end
predictions in predictions.json. A run with --seed n builds the inputs of
workload seeds n*k .. n*k+k-1 (k = the workload's `inputs`). Benchmark
seeds 0-19 were used while the benchmark was tuned; --seed 1000 is held
out for confirming later claims.

With --trace 0 the run measures, with tracing off:
  run_s          seconds of one `run_sequence(..., sequence=prebuilt)`:
                 the median over repeats of each input, averaged over
                 the run's inputs
  setup_s        median seconds to build the reference seed's input
                 (backbone + task sequence through `build_task_sequence`),
                 set up repeatedly between the timed runs
  peak_rss_mb    peak resident memory of the benchmark process
  ap             mean final accuracy (%) of the reference seed
  gate_leak_mean mean gate output on older tasks' test inputs, reference seed

run_s and setup_s are wall times scaled by the host probe (hostprobe.py)
to a host of fixed speed: the 2-vCPU shared host the benchmark was made
on changed speed by up to 2x within a minute, which no run length the
time budget allows averages out. The unscaled wall times are printed on
the line before the result.

Quality metrics come from the reference seed (0), so they do not move
with --seed; its run is also the warm-up that keeps the first, slower
run in a process out of run_s, and its outputs are checked against
reference.json. Forgetting is 0 on gpm-inflora, so it is reported with
the per-layer metrics (reference.ft) and held to reference.json. Every
timed run is checked for well-formed outputs, the workload's limits and
repeat-to-repeat identical summaries.

With --trace 1 a traced run of the first input gives per-layer calls,
self and total times, work counts and the tracing overhead; its
summary must equal the untraced run's.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted counts input builds and `run_sequence` calls and failed
counts the ones that raised (each is printed with its exception class).
"""

import os

# One BLAS thread, set before numpy loads: all load comes from this one
# process, and a second BLAS thread spinning on a shared 2-vCPU machine
# made single runs several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median of at least SETUP_REPEATS set-ups of the reference
# seed's inputs, spread over the timed window until they add up to
# SETUP_SECONDS. The set-up of the run's own inputs is not used: it varies
# up to 90-fold from seed to seed on gpm-inflora, with the generator's luck.
SETUP_SECONDS = 4.0
SETUP_REPEATS = 9

# Per-layer metrics of the traced run, in report order. A name ending in
# .calls, .self_s or .total_s reads that span's statistics, per traced run;
# "<layer>.self_s" sums the self time of every span of a layer module.
SPAN_METRICS = [
    "numerics.sym_eig.calls",
    "numerics.sym_eig.self_s",
    "subspace.extend.self_s",
    "subspace.SubspaceMemory.extend_all.total_s",
    "adapter.inflora_design.self_s",
    "gating.constrain_update.calls",
    "gating.constrain_update.self_s",
    "autodiff.backward.calls",
    "autodiff.backward.self_s",
    "autodiff.softmax_cross_entropy.self_s",
    "optim.AdamW.step.calls",
    "optim.AdamW.step.self_s",
    "model.ToyBackbone.forward_node.self_s",
    "gating.GatingBank.coefficient_nodes.self_s",
    "gating.GatingModule.forward_node.self_s",
    "adapter.AdaptedLinear.forward_node.self_s",
    "adapter.olora_penalty_node.self_s",
    "gating.GatingModule.forward_values.calls",
    "gating.GatingModule.forward_values.self_s",
    "gating.GatingBank.coefficient_values.total_s",
    "model.ToyBackbone.pool_batch.total_s",
    "gating.pool_embed.calls",
    "gating.pool_embed.self_s",
    "model.ToyBackbone.forward_values.self_s",
    "adapter.AdaptedLinear.forward_values.self_s",
    "continual.evaluate.calls",
    "continual.evaluate.total_s",
    "continual.learn_task.self_s",
    "continual.learn_task.total_s",
    "continual.collect_gate_samples.total_s",
    "continual.run_sequence.total_s",
]
OTHER_METRICS = {
    # name: unit
    "gating.GatingModule.forward_values.columns": "count",
    "model.ToyBackbone.pool_batch.seqs": "count",
    "subspace.gate_rank": "count",
    "subspace.grad_rank": "count",
    "subspace.orthonormality_defect_max": "1",
    "model.build_task_sequence.total_s": "s",
    "model.generate_task.self_s": "s",
    "model.generate_task.candidates": "count",
    "model.generate_task.accept_ratio": "1",
    "reference.ft": "pp",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    from spans import LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in SPAN_METRICS:
        units[name] = "count" if name.endswith(".calls") else "s"
    units.update(OTHER_METRICS)
    return units


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info(np) -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    return info


def environment(np) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Operations attempted, the ones that raised, and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, what: str, fn, *args):
        """Call fn(*args) as one operation; None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # recorded and counted, never dropped
            self.failed += 1
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", flush=True)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, problems: list[str]) -> None:
        for p in problems:
            self.problems.append(f"{what}: {p}")
            print(f"CHECK FAILED {what}: {p}", flush=True)

    @property
    def correct(self) -> bool:
        """No operation raised and every check passed."""
        return not self.problems


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def reference_run(wl, workload, ledger):
    """Untimed warm-up on the reference seed; its checked summary."""
    recorded = wl.load_reference()[workload.name]
    built = ledger.attempt("reference set-up", wl.build_inputs, workload, wl.REFERENCE_SEED)
    if built is None:
        return None
    result = ledger.attempt(
        "reference run", wl.run, workload, wl.REFERENCE_SEED, built[1]
    )
    if result is None:
        return None
    summary = wl.summarize(result)
    ledger.check(
        "reference",
        wl.check_structure(workload, result) + wl.check_reference(summary, recorded),
    )
    summary["digest_matches_recorded"] = summary["digest"] == recorded["digest"]
    print(json.dumps({"reference": summary}), flush=True)
    return summary


def check_timed(wl, workload, ledger, seed, result, digests) -> None:
    summary = wl.summarize(result)
    if seed in digests:
        if summary["digest"] != digests[seed]:
            ledger.check(f"seed {seed}", ["summary differs between repeats"])
        return
    digests[seed] = summary["digest"]
    ledger.check(
        f"seed {seed}",
        wl.check_structure(workload, result) + wl.check_sanity(workload, summary),
    )
    print(json.dumps({"input": dict(summary, seed=seed)}), flush=True)


def measure(wl, workload, seed: int, seconds: float, ledger) -> dict:
    """End-to-end metrics, tracing off, timed under the host probe."""
    from hostprobe import HostProbe

    def set_up(s: int):
        gc.collect()
        built, wall, dt = probe.timed(
            ledger.attempt, f"set-up seed {s}", wl.build_inputs, workload, s
        )
        return (None if built is None else built[1]), wall, dt

    inputs, input_setup_walls = [], []
    setup_times, setup_walls = [], []

    def time_reference_setup() -> None:
        sequence, wall, dt = set_up(wl.REFERENCE_SEED)
        if sequence is not None:
            setup_times.append(dt)
            setup_walls.append(wall)

    with HostProbe() as probe:
        for s in workload.input_seeds(seed):
            sequence, wall, _ = set_up(s)
            if sequence is not None:
                inputs.append((s, sequence))
                input_setup_walls.append(wall)
        # Run last before timing, so the process is warm when timing starts.
        reference = reference_run(wl, workload, ledger)
        times: dict[int, list[float]] = {s: [] for s, _ in inputs}
        walls: dict[int, list[float]] = {s: [] for s, _ in inputs}
        digests: dict[int, str] = {}
        start = time.perf_counter()
        i = 0
        while inputs and (i < len(inputs) or time.perf_counter() - start < seconds):
            s, sequence = inputs[i % len(inputs)]
            i += 1
            gc.collect()
            result, wall, dt = probe.timed(
                ledger.attempt, f"run seed {s}", wl.run, workload, s, sequence
            )
            if result is not None:
                times[s].append(dt)
                walls[s].append(wall)
                check_timed(wl, workload, ledger, s, result, digests)
            # Set-ups are spread over the timed window, like the runs.
            if sum(setup_walls) < SETUP_SECONDS:
                time_reference_setup()
        for _ in range(SETUP_REPEATS - len(setup_times)):
            time_reference_setup()
    per_input = [statistics.median(ts) for ts in times.values() if ts]
    print(
        json.dumps(
            {
                "run_s_by_seed": times,
                "run_wall_s_by_seed": walls,
                "setup_s_all": setup_times,
                "setup_wall_s_all": setup_walls,
                "input_setup_wall_s": input_setup_walls,
                "probe_ms_median": probe.median_ms(),
                "probe_samples": len(probe.samples),
            }
        ),
        flush=True,
    )
    if reference is None or not per_input or not setup_times:
        return {}
    return {
        "run_s": (statistics.fmean(per_input), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ap": (reference["ap"], "%"),
        "gate_leak_mean": (reference["gate_leak_mean"], "1"),
    }


def observe_learn_task(tracer, args, result) -> None:
    state = args[0]
    memories = {"gate": state.gate_memory, "grad": state.grad_memory}
    for key, memory in memories.items():
        tracer.gauges[f"{key}_rank"] = sum(b.rank for b in memory.layers)
    defect = max(b.orthonormality_defect() for m in memories.values() for b in m.layers)
    tracer.gauges["defect_max"] = max(tracer.gauges.get("defect_max", 0.0), defect)


def observe_generate_task(tracer, args, result) -> None:
    tracer.counts["accepted"] += len(result.train) + len(result.test)


def observe_forward_values(tracer, args, result) -> None:
    tracer.counts["columns"] += result[0].size


def observe_pool_batch(tracer, args, result) -> None:
    tracer.counts["seqs"] += result.shape[1]


def measure_traced(wl, workload, seed: int, seconds: float, ledger) -> dict:
    """Per-layer metrics from traced runs of the run's first input."""
    from spans import Tracer

    s = workload.input_seeds(seed)[0]
    setup = Tracer()
    setup.observers["model.generate_task"] = observe_generate_task
    with setup:
        built = ledger.attempt(f"set-up seed {s}", wl.build_inputs, workload, s)
    reference = reference_run(wl, workload, ledger)
    if built is None or reference is None:
        return {}
    sequence = built[1]
    tracer = Tracer()
    tracer.observers.update(
        {
            "continual.learn_task": observe_learn_task,
            "gating.GatingModule.forward_values": observe_forward_values,
            "model.ToyBackbone.pool_batch": observe_pool_batch,
        }
    )
    overheads = []
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        plain, t_plain = timed(ledger.attempt, f"run seed {s}", wl.run, workload, s, sequence)
        with tracer:
            traced, t_traced = timed(
                ledger.attempt, f"traced run seed {s}", wl.run, workload, s, sequence
            )
        if plain is None or traced is None:
            break
        overheads.append(t_traced - t_plain)
        if wl.digest(traced) != wl.digest(plain):
            ledger.check(f"seed {s}", ["traced summary differs from untraced"])
        if len(overheads) == 1:
            ledger.check(f"seed {s}", wl.check_structure(workload, traced))
    if not overheads:
        return {}
    n = len(overheads)
    units = metric_units()
    values = {f"{layer}.self_s": t / n for layer, t in tracer.layer_self_s().items()}
    for name in SPAN_METRICS:
        span, _, field = name.rpartition(".")
        st = tracer.stats.get(span)
        values[name] = getattr(st, field) / n if st is not None else 0.0
    gen = setup.stats.get("model.generate_task")
    candidates = setup.edges[("model.generate_task", "gating.pool_embed")]
    values.update(
        {
            "gating.GatingModule.forward_values.columns": tracer.counts["columns"] / n,
            "model.ToyBackbone.pool_batch.seqs": tracer.counts["seqs"] / n,
            "subspace.gate_rank": tracer.gauges.get("gate_rank", 0),
            "subspace.grad_rank": tracer.gauges.get("grad_rank", 0),
            "subspace.orthonormality_defect_max": tracer.gauges.get("defect_max", 0.0),
            "model.build_task_sequence.total_s": setup.stats["model.build_task_sequence"].total_s,
            "model.generate_task.self_s": gen.self_s,
            "model.generate_task.candidates": candidates,
            "model.generate_task.accept_ratio": setup.counts["accepted"] / max(candidates, 1),
            "reference.ft": reference["ft"],
            "trace.overhead_s": statistics.median(overheads),
            "trace.spans": sum(st.calls for st in tracer.stats.values()) / n,
        }
    )
    print(
        json.dumps(
            {
                "traced_runs": n,
                "spans": {
                    name: [st.calls / n, st.total_s / n, st.self_s / n]
                    for name, st in sorted(
                        tracer.stats.items(), key=lambda kv: -kv[1].self_s
                    )
                    if st.calls
                },
            }
        ),
        flush=True,
    )
    return {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gatedlora" / "__init__.py").is_file():
        print(f"no gatedlora sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    print(json.dumps({"env": environment(np), "workload": args.workload, "seed": args.seed}), flush=True)

    ledger = Ledger()
    measure_fn = measure_traced if args.trace else measure
    metrics = measure_fn(wl, workload, args.seed, args.seconds, ledger)
    if not metrics:
        print("no measurement completed: " + "; ".join(ledger.problems), file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
