"""Run one causeway benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory. The run repeats passes of the workload
for ``--seconds`` seconds (and at least ``MIN_PASSES``), checking every
pass's outputs; it starts no pass that would end past that time. Every
timed call runs between two runs of a fixed reference task
(``reference.py``), so that the call's time can be given relative to the
host's speed at that moment (``wall_ref``). It prints a readable table,
then one ``report`` line of JSON with everything measured, then the
result line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones plus the tracing overhead (``wall_ref`` of the traced passes minus
that of the untraced ones), and writes the spans to ``.bench_work/``. The exit
code is 0 when every check passed, 1 when one failed and 2 when the run
could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"
MIN_PASSES = 4

# Workload-specific end-to-end metrics, reported by name in the report line.
# The result line carries only BENCHMARK.json's end_to_end metrics, which
# every workload has.
WORKLOAD_METRICS = {
    "sweep": ["classify_per_s"],
    "cli-session": ["retrieve_p50_ms", "retrieve_p95_ms", "classify_p50_ms",
                    "ingest_p50_ms", "embed_p50_ms"],
    "grow-and-query": ["retrieve_p50_ms", "retrieve_p95_ms", "write_events_per_s"],
}
UNITS = {"setup_s": "s", "wall_ref": "ref", "wall_s": "s", "failed_ratio": "ratio",
         "peak_rss_mb": "MB",
         "classify_per_s": "1/s", "retrieve_p50_ms": "ms", "retrieve_p95_ms": "ms",
         "classify_p50_ms": "ms", "ingest_p50_ms": "ms", "embed_p50_ms": "ms",
         "write_events_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "cli-session", "grow-and-query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def p95(samples: list[float]) -> float | None:
    """95th percentile, or None while fewer than ten samples lie beyond it."""
    from tracer import P95_MIN_SAMPLES

    if len(samples) < P95_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=20)[18]


def op_metrics(workload: str, samples: dict[str, list[float]]) -> dict[str, dict]:
    """Workload-specific end-to-end metrics, each with its sample count."""
    ms = lambda key: [v * 1000 for v in samples.get(key, [])]  # noqa: E731
    write_s = sum(samples.get("ingest", [])) + sum(samples.get("embed", []))
    sources = {
        "classify_per_s": (samples.get("classify_rate", []), statistics.median),
        "retrieve_p50_ms": (ms("retrieve"), statistics.median),
        "retrieve_p95_ms": (ms("retrieve"), p95),
        "classify_p50_ms": (ms("classify"), statistics.median),
        "ingest_p50_ms": (ms("ingest"), statistics.median),
        "embed_p50_ms": (ms("embed"), statistics.median),
        "write_events_per_s": (samples.get("write_events", []), lambda ev: sum(ev) / write_s),
    }
    out = {}
    for name in WORKLOAD_METRICS[workload]:
        values, stat = sources[name]
        out[name] = {"value": stat(values) if values else None, "unit": UNITS[name],
                     "n": len(values)}
    return out


def best_pass_s(passes: list[list[float]]) -> float:
    """Seconds of a pass with every call at its fastest over the run's passes.

    Every pass makes the same calls in the same order (a call that raises is
    timed too). On a shared host a call's time varies by a third from one
    repeat to the next, and the host's speed drifts over minutes; a call's
    minimum over a run's passes follows that drift least, and a change to
    the program still moves it.
    """
    return sum(min(column) for column in zip(*passes, strict=True))


def pass_in_refs(passes: list[list[float]], refs: list[list[float]]) -> float:
    """A pass's calls in units of the reference task.

    Each call's seconds are divided by those of the reference task run just
    before and after it, so that a stretch in which the host runs everything
    slower cancels out, and a change to the program still moves the ratio.
    A call's ratio is taken at its median over the run's passes, and the
    medians are summed over the calls of a pass.
    """
    ratios = [[c / r for c, r in zip(calls, rs, strict=True)]
              for calls, rs in zip(passes, refs, strict=True)]
    return sum(statistics.median(column) for column in zip(*ratios, strict=True))


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, Ledger, Sizes

    ledger = Ledger()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    tracer = Tracer() if trace else None
    setups, passes, traced_passes, refs, traced_refs = [], [], [], [], []
    try:
        wl = WORKLOADS[workload](seed, sizes or Sizes(), workdir, ledger)
        started = perf_counter()
        index, durations = 0, []
        while True:
            state = None
            gc.collect()
            begin = perf_counter()
            state = wl.setup()
            setups.append(perf_counter() - begin)
            traced = tracer is not None and index % 2 == 1
            if traced:  # end-to-end samples come from untraced passes only
                untraced_samples, ledger.samples = ledger.samples, {}
                tracer.install()
                wl.tracer = tracer
            ledger.pass_calls, ledger.pass_refs = [], []
            try:
                wl.run_pass(state, index)
            finally:
                if traced:
                    tracer.uninstall()
                    wl.tracer = None
                    ledger.samples = untraced_samples
            (traced_passes if traced else passes).append(ledger.pass_calls)
            (traced_refs if traced else refs).append(ledger.pass_refs)
            index += 1
            now = perf_counter()
            durations.append(now - begin)
            # the first pass also works out the expected outputs
            if index >= MIN_PASSES and now + max(durations[1:]) > started + seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "setup_s": {"value": min(setups), "unit": "s", "n": len(setups)},
        "wall_s": {"value": best_pass_s(passes), "unit": "s", "n": len(passes)},
        "wall_ref": {"value": pass_in_refs(passes, refs), "unit": "ref", "n": len(passes)},
        "failed_ratio": {"value": ledger.failed / max(ledger.attempted, 1), "unit": "ratio",
                         "n": ledger.attempted},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "n": 1},
        **op_metrics(workload, ledger.samples),
    }
    report = {"workload": workload, "seed": seed, "trace": bool(trace),
              "passes": len(passes) + len(traced_passes), "pass_walls": list(map(sum, passes)),
              "reference_ms": statistics.median(r for rs in refs for r in rs) * 1000,
              "elapsed_s": perf_counter() - started, "end_to_end": e2e,
              "problems": ledger.problems}
    if tracer is not None:
        traced_wall = best_pass_s(traced_passes)
        per_layer = tracer.layer_metrics(len(traced_passes),
                                         wl.sentences_per_pass() * len(traced_passes),
                                         pass_in_refs(traced_passes, traced_refs)
                                         - e2e["wall_ref"]["value"])
        report.update(per_layer=per_layer, trace_summary=tracer.summary(),
                      traced_wall_s=traced_wall,
                      layer_map=json.loads((BENCH / "layer_map.json").read_text()))
        spans_path = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        # the result line needs a number for every per-layer metric: a metric
        # the report line gives as null (not measured here) reads 0 in it
        metrics = {m["name"]: {"value": per_layer[m["name"]] or 0.0, "unit": m["unit"]}
                   for m in _benchmark()["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in _benchmark()["end_to_end"]}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return {"report": report, "result": result}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def print_table(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']}  trace {int(report['trace'])}")
    for name, unit in UNITS.items():
        entry = report["end_to_end"].get(name)
        if entry is None:
            print(f"  {name:<20} n/a (not measured on this workload)")
        elif entry["value"] is None:
            print(f"  {name:<20} n/a (only {entry['n']} samples)")
        else:
            print(f"  {name:<20} {entry['value']:.6g} {unit}  (n={entry['n']})")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<34} " + ("n/a (no such call, or too few samples)" if value is None
                                  else f"{value:.6g}"))
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "causeway" / "__init__.py").is_file():
        print(f"error: no causeway sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(out["report"])
    print("report " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
