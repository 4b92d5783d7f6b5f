"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 bench/steadiness.py --seeds 1-10 --out spread.json [--traced]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, and prints for every end-to-end metric the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound. A spread above a third of the bound is flagged. The
workload-specific metrics of the report line are summarised the same
way, without a bound. ``--traced`` adds one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """The result line and the report line of one run."""
    command = bench["command"]
    program = sys.executable if command[0] == "python3" else command[0]
    argv = [program, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), report


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0  # failed_ratio is 0 when all is well
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run each")
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    figures = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            result, report = run_once(bench, workload, seed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            for name, entry in report["end_to_end"].items():
                if name not in bounds and entry["value"] is not None:
                    values.setdefault(name, []).append(entry["value"])
        gated, ungated = {}, {}
        for name, vals in values.items():
            figure = summary(vals)
            if name in bounds:
                figure["bound"] = bounds[name]
                gated[name] = figure
            else:
                ungated[name] = figure
            flag = ("  <-- above a third of the bound"
                    if name in bounds and figure["spread"] > bounds[name] / 3 else "")
            print(f"{workload:<16} {name:<20} median {figure['median']:10.5g}  "
                  f"spread {figure['spread']:6.2%}"
                  + (f"  bound {bounds[name]:.0%}" if name in bounds else "") + flag, flush=True)
        entry = {"gated": gated, "report_only": ungated}
        if args.traced:
            result, report = run_once(bench, workload, seeds(args.seeds)[0], trace=1)
            entry["traced"] = {"seed": report["seed"], "correct": result["correct"],
                               "per_layer": report["per_layer"],
                               "traced_wall_s": report["traced_wall_s"],
                               "untraced_wall_s": report["end_to_end"]["wall_s"]["value"]}
        figures["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(figures, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
