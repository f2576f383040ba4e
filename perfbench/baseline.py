"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads sweep,audit] \
        [--seconds 20] [--out perfbench/baseline.json]

Seeds are the outer loop, so slow phases of a shared machine fall on every
workload alike. For each workload and metric it prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json; --out writes the
same summary with the raw values and the environment of the first run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", required=True, help="a range lo-hi or a comma-separated list")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    names = args.workloads.split(",")
    values: dict = {w: {} for w in names}
    env, ok = None, True
    for seed in seed_list(args.seeds):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
            env = env or info["env"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w, metrics in values.items():
        summary[w] = {}
        for name, m in metrics.items():
            v = m["values"]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
            print(f"{w:9s} {name:12s} median {med:12.5g} {m['unit']:5s} spread {spread:.3f} (bound {bounds.get(name)})")
    if args.out:
        doc = {"command": spec["command"], "run_seconds": args.seconds, "seeds": seed_list(args.seeds),
               "env": env, "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
