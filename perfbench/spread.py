"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1 2 3 ... \
        [--seconds 20] [--trace 0] [--bin <path to built benchmark>]

For each metric it prints the median over the seeds and the distance
between the first and third quartiles as a share of that median, the
figure the benchmark's bounds in BENCHMARK.json are checked against.
Without --bin the benchmark is built and run through cargo.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    args = ap.parse_args()
    command = (
        [args.bin]
        if args.bin
        else ["cargo", "run", "--quiet", "--release", "--offline",
              "--manifest-path", "perfbench/Cargo.toml", "--"]
    )
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{name:40s} median={med:<14.6g} iqr/median={spread}  "
              f"min={min(vals):.6g} max={max(vals):.6g}")


if __name__ == "__main__":
    main()
