#!/usr/bin/env python3
"""Noise and sensitivity checks for the perfbench benchmark.

Run from the repository root:

    python3 perfbench/check.py spread [--seeds 1-10] [--seconds S]
    python3 perfbench/check.py sensitivity [--seeds 1-3] [--seconds S]

`spread` runs each workload once per seed (`--trace 0`) and prints, for every
end-to-end metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged, `setup_s`
included, and makes the exit status nonzero.

`sensitivity` arms one `faultline` delay failpoint per labelled run and
compares each end-to-end metric of the workload (and the per-layer metrics
named in the predictions) against unarmed runs of the same seeds. It prints
every observed move and whether it matches the prediction: a predicted pair
must move beyond its bound, every other pair must stay within it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")

# failpoint -> (delay_ms, rate, metrics predicted to move), the same on
# every workload: each workload runs every phase, so each failpoint reaches
# the same layers everywhere. Every other end-to-end metric is predicted to
# stay within its bound. Rate 1.0, because the medians the per-layer
# metrics read move only when most calls are delayed; the delays are sized
# so that each targeted metric moves clear of its bound on the larger
# frames, whose calls take longest. Per-layer metrics named here are read
# from traced runs; they have no bound and count as moved beyond LAYER_MOVE.
PREDICTIONS = {
    # The direct entry points: the Table III phase and the two-pass path.
    "kernel.entry": (1, 1.0, ["hand_mpx_s", "auto_mpx_s",
                              "pipeline.gaussian.twopass_ms_p50",
                              "pipeline.sobel.twopass_ms_p50",
                              "pipeline.edge.twopass_ms_p50"]),
    # The pooled stencils only.
    "par_fused.entry": (1, 1.0, ["pool.hand_mpx_s"]),
    # The serial fused stencils, which every stream frame runs. At 2 ms the
    # 1 Mpx stream_p50_ms moved only 22.9 %, inside its bound.
    "fused.entry": (3, 1.0, ["stream_fps", "stream_p50_ms",
                             "pipeline.gaussian.fused_ms_p50",
                             "pipeline.sobel.fused_ms_p50",
                             "pipeline.edge.fused_ms_p50"]),
}
LAYER_MOVE = 0.05


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", MANIFEST], check=True, cwd=ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    return os.path.join(ROOT, target, "release", "perfbench")


def run_once(exe, workload, seed, seconds, trace, arm=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if arm:
        cmd += ["--arm", arm]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = out.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{' '.join(cmd)} failed (exit {out.returncode}):\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def cmd_spread(args):
    bench = load_benchmark()
    exe = binary()
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run_once(exe, w, s, seconds, 0) for s in seeds_arg(args.seeds)]
        print(f"== {w}: {len(runs)} runs of {seconds} s, seeds {args.seeds}")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med, iqr = spread(vals)
            limit = bounds[name] / 3
            flag = "" if iqr <= limit else "  <-- above bound/3"
            ok &= bool(iqr <= limit)
            print(f"  {name:16s} median {med:12.4f}  iqr/median {iqr:.4f}  "
                  f"(bound {bounds[name]}, /3 = {limit:.4f}){flag}")
            print(f"  {'':16s} values " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


def cmd_sensitivity(args):
    bench = load_benchmark()
    exe = binary()
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    layer_better = {m["name"]: m["better"] for m in bench["per_layer"]}
    seeds = seeds_arg(args.seeds)

    def paired(workload, trace, arm):
        """Medians of unarmed and armed runs, run back to back per seed so
        that drift of the shared host does not read as a move."""
        base, armed = [], []
        for s in seeds:
            base.append(run_once(exe, workload, s, seconds, trace))
            armed.append(run_once(exe, workload, s, seconds, trace, arm))
        med = lambda runs: {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        return med(base), med(armed)

    ok = True
    for fp, (delay, rate, moves) in PREDICTIONS.items():
        for w in (w["name"] for w in bench["workloads"]):
            arm = f"{fp}:{delay}:{rate}"
            base, armed = paired(w, 0, arm)
            layer = [m for m in moves if m not in bounds]
            if layer:
                tb, ta = paired(w, 1, arm)
                base.update({m: tb[m] for m in layer})
                armed.update({m: ta[m] for m in layer})
            print(f"== ARMED {arm} on {w} ({len(seeds)} seeds of {seconds} s per side, medians)")
            for name in sorted(base):
                if name == "setup_s":
                    continue
                change = armed[name] / base[name] - 1
                bound, better = bounds.get(name, (LAYER_MOVE, layer_better.get(name, "lower")))
                worse = -change if better == "higher" else change
                expect = "moves" if name in moves else "stays"
                good = (worse > bound) == (expect == "moves")
                ok &= good
                print(f"  {name:34s} {base[name]:10.4g} -> {armed[name]:10.4g} {change:+8.1%}  "
                      f"(bound {bound:.0%})  predicted {expect:5s} -> {'ok' if good else 'MISMATCH'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int)
    s = sub.add_parser("sensitivity")
    s.add_argument("--seeds", default="1-3")
    s.add_argument("--seconds", type=int)
    args = p.parse_args()
    return cmd_spread(args) if args.cmd == "spread" else cmd_sensitivity(args)


if __name__ == "__main__":
    sys.exit(main())
