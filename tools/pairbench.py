#!/usr/bin/env python3
"""Paired before/after timing of two git revisions through perfbench.

    python3 tools/pairbench.py BASE HEAD --workload <name> [--pairs N]
        [--seconds S] [--seed K] [--interleaved] [--scratch DIR] [--keep]

Run from the repository root. Each revision's tree is exported (`git
archive`, so the repository's own checkout and metadata are untouched) to
`DIR/pb-a` or `DIR/pb-b`: equal-length paths, so file names compiled into
the two binaries do not shift their code layout by different amounts. Each
side is built by its own, unchanged `perfbench/run.py` into its own
CARGO_TARGET_DIR (`DIR/tg-a`, `DIR/tg-b`); `perfbench/Cargo.lock`, which
the offline build rewrites, is restored after every build. The exported
trees are removed on exit unless --keep is given.

Default mode runs N pairs of `run.py --trace 0` runs of S seconds each,
alternating which side goes first, with a fresh `--seed` per pair; a pair's
sample is each side's median. --interleaved instead times N pairs of
single cold processes (`perfbench cold <workload> <seed>`), again
alternating the first side and using a fresh seed per pair, and counts the
pairs whose two result digests differ.

Per metric (`wall_s`, `setup_s`; lower is better) it prints each side's
median and quartiles, the pairs HEAD won (k/n, ties dropped), an exact
two-sided sign-test p, and the median HEAD/BASE ratio with a
distribution-free 95 % confidence interval from order statistics. A metric
reads "resolved" only when p < 0.05; otherwise the pairs cannot tell the
sides apart, whatever the medians say.

The last stdout line is one JSON object with the same figures.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

METRICS = ("wall_s", "setup_s")
WORKLOADS = ("lifecycle_web", "chaos_campaign", "mesh_canary_social")
LOCKFILE = os.path.join("perfbench", "Cargo.lock")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev, tree):
    """Writes `rev`'s tracked files to `tree`; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    archive = git("archive", "--format=tar", commit)
    # -m stamps every file with the extraction time. git archive's stamp is
    # the commit time, older than a target directory's earlier build of
    # another revision, which cargo would then reuse as fresh.
    subprocess.run(["tar", "-x", "-m", "-C", tree], input=archive, check=True)
    return commit


class Side:
    """One revision: its exported tree, target directory and binary."""

    def __init__(self, name, rev, scratch, tag):
        self.name = name
        self.tree = os.path.join(scratch, f"pb-{tag}")
        self.target = os.path.join(scratch, f"tg-{tag}")
        self.commit = export(rev, self.tree)
        with open(os.path.join(self.tree, LOCKFILE), "rb") as f:
            self.lock = f.read()
        self.binary = os.path.join(self.target, "release", "perfbench")

    def run_py(self, workload, seed, seconds):
        """One `perfbench/run.py --trace 0` run; returns its JSON object."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        try:
            proc = subprocess.run(cmd, cwd=self.tree, env=env, capture_output=True, text=True)
        finally:
            with open(os.path.join(self.tree, LOCKFILE), "wb") as f:
                f.write(self.lock)
        if proc.returncode != 0:
            sys.exit(f"pairbench: {self.name} run.py failed:\n{proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            sys.exit(f"pairbench: {self.name} run.py reported failed runs: {out}")
        return {m: out["metrics"][m]["value"] for m in METRICS}

    def cold(self, workload, seed):
        """One cold process; returns its JSON object."""
        proc = subprocess.run([self.binary, "cold", workload, str(seed)], cwd=self.tree,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"pairbench: {self.name} cold run failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def binom_cdf(k, n):
    """P(X <= k) for X ~ Binomial(n, 1/2), exactly."""
    return sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n


def sign_test(wins, losses):
    """Exact two-sided sign-test p over the untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    return min(1.0, 2 * binom_cdf(min(wins, losses), n))


def median_ci(values, level=0.95):
    """Order-statistic CI for the median: (lo, hi), or None if n is too small."""
    xs = sorted(values)
    n = len(xs)
    alpha = 1 - level
    # The largest l with P(X < l) <= alpha/2 puts the median in
    # [x_(l), x_(n-l+1)] with probability >= level.
    l = 0
    while l + 1 <= n and binom_cdf(l, n) <= alpha / 2:
        l += 1
    if l == 0:
        return None
    return xs[l - 1], xs[n - l]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(base, head):
    """The paired figures of one metric; lower is better."""
    wins = sum(h < b for b, h in zip(base, head))
    losses = sum(h > b for b, h in zip(base, head))
    p = sign_test(wins, losses)
    ratios = [h / b for b, h in zip(base, head) if b > 0]
    ci = median_ci(ratios) if ratios else None
    return {
        "base_q": quartiles(base),
        "head_q": quartiles(head),
        "wins": wins,
        "pairs": len(base),
        "ties": len(base) - wins - losses,
        "p": p,
        "ratio": statistics.median(ratios) if ratios else None,
        "ratio_ci": ci,
        "resolved": p < 0.05,
    }


def render(metric, s):
    bq, hq = s["base_q"], s["head_q"]
    ci = s["ratio_ci"]
    ci_text = f"[{ci[0]:.3f}, {ci[1]:.3f}]" if ci else "[n too small]"
    ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "n/a"
    verdict = "resolved" if s["resolved"] else "unresolved"
    return (f"{metric:<8} base {bq[1]:.4g} ({bq[0]:.4g}-{bq[2]:.4g})  "
            f"head {hq[1]:.4g} ({hq[0]:.4g}-{hq[2]:.4g})  "
            f"head wins {s['wins']}/{s['pairs']} (ties {s['ties']})  p={s['p']:.3g}  "
            f"ratio {ratio} CI95 {ci_text}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision measured against")
    parser.add_argument("head", help="the revision under test")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds per run.py run (default mode)")
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i uses seed SEED + i")
    parser.add_argument("--interleaved", action="store_true",
                        help="time single cold processes instead of run.py runs")
    parser.add_argument("--scratch", help="directory for the trees (default: a new temp dir)")
    parser.add_argument("--keep", action="store_true", help="leave the trees on exit")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")

    scratch = args.scratch or tempfile.mkdtemp(prefix="pairbench-")
    os.makedirs(scratch, exist_ok=True)
    sides = []
    try:
        sides = [Side("base", args.base, scratch, "a"), Side("head", args.head, scratch, "b")]
        for side in sides:
            # The build: run.py builds, then samples briefly; the sample is
            # discarded.
            side.run_py(args.workload, args.seed, 0.1)
            print(f"pairbench: built {side.name} {side.commit[:12]}", file=sys.stderr)
        samples = {side.name: {m: [] for m in METRICS} for side in sides}
        mismatches = 0
        for i in range(args.pairs):
            seed = args.seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            results = {}
            for side in order:
                if args.interleaved:
                    results[side.name] = side.cold(args.workload, seed)
                else:
                    results[side.name] = side.run_py(args.workload, seed, args.seconds)
            if args.interleaved and results["base"]["digest"] != results["head"]["digest"]:
                mismatches += 1
            for name, r in results.items():
                for m in METRICS:
                    samples[name][m].append(r[m])
            print(f"pairbench: pair {i + 1}/{args.pairs} seed {seed}: "
                  + "  ".join(f"{m} {results['base'][m]:.4g} -> {results['head'][m]:.4g}"
                              for m in METRICS), file=sys.stderr)
    finally:
        if not args.keep:
            for side in sides:
                shutil.rmtree(side.tree, ignore_errors=True)
            if not args.scratch:
                shutil.rmtree(scratch, ignore_errors=True)

    mode = "interleaved cold processes" if args.interleaved else f"run.py runs of {args.seconds:g} s"
    print(f"{args.workload}: {args.pairs} pairs of {mode}, "
          f"base {sides[0].commit[:12]} -> head {sides[1].commit[:12]}")
    summary = {}
    for m in METRICS:
        summary[m] = summarize(samples["base"][m], samples["head"][m])
        print(render(m, summary[m]))
    if args.interleaved:
        print(f"digest mismatches: {mismatches}/{args.pairs}")
    print(json.dumps({
        "workload": args.workload,
        "base": sides[0].commit,
        "head": sides[1].commit,
        "mode": "interleaved" if args.interleaved else "run.py",
        "digest_mismatches": mismatches if args.interleaved else None,
        "metrics": summary,
    }))


if __name__ == "__main__":
    started = time.monotonic()
    main()
    print(f"pairbench: {time.monotonic() - started:.0f} s", file=sys.stderr)
