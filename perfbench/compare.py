#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or report the spread of one set.

    python3 perfbench/compare.py BASE_DIR NEW_DIR   # verdict per metric
    python3 perfbench/compare.py --spread DIR       # quartile spread of a set
    python3 perfbench/compare.py --self-test        # synthetic checks, < 1 s

A set is a directory of result files written by the benchmark
(.bench_out/results/*.json by default; move them aside per commit). A set
must hold at most one run per (workload, seed, trace) and runs of one
commit only; the tool refuses (exit 2) a set that does not. For
every (workload, metric) the tool prints each side's median and quartiles.
End-to-end metrics (from --trace 0 runs) get a verdict:

  better      the new side wins at least 9/10 of the run pairs and its
              median beats the base median by more than the base's own
              quartile spread;
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, and the run-to-run spread is wider than the bound
              (unless every new run beats every base run);
  unchanged   neither, within the bound.

For a worse metric it names the per-layer metric (from --trace 1 runs of
the same workload) whose median moved most in its bad direction. Runs are
paired by seed. Exits 1 when any metric is worse (or, with --spread, when
any spread exceeds its bound).
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=None):
    path = path or os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layer


class SetError(Exception):
    pass


def check_set(runs, name):
    """A set holds one run per (workload, seed, trace), all of one commit."""
    seen = set()
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        if key in seen:
            raise SetError("%s: more than one run of %s seed %s trace %s"
                           % (name, *key))
        seen.add(key)
    commits = {run.get("fingerprint", {}).get("commit") for run in runs}
    if len(commits) > 1:
        raise SetError("%s: runs of more than one commit: %s"
                       % (name, ", ".join(sorted(map(str, commits)))))
    return runs


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return check_set(runs, directory)


def series(runs, trace, key):
    """{(workload, metric): {seed: value}} for runs of one trace mode."""
    out = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, m in run[key].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base, new, better):
    """Relative change of `new` against `base` in the bad direction."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base, new, better, bound):
    """base, new: {seed: value}. Returns (verdict, detail dict)."""
    b = list(base.values())
    n = list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    delta = worse_by(bmed, nmed, better)
    base_spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    new_spread = (nq3 - nq1) / abs(bmed) if bmed else 0.0
    pairs = [(base[s], new[s]) for s in sorted(set(base) & set(new))]
    if not pairs:  # unpaired sets: pair in order
        pairs = list(zip(sorted(b), sorted(n)))
    wins = sum(1 for x, y in pairs if worse_by(x, y, better) < 0)
    all_better = all(worse_by(x, y, better) < 0 for x in b for y in n)
    info = {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
            "delta": delta, "wins": wins, "pairs": len(pairs)}
    if pairs and wins >= 0.9 * len(pairs) and -delta > base_spread:
        return "better", info
    if delta > bound:
        return "worse", info
    if max(base_spread, new_spread) > bound and not all_better:
        return "unresolved", info
    return "unchanged", info


def most_moved_layer(base_layer, new_layer, workload, layer_spec):
    best = None
    for (w, name), base in base_layer.items():
        if w != workload or (w, name) not in new_layer or name not in layer_spec:
            continue
        new = new_layer[(w, name)]
        d = worse_by(statistics.median(base.values()),
                     statistics.median(new.values()),
                     layer_spec[name]["better"])
        if best is None or d > best[1]:
            best = (name, d)
    return best


def compare(base_runs, new_runs, e2e_spec, layer_spec, out=sys.stdout):
    base_e2e = series(base_runs, 0, "end_to_end")
    new_e2e = series(new_runs, 0, "end_to_end")
    base_layer = series(base_runs, 1, "per_layer")
    new_layer = series(new_runs, 1, "per_layer")
    verdicts = {}
    out.write("%-11s %-16s %-34s %-34s %8s %5s  %s\n" % (
        "workload", "metric", "base q1/median/q3", "new q1/median/q3",
        "worse_by", "wins", "verdict"))
    for key in sorted(set(base_e2e) & set(new_e2e)):
        workload, name = key
        if name not in e2e_spec:
            continue
        spec = e2e_spec[name]
        v, info = verdict(base_e2e[key], new_e2e[key], spec["better"],
                          spec["bound"])
        verdicts[key] = v
        out.write("%-11s %-16s %-34s %-34s %+7.1f%% %2d/%-2d  %s\n" % (
            workload, name, "%.4g / %.4g / %.4g" % info["base"],
            "%.4g / %.4g / %.4g" % info["new"], 100 * info["delta"],
            info["wins"], info["pairs"], v))
        if v == "worse":
            moved = most_moved_layer(base_layer, new_layer, workload, layer_spec)
            if moved:
                out.write("%-11s   moved most: %s (%+.1f%% worse)\n" % (
                    "", moved[0], 100 * moved[1]))
            else:
                out.write("%-11s   no traced runs to attribute it\n" % "")
    if base_layer and new_layer:
        out.write("\nper-layer medians (traced runs)\n")
        for key in sorted(set(base_layer) & set(new_layer)):
            if key[1] not in layer_spec:
                continue
            bm = statistics.median(base_layer[key].values())
            nm = statistics.median(new_layer[key].values())
            out.write("%-11s %-40s %12.5g %12.5g %+8.1f%%\n" % (
                key[0], key[1], bm, nm,
                100 * worse_by(bm, nm, layer_spec[key[1]]["better"])))
    return verdicts


def spread(runs, e2e_spec, out=sys.stdout):
    """Quartile spread / median per (workload, e2e metric), with
    statistics.quantiles(n=4). Returns the keys whose spread exceeds the bound."""
    over = []
    out.write("%-11s %-16s %4s %12s %9s %9s\n" % (
        "workload", "metric", "runs", "median", "spread", "bound"))
    for key, values in sorted(series(runs, 0, "end_to_end").items()):
        if key[1] not in e2e_spec:
            continue
        v = list(values.values())
        q1, med, q3 = quartiles(v)
        s = (q3 - q1) / abs(med) if med else 0.0
        bound = e2e_spec[key[1]]["bound"]
        flag = "" if s <= bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
        if s > bound:
            over.append(key)
        out.write("%-11s %-16s %4d %12.5g %8.2f%% %8.1f%%%s\n" % (
            key[0], key[1], len(v), med, 100 * s, 100 * bound, flag))
    return over


def self_test():
    import io
    import random
    e2e_spec = {
        "lat_ms": {"name": "lat_ms", "better": "lower", "bound": 0.1},
        "rps": {"name": "rps", "better": "higher", "bound": 0.1},
        "noisy": {"name": "noisy", "better": "lower", "bound": 0.05},
    }
    layer_spec = {
        "a.ms": {"name": "a.ms", "better": "lower"},
        "b.ms": {"name": "b.ms", "better": "lower"},
    }
    rng = random.Random(7)

    def runs(lat, rps, a_ms, b_ms, noise=0.01):
        out = []
        for seed in range(10):
            jitter = lambda x, s=noise: x * (1 + rng.uniform(-s, s))
            out.append({"workload": "w", "seed": seed, "trace": 0,
                        "end_to_end": {
                            "lat_ms": {"value": jitter(lat)},
                            "rps": {"value": jitter(rps)},
                            "noisy": {"value": jitter(1.0, 0.3)}},
                        "per_layer": {}})
            out.append({"workload": "w", "seed": seed, "trace": 1,
                        "end_to_end": {}, "per_layer": {
                            "a.ms": {"value": jitter(a_ms)},
                            "b.ms": {"value": jitter(b_ms)}}})
        return out

    base = runs(10.0, 100.0, 1.0, 1.0)
    sink = io.StringIO()
    worse = compare(base, runs(12.0, 99.5, 1.0, 3.0), e2e_spec, layer_spec, sink)
    assert worse[("w", "lat_ms")] == "worse", worse
    assert "moved most: b.ms" in sink.getvalue(), sink.getvalue()
    assert worse[("w", "rps")] == "unchanged", worse
    assert worse[("w", "noisy")] == "unresolved", worse
    better = compare(base, runs(8.0, 130.0, 0.8, 1.0), e2e_spec, layer_spec,
                     io.StringIO())
    assert better[("w", "lat_ms")] == "better", better
    assert better[("w", "rps")] == "better", better
    over = spread(base, e2e_spec, io.StringIO())
    assert over == [("w", "noisy")], over
    for bad in (base + base[:1],
                base + [dict(base[0], seed=99, fingerprint={"commit": "b"})]):
        try:
            check_set(bad, "set")
        except SetError:
            continue
        raise AssertionError("a mixed set was accepted")
    print("compare.py self-test: ok")


def main(argv):
    if argv[1:] == ["--self-test"]:
        self_test()
        return 0
    e2e_spec, layer_spec = load_spec()
    try:
        if len(argv) == 3 and argv[1] == "--spread":
            return 1 if spread(load_runs(argv[2]), e2e_spec) else 0
        if len(argv) == 3:
            verdicts = compare(load_runs(argv[1]), load_runs(argv[2]),
                               e2e_spec, layer_spec)
            return 1 if "worse" in verdicts.values() else 0
    except SetError as e:
        sys.stderr.write("compare.py: %s\n" % e)
        return 2
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
