"""The runs and the verdict of `scripts/pairs.sh` (see its header).

    python3 scripts/pairs_stats.py run WORK PARENT CHANGE SEEDS WORKLOADS CLAIM SECONDS RECORD
    python3 scripts/pairs_stats.py verdict RECORD.json CLAIM
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time


def quartiles(xs):
    """median, q1, q3 (inclusive quartiles)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


def steal_ticks():
    """The host's steal ticks so far (`cpu` line of /proc/stat, field 8)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def workload_of(key):
    """`kernel_serial_1r (seeds 901-910)` counts as `kernel_serial_1r`."""
    return key.split(" (")[0]


def verdict(pairs, end_to_end, claim, failed=None):
    """Print the table and both rules' verdicts; return them as a dict.

    `pairs[key][metric] = {"parent": [...], "change": [...]}`, pair i being
    the i-th of each list; `failed[workload] = {"parent": share, "change":
    share}` when known.
    """
    merged = {}
    for key, metrics in pairs.items():
        w = merged.setdefault(workload_of(key), {})
        for name, sides in metrics.items():
            m = w.setdefault(name, {"parent": [], "change": []})
            m["parent"] += sides["parent"]
            m["change"] += sides["change"]
    claim_w, _, claim_m = claim.partition(":")
    out = {"bound": "ok", "gain": None, "rows": []}
    print(f"{'workload':<18} {'metric':<12} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'won':>6}  bound")
    for w, metrics in merged.items():
        for spec in end_to_end:
            name = spec["name"]
            if name not in metrics:
                continue
            par, chg = metrics[name]["parent"], metrics[name]["change"]
            n = min(len(par), len(chg))
            par, chg = par[:n], chg[:n]
            if n == 0:
                continue
            sign = 1.0 if spec["better"] == "higher" else -1.0
            pm, pq1, pq3 = quartiles(par)
            cm, cq1, cq3 = quartiles(chg)
            won = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
            spread = (pq3 - pq1) / abs(pm) if pm else 0.0
            # A spread wider than the bound cannot tell a change within it,
            # unless every run of the change beats every run of the parent.
            all_better = min(sign * c for c in chg) > max(sign * p for p in par)
            if worse_by > spec["bound"]:
                rule = "worse"
            elif spread > spec["bound"] and not all_better:
                rule = "unresolved"
            else:
                rule = "ok"
            row = {
                "workload": w, "metric": name, "pairs": n, "won": won,
                "parent": [pm, pq1, pq3], "change": [cm, cq1, cq3],
                "change_worse_frac": worse_by, "parent_spread_frac": spread,
                "bound": rule,
            }
            if (w, name) == (claim_w, claim_m):
                gain = sign * (cm - pm)
                iqr = pq3 - pq1
                row["gain"] = gain
                row["parent_iqr"] = iqr
                fails = (failed or {}).get(w)
                more_failed = fails is not None and fails["change"] > fails["parent"]
                ok = won >= 0.9 * n and gain > iqr and not more_failed
                out["gain"] = "gain" if ok else "unresolved"
                out["gain_detail"] = (f"{w} {name}: {won}/{n} pairs won, median gain "
                                      f"{gain:.5g} against the parent's IQR {iqr:.5g}")
            out["rows"].append(row)
            if rule != "ok" and out["bound"] != "worse":
                out["bound"] = rule
            print(f"{w:<18} {name:<12} {pm:>9.5g} [{pq1:.5g}, {pq3:.5g}]".ljust(62)
                  + f" {cm:>9.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(31)
                  + f" {won:>2}/{n:<3}  {rule}")
    for w, share in (failed or {}).items():
        if share["change"] > share["parent"]:
            out["bound"] = "worse"
            print(f"{w}: failed share {share['change']:.4g} > parent's {share['parent']:.4g}")
    print(f"verdict bound: {out['bound']}")
    if claim:
        if out["gain"] is None:
            out["gain"] = "unresolved"
            out["gain_detail"] = f"{claim}: no such pairs"
        print(f"verdict gain: {out['gain']} ({out['gain_detail']})")
    else:
        print("verdict gain: no gain claimed")
    return out


def end_to_end_of(path):
    with open(path) as f:
        return json.load(f)["end_to_end"]


def run_one(side_dir, target, command, workload, seed, seconds):
    """One benchmark process; its last line's record, steal and CPU/wall."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    steal0, ru0, t0 = steal_ticks(), resource.getrusage(resource.RUSAGE_CHILDREN), time.time()
    proc = subprocess.run(args, cwd=side_dir, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    ru1, steal1 = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks()
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"pairs: {workload} seed {seed} in {side_dir} left no record "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    return line, {"wall_s": round(wall, 3), "cpu_wall": round(cpu / wall, 3),
                  "steal_ticks": steal}


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(work, parent, change, seeds, workloads, claim, seconds, record):
    manifest = os.path.join(work, "change", "BENCHMARK.json")
    with open(manifest) as f:
        bench = json.load(f)
    command, end_to_end = bench["command"], bench["end_to_end"]
    names = [m["name"] for m in end_to_end]
    seconds = int(seconds or bench["run_seconds"])
    wls = workloads.split(",") if workloads else [w["name"] for w in bench["workloads"]]
    pairs, runs, failed = {}, [], {}
    for w in wls:
        pairs[w] = {n: {"parent": [], "change": []} for n in names}
        tally = {"parent": [0, 0], "change": [0, 0]}
        for i, seed in enumerate(seed_list(seeds), start=1):
            order = ["parent", "change"] if i % 2 else ["change", "parent"]
            for side in order:
                line, meta = run_one(os.path.join(work, side), os.path.join(work, f"target-{side}"),
                                     command, w, seed, seconds)
                for n in names:
                    pairs[w][n][side].append(line["metrics"][n]["value"])
                tally[side][0] += line["failed"]
                tally[side][1] += line["attempted"]
                runs.append(dict(meta, workload=w, seed=seed, pair=i, side=side,
                                 correct=line["correct"], attempted=line["attempted"],
                                 failed=line["failed"]))
                print(f"pairs: {w} seed {seed} {side}: "
                      + ", ".join(f"{n} {line['metrics'][n]['value']:.5g}" for n in names)
                      + f"; cpu/wall {meta['cpu_wall']}, steal {meta['steal_ticks']}",
                      file=sys.stderr)
        failed[w] = {s: t[0] / max(t[1], 1) for s, t in tally.items()}
    out = verdict(pairs, end_to_end, claim, failed)
    rec = {
        "pr": None, "commit": None, "parent": parent, "change": change, "title": None,
        "host": f"{os.cpu_count()} vCPUs, {platform.machine()}, release build",
        "claim": (out["gain_detail"] if claim else "no gain claimed")
                 + f"; bound rule: {out['bound']}",
        "protocol": f"scripts/pairs.sh: BENCHMARK.json command, --seconds {seconds} --trace 0, "
                    f"one process a run, alternating pairs (odd pairs parent first), "
                    f"seeds {seeds}; median [q1, q3] (inclusive quartiles)",
        "pairs": pairs, "verdict": {k: v for k, v in out.items() if k != "rows"},
        "runs": runs,
    }
    text = json.dumps(rec)
    if record:
        with open(record, "w") as f:
            f.write(text + "\n")
        print(f"pairs: record written to {record}")
    else:
        print(text)


def main():
    mode = sys.argv[1]
    if mode == "verdict":
        path, claim = sys.argv[2], sys.argv[3]
        with open(path) as f:
            rec = json.loads(f.read().strip().splitlines()[-1])
        verdict(rec["pairs"], end_to_end_of("BENCHMARK.json"), claim)
    elif mode == "run":
        run(*sys.argv[2:10])
    else:
        sys.exit(f"pairs_stats: unknown mode {mode}")


if __name__ == "__main__":
    main()
