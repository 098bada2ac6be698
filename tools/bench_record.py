"""Fold paired parent and change benchmark runs into one BENCH record.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT --out BENCH_8.json \
        [--note "how the pairs were run"]

PARENT_OUT and CHANGE_OUT are the .perfbench_out/ directories of a parent
checkout and of a change checkout, each run with `perfbench/run.py --trace 0`
and the same settings. A run is paired with the run of the same workload
and seed on the other side; unpaired runs and traced runs are left out.

For each workload and each end-to-end metric of BENCHMARK.json the record
holds every run's value (in seed order), each side's median and quartiles,
and the number of pairs the change won, ties counting for neither. It also
holds the operations attempted and failed in each run, and each side's git
commit and environment, which must be the same for all runs of a side.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory) -> dict[tuple[str, int], dict]:
    """The --trace 0 records of one .perfbench_out/, by (workload, seed)."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs[(rec["workload"], rec["environment"]["seed"])] = rec
    return runs


def spread(values: list[float]) -> dict:
    """Every value with its median and quartiles (inclusive method)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def failed_ops(rec: dict) -> int:
    return sum(bool(op["error"] or (op["result"] or {}).get("problems")) for op in rec["ops"])


def side(records: list[dict], name: str) -> dict:
    """The git commit and environment shared by every run of one side."""
    envs = [{k: v for k, v in r["environment"].items() if k != "seed"} for r in records]
    if any(env != envs[0] for env in envs):
        raise SystemExit(f"bench_record: the {name} runs differ in commit or environment")
    env = dict(envs[0])
    return {"git_commit": env.pop("git_commit"), "environment": env}


def fold(parent: dict, change: dict, spec: dict, note: str = "") -> dict:
    """One record from the paired runs of load_runs() on each side."""
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("bench_record: no workload and seed was run on both sides")
    seconds = {r["seconds"] for r in [*parent.values(), *change.values()]}
    workloads = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        metrics = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            metrics[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": spread(before), "change": spread(after),
                "change_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            }
        workloads[workload] = {
            "seeds": seeds, "pairs": len(pairs),
            "attempted": {"parent": [len(p["ops"]) for p, _ in pairs],
                          "change": [len(c["ops"]) for _, c in pairs]},
            "failed": {"parent": [failed_ops(p) for p, _ in pairs],
                       "change": [failed_ops(c) for _, c in pairs]},
            "metrics": metrics,
        }
    return {
        "seconds": sorted(seconds),
        "note": note,
        "parent": side([parent[k] for k in keys], "parent"),
        "change": side([change[k] for k in keys], "change"),
        "unpaired": sorted(f"{w}-seed{s}" for w, s in parent.keys() ^ change.keys()),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help=".perfbench_out/ of the parent checkout")
    parser.add_argument("change", help=".perfbench_out/ of the change checkout")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--note", default="", help="free text kept in the record")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    record = fold(load_runs(args.parent), load_runs(args.change), spec, args.note)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, body in record["workloads"].items():
        for name, m in body["metrics"].items():
            print(f"{workload:16s} {name:15s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} {m['unit']:4s} "
                  f"change won {m['change_wins']} of {body['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
