"""Job digests of the benchmark workloads, to check that a change keeps every
output bit for bit.

Usage, from the root of a checkout:

    python3 tools/digests.py run manifest.json --seed 1 2 3
    python3 tools/digests.py run small.json --workload grid-algebra --seed 1
    python3 tools/digests.py compare parent.json new.json

``run`` draws each workload's jobs from its seed (``perfbench/workloads.py``),
runs every job once through ``perfbench/run.py``'s ``Job``, against this
checkout's ``src/``, and writes one JSON manifest.  Per job it records the
workload, seed, id, kind, the digest of the output (``jobkinds.digest``; None
when the job raised), the oracle's verdict, whether a failure was the program
declining to answer, and the relative error behind ``accuracy_digits.min``.
Equal inputs give byte-identical manifests.

``compare`` prints each job whose record differs between two manifests, with
the fields that moved, and exits 1 if any job differs or is missing from one
of them, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
# run.py pins BLAS to one thread on import, before numpy loads, as the
# benchmark runs
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

KEY = ("workload", "seed", "id")


def run(workloads: list[str], seeds: list[int]) -> list[dict]:
    """One record per job of each workload and seed, in run order."""
    bench._import_program()
    records = []
    with tempfile.TemporaryDirectory(prefix="digests-") as workdir:
        for workload in workloads:
            for seed in seeds:
                for spec in wl.generate(workload, seed):
                    job = bench.Job(spec, workdir)
                    res = job.run()
                    records.append({
                        "workload": workload, "seed": seed, "id": job.id,
                        "kind": job.kind, "digest": job.digest,
                        "ok": bool(res["ok"]), "declined": bool(res["declined"]),
                        "err": res["err"]})
    return records


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """One line per job whose record differs or that one side lacks."""
    def index(records):
        return {tuple(r[k] for k in KEY): r for r in records}

    a, b = index(old), index(new)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        label = "{} seed {} job {}".format(*key)
        if key not in a or key not in b:
            lines.append(f"{label}: only in {'new' if key in b else 'old'}")
            continue
        # compared as JSON text, so that a NaN equals itself
        moved = [f"{field} {json.dumps(a[key].get(field))} -> "
                 f"{json.dumps(b[key].get(field))}"
                 for field in sorted(a[key].keys() | b[key].keys())
                 if json.dumps(a[key].get(field)) != json.dumps(b[key].get(field))]
        if moved:
            lines.append(f"{label} ({a[key]['kind']}): " + "; ".join(moved))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="write the manifest of the jobs")
    p_run.add_argument("out", help="path of the JSON manifest")
    p_run.add_argument("--workload", nargs="+", choices=wl.WORKLOADS,
                       default=list(wl.WORKLOADS))
    p_run.add_argument("--seed", nargs="+", type=int, required=True)
    p_cmp = sub.add_parser("compare", help="list the jobs two manifests differ on")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    args = parser.parse_args()

    if args.cmd == "run":
        records = run(args.workload, args.seed)
        with open(args.out, "w") as fh:   # one job a line
            fh.write('{"jobs": [\n' + ",\n".join(
                json.dumps(r, sort_keys=True) for r in records) + "\n]}\n")
        print(f"{len(records)} jobs written to {args.out}")
        return 0
    docs = []
    for path in (args.old, args.new):
        with open(path) as fh:
            docs.append(json.load(fh)["jobs"])
    lines = compare(*docs)
    for line in lines:
        print(line)
    print(f"{len(docs[1])} jobs, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
