#!/usr/bin/env bash
# Smoke check of the benchmark, for CI: build the harness, run `--quick` twice, and
# check that every workload and metric BENCHMARK.json names is in results.json with a
# finite value, and that the two runs counted exactly the same things.
#
#   benchmark/check.sh          (from anywhere; needs cargo and python3)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo build --release --quiet --offline --manifest-path "$manifest"
cargo test --release --quiet --offline --manifest-path "$manifest"

for i in 1 2; do
    cargo run --release --quiet --offline --manifest-path "$manifest" -- run --quick --seed 1
    cp "$here/out/results.json" "$here/out/results.quick$i.json"
done

python3 - "$here/../BENCHMARK.json" "$here/out/results.quick1.json" "$here/out/results.quick2.json" <<'PY'
import json, math, sys

spec, first, second = (json.load(open(p)) for p in sys.argv[1:4])
# Counts that must repeat exactly for one seed, whatever the host or its load.
EXACT = ["dna.reads", "dna.bases", "supermer.supermers", "wire.bytes",
         "stage3.instances", "stage3.distinct", "tasklayer.heavy_tasks"]
problems = []
for run in (first, second):
    by_name = {w["name"]: w for w in run["workloads"]}
    for w in spec["workloads"]:
        got = by_name.get(w["name"])
        if got is None:
            problems.append(f"workload {w['name']} missing from results.json")
            continue
        if got["failed"] != 0:
            problems.append(f"{w['name']}: {got['failed']} of {got['attempted']} runs failed: {got['failures']}")
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                v = got[kind].get(m["name"], {}).get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{w['name']}: {m['name']} is {v!r}")
                elif got[kind][m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{w['name']}: {m['name']} has unit {got[kind][m['name']]['unit']}")
for a, b in zip(first["workloads"], second["workloads"]):
    for name in EXACT:
        va, vb = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
        if va != vb:
            problems.append(f"{a['name']}: {name} differs between runs: {va} vs {vb}")
for p in problems:
    print("check.sh:", p)
sys.exit(1 if problems else 0)
PY
echo "check.sh: every workload and metric of BENCHMARK.json present and finite; counts repeat exactly"
