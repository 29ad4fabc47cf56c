"""Fail when the counting pipeline touches the performance model: a run measures, and
`model.rs` projects what it measured, after the run.

    python3 .github/model_stays_out.py [DIR]

Scans the `.rs` files under DIR (default `crates/hysortk/src`) for the model's types —
`PerfModel`, `StageTimes`, `MemoryModel`, `ExchangeProfile`, `MachineConfig` — skipping
`model.rs`, `bin/hysortk.rs` (the CLI prints a projection) and test code: an item under
`#[cfg(test)]`, which in this tree is a top-level item that ends at the next `}` in
column 0 (or a one-line item ending in `;`). Comment lines count: a doc that names a
model type belongs in `model.rs`. Prints every hit and exits 1.
"""

import glob
import os
import re
import sys

ROOT = sys.argv[1] if len(sys.argv) > 1 else "crates/hysortk/src"
ALLOWED = {"model.rs", os.path.join("bin", "hysortk.rs")}
MODEL = re.compile(r"\b(PerfModel|StageTimes|MemoryModel|ExchangeProfile|MachineConfig)\b")

hits = []
for path in sorted(glob.glob(os.path.join(ROOT, "**", "*.rs"), recursive=True)):
    if os.path.relpath(path, ROOT) in ALLOWED:
        continue
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("#[cfg(test)]"):
            index += 1
            if index < len(lines) and lines[index].rstrip().endswith(";"):
                index += 1
                continue
            while index < len(lines) and lines[index] != "}":
                index += 1
            index += 1
            continue
        if MODEL.search(line):
            hits.append(f"{path}:{index + 1}: {line.strip()}")
        index += 1
if hits:
    print("\n".join(hits))
    print(f"{len(hits)} use(s) of the performance model in {ROOT} outside model.rs")
    sys.exit(1)
print(f"model check OK: {ROOT} names the performance model only in model.rs and the CLI")
