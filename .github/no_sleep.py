"""Fail when library or binary code sleeps: a run waits on events, never on a clock.

    python3 .github/no_sleep.py

Scans the `.rs` files under `crates/*/src` for `thread::sleep`, skipping test code —
an item under `#[cfg(test)]`, which in this tree is a top-level item that ends at the
next `}` in column 0 (or a one-line item ending in `;`). The one allowed site is
`crates/dmem/src/fault.rs`, where the `delay` fault sleeps on purpose. Prints every
other call and exits 1.
"""

import glob
import sys

ALLOWED = {"crates/dmem/src/fault.rs"}

hits = []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    if path in ALLOWED:
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
        if "thread::sleep" in line and not line.lstrip().startswith("//"):
            hits.append(f"{path}:{index + 1}: {line.strip()}")
        index += 1
if hits:
    print("\n".join(hits))
    print(f"{len(hits)} non-test `thread::sleep` call(s) outside {', '.join(sorted(ALLOWED))}")
    sys.exit(1)
print("no-sleep check OK: no non-test code sleeps outside the delay fault")
