"""Ratchet the `unsafe` count: fail when more lines under `crates/` use it than allowed.

    python3 .github/unsafe_ratchet.py

Counts the lines of `.rs` files under `crates/` that match `\\bunsafe\\b` (comments
included). Above `CEILING` it prints every matching line and exits 1. A change that
removes `unsafe` lowers `CEILING` to the new count in the same commit.
"""

import os
import re
import sys

CEILING = 31

pattern = re.compile(r"\bunsafe\b")
hits = []
for root, dirs, files in os.walk("crates"):
    dirs.sort()
    for name in sorted(files):
        if name.endswith(".rs"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                for number, line in enumerate(f, 1):
                    if pattern.search(line):
                        hits.append(f"{path}:{number}: {line.strip()}")
if len(hits) > CEILING:
    print("\n".join(hits))
    sys.exit(f"{len(hits)} lines under crates/ use `unsafe`; the ceiling is {CEILING}")
print(f"unsafe ratchet OK: {len(hits)} lines (ceiling {CEILING})")
