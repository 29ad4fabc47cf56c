"""Ratchet `unsafe`: fail when more lines use it than allowed, or when one is unexplained.

    python3 .github/unsafe_ratchet.py

Counts the lines of `.rs` files under `crates/`, `tests/` and `examples/` that match
`\\bunsafe\\b` (comments included). Above `CEILING` it prints every matching line and
exits 1. A matching line of code (one that does not start with `//`) must also carry a
`SAFETY:` comment, on the line itself or in the run of `//` lines directly above it;
it prints every such line that does not and exits 1. A change that removes `unsafe`
lowers `CEILING` to the new count in the same commit.
"""

import os
import re
import sys

CEILING = 13
ROOTS = ("crates", "tests", "examples")

pattern = re.compile(r"\bunsafe\b")
hits = []
unexplained = []
for top in ROOTS:
    for root, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".rs"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for index, line in enumerate(lines):
                if not pattern.search(line):
                    continue
                where = f"{path}:{index + 1}: {line.strip()}"
                hits.append(where)
                if line.lstrip().startswith("//") or "SAFETY:" in line:
                    continue
                above = index - 1
                explained = False
                while above >= 0 and lines[above].lstrip().startswith("//"):
                    if "SAFETY:" in lines[above]:
                        explained = True
                        break
                    above -= 1
                if not explained:
                    unexplained.append(where)
failed = False
if len(hits) > CEILING:
    print("\n".join(hits))
    print(f"{len(hits)} lines under {', '.join(ROOTS)} use `unsafe`; the ceiling is {CEILING}")
    failed = True
if unexplained:
    print("\n".join(unexplained))
    print(f"{len(unexplained)} lines of `unsafe` code have no `SAFETY:` comment")
    failed = True
if failed:
    sys.exit(1)
print(f"unsafe ratchet OK: {len(hits)} lines (ceiling {CEILING}), each code line explained")
