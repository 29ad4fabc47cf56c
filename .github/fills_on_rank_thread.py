"""Check a `--trace-detail task` trace: every rank fills its rounds on its own thread.

    python3 .github/fills_on_rank_thread.py TRACE.json RANKS

Per rank (trace `pid`), every `overlap-serialize` span must sit on the thread (`tid`)
that opened the rank's one `stage1-ingest` span, and that span must end with
`staged_bytes` > 0.
"""

import collections
import json
import sys

path, ranks = sys.argv[1], int(sys.argv[2])
events = json.load(open(path))["traceEvents"]
own = collections.defaultdict(set)
fills = collections.defaultdict(list)
for e in events:
    if e["ph"] == "B" and e["name"] == "stage1-ingest":
        own[e["pid"]].add(e["tid"])
    elif e["ph"] == "B" and e["name"] == "overlap-serialize":
        fills[e["pid"]].append(e["tid"])
    elif e["ph"] == "E" and e["name"] == "stage1-ingest":
        assert e["args"]["staged_bytes"] > 0, f"{path}: rank {e['pid']} staged nothing"
assert sorted(own) == list(range(ranks)), f"{path}: stage-1 ranks {sorted(own)}"
for rank, tids in sorted(own.items()):
    (tid,) = tids
    off = [t for t in fills[rank] if t != tid]
    assert fills[rank] and not off, \
        f"{path}: rank {rank} filled off its thread {tid}: on {sorted(set(off))}"
print(f"{path}: {sum(map(len, fills.values()))} overlap-serialize spans, each on its "
      f"rank's stage-1 thread ({ranks} rank(s))")
