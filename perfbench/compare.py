"""Compare the CSV digests of two benchmark result files.

    python3 perfbench/compare.py OLD.json NEW.json

Both files come from ``perfbench/run.py`` (``.bench_out/results/``) for the
same workload and seed. Exits 0 when every CSV artifact of every operation has
the same SHA-256 in both, 1 otherwise, listing each file that differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for key in ("workload", "seed"):
        if old[key] != new[key]:
            print(f"error: {key} differs ({old[key]} vs {new[key]}); digests are not comparable",
                  file=sys.stderr)
            return 2
    differ = 0
    for op in sorted(set(old["operations"]) | set(new["operations"])):
        a = old["operations"].get(op, {}).get("sha256") or {}
        b = new["operations"].get(op, {}).get("sha256") or {}
        changed = [name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
        for name in changed:
            print(f"differs  {op}: {name}")
        print(f"{'DIFF' if changed else 'same'}     {op}: {len(b)} CSV files")
        differ += len(changed)
    print(f"{differ} file(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
