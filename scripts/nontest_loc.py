#!/usr/bin/env python3
"""Count non-test lines of code per crate.

A file's non-test lines are its lines before the first `#[cfg(test)]`
whose next line declares a module (`mod tests {`, `pub mod quant;`); a
file without one counts whole. A crate's count sums every `.rs` file
under its `src/`.

    python3 scripts/nontest_loc.py                 # this tree
    python3 scripts/nontest_loc.py OLD_TREE NEW_TREE   # both, and the delta

Each tree is a repository root (the directory holding `crates/`).
"""

import re
import sys
from pathlib import Path

MOD_LINE = re.compile(r"\s*(pub(\([^)]*\))?\s+)?mod\s")


def file_loc(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.strip() == "#[cfg(test)]" and MOD_LINE.match(lines[i + 1]):
            return i
    return len(lines)


def tree_loc(root):
    counts = {}
    for src in sorted(Path(root, "crates").glob("*/src")):
        counts[src.parent.name] = sum(file_loc(f) for f in src.rglob("*.rs"))
    return counts


def main(argv):
    if len(argv) > 2:
        sys.exit(__doc__)
    trees = [tree_loc(root) for root in (argv or ["."])]
    crates = sorted(set().union(*trees), key=lambda c: (-trees[-1].get(c, 0), c))
    rows = [(c, *(t.get(c, 0) for t in trees)) for c in crates]
    rows.append(("total", *(sum(t.values()) for t in trees)))
    for name, *counts in rows:
        if len(counts) == 1:
            print(f"{name:12s} {counts[0]:6d}")
        else:
            old, new = counts
            print(f"{name:12s} {old:6d} -> {new:6d}  {new - old:+5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
