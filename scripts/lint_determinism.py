#!/usr/bin/env python3
"""Determinism lint: deny unaudited std HashMap/HashSet in the engine crates.

The engine's contract is bit-identical output across runs and processes.
`std::collections::HashMap`/`HashSet` use a randomly seeded hasher, so
*iterating* one leaks nondeterministic order into anything built from the
iteration. Every existing use has been audited (lookup-only, or the result is
sorted before it escapes) and pinned in ALLOWLIST below as an exact per-file
occurrence count.

The check is a ratchet:

* a file whose count **exceeds** its allowlisted count fails — audit the new
  use (prefer BTreeMap/BTreeSet, or sort before iterating) and, only if the
  use is order-safe, bump the entry;
* a file whose count **dropped** also fails — ratchet the entry down so the
  ceiling keeps tracking reality;
* occurrences in comments are ignored (the words are fine in prose).

Run from the repo root: `python3 scripts/lint_determinism.py`.
Exits 0 when clean, 1 with a per-file report otherwise.
"""

import re
import sys
from pathlib import Path

# Crates that must stay deterministic: everything between parsing and the
# final sorted delete-set. (cli/bench/workloads format output and may hash
# freely; triggers is covered transitively by what it calls.)
GUARDED_CRATES = ["storage", "datalog", "core", "sat", "provenance"]

TOKEN = re.compile(r"\bHash(Map|Set)\b")

# path (repo-relative, forward slashes) -> audited occurrence count.
ALLOWLIST = {
    "crates/core/src/end.rs": 2,
    "crates/core/src/engine.rs": 5,
    "crates/core/src/session.rs": 2,
    "crates/core/src/step.rs": 4,
    "crates/datalog/src/eval.rs": 2,
    "crates/datalog/src/validate.rs": 2,
    "crates/provenance/src/explain.rs": 9,
    "crates/provenance/src/formula.rs": 3,
    "crates/provenance/src/graph.rs": 7,
    "crates/sat/src/minones.rs": 0,
    "crates/storage/src/hash.rs": 3,
    "crates/storage/src/relation.rs": 1,
    "crates/storage/src/schema.rs": 2,
}


def strip_comments(text: str) -> str:
    """Blank out `//` line comments and `/* */` block comments.

    Keeps line numbers stable (newlines survive). Does not parse string
    literals — a "HashMap" inside a string would still count, which is the
    conservative direction for a lint.
    """
    out = []
    i, n = 0, len(text)
    in_line = in_block = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_line:
            if c == "\n":
                in_line = False
                out.append(c)
            i += 1
        elif in_block:
            if c == "*" and nxt == "/":
                in_block = False
                i += 2
            else:
                if c == "\n":
                    out.append(c)
                i += 1
        elif c == "/" and nxt == "/":
            in_line = True
            i += 2
        elif c == "/" and nxt == "*":
            in_block = True
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = []
    seen = {}
    for crate in GUARDED_CRATES:
        src = root / "crates" / crate / "src"
        for path in sorted(src.rglob("*.rs")):
            rel = path.relative_to(root).as_posix()
            stripped = strip_comments(path.read_text(encoding="utf-8"))
            hits = [
                (lineno, line.strip())
                for lineno, line in enumerate(stripped.splitlines(), start=1)
                if TOKEN.search(line)
            ]
            seen[rel] = len(hits)
            allowed = ALLOWLIST.get(rel, 0)
            if len(hits) > allowed:
                lines = "\n".join(f"    {rel}:{ln}: {txt}" for ln, txt in hits)
                failures.append(
                    f"  {rel}: {len(hits)} HashMap/HashSet use(s), {allowed} allowed\n{lines}"
                )
            elif len(hits) < allowed:
                failures.append(
                    f"  {rel}: allowlist says {allowed} but only {len(hits)} remain "
                    "— ratchet the entry down in scripts/lint_determinism.py"
                )
    for rel in ALLOWLIST:
        if rel not in seen:
            failures.append(
                f"  {rel}: allowlisted but no longer exists — remove the entry"
            )
    if failures:
        print("determinism lint FAILED:")
        print("\n".join(failures))
        print(
            "\nstd HashMap/HashSet iteration order is randomly seeded; new uses in\n"
            "the engine crates must be audited (lookup-only, or sorted before the\n"
            "order can escape). Prefer BTreeMap/BTreeSet. Audited uses are pinned\n"
            "in ALLOWLIST at the top of scripts/lint_determinism.py."
        )
        return 1
    total = sum(seen.values())
    print(
        f"determinism lint OK: {total} audited HashMap/HashSet use(s) "
        f"across {len(GUARDED_CRATES)} guarded crates"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
