"""Print the work the term store of ``fibluc.sequences`` does for a catalog grid.

It counts, over ``fibluc catalog --n-max N --k-max K [--ids IDS]`` run once in
this process: ring steps (``_next_term``), packed steps
(``_packed_next_term``), ``_pack_pair`` calls (the first packing of an entry
and each re-pack), entries created, ``drop_terms`` calls, and real demotions:
the calls that change their entry, which is every call but one on an entry
already down to its seeds and a walk.  Run as a script, the store starts
empty, so two builds whose stores do the same work print the same counts,
apart from ``drop_terms`` calls that change nothing.  A third argument, ids
joined by commas, keeps only those cases.  The package is imported from
``src`` beside this directory.

Run from the repository root: ``python tools/store_counts.py N_MAX K_MAX [IDS]``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fibluc import run_catalog, sequences  # noqa: E402

#: Each count's label, in the order printed.
LABELS = (
    "ring steps",
    "packed steps",
    "pack_pair calls",
    "entries created",
    "drop_terms calls",
    "real demotions",
)


def counts(work) -> dict[str, int]:
    """The store's work while ``work()`` runs, by label of ``LABELS``."""
    counted = Counter(dict.fromkeys(LABELS, 0))

    def counting(label, real):
        def wrapper(*args):
            counted[label] += 1
            return real(*args)

        return wrapper

    def drop_terms(entry, real=sequences._Terms.drop_terms):
        counted["drop_terms calls"] += 1
        counted["real demotions"] += entry.walk is None or len(entry.terms) > 2
        real(entry)

    patches = [
        (sequences, "_next_term", counting("ring steps", sequences._next_term)),
        (sequences, "_packed_next_term", counting("packed steps", sequences._packed_next_term)),
        (sequences, "_pack_pair", counting("pack_pair calls", sequences._pack_pair)),
        (sequences._Terms, "__init__", counting("entries created", sequences._Terms.__init__)),
        (sequences._Terms, "drop_terms", drop_terms),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        work()
    finally:
        for owner, name, real in saved:
            setattr(owner, name, real)
    return dict(counted)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python tools/store_counts.py N_MAX K_MAX [IDS]", file=sys.stderr)
        return 2
    n_max, k_max = int(argv[0]), int(argv[1])
    ids = argv[2].split(",") if len(argv) == 3 else None
    for label, count in counts(lambda: run_catalog(n_max, k_max, ids)).items():
        print(f"{label:<18}{count:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
