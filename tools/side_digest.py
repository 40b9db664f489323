"""Print one SHA-256 per catalog case and per corpus id over both sides of every
cell of a grid, then one over those lines.

A digest covers, cell by cell in the order checked, the canonical text of each
side and the types of its coefficients (``1`` and ``Fraction(1)`` render alike
but digest apart).  Two builds that compute the same values with the same
coefficient types print the same lines, so a change meant to keep both can be
checked on any grid.  The catalog runs as ``fibluc catalog`` does, the shipped
corpus as ``fibluc verify --corpus`` does, and corpus lines that share an id
share a digest.  A third argument, ids joined by commas, keeps only those.
The package is imported from ``src`` beside this directory.

Run from the repository root: ``python tools/side_digest.py N_MAX K_MAX [IDS]``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fibluc import BivarPoly, PolyMatrix2, QuadExtElem, build_catalog, catalog_by_id  # noqa: E402
from fibluc import free_meta_vars, load_corpus  # noqa: E402
from fibluc.report import render_side  # noqa: E402


def coefficient_types(value) -> str:
    """The type of a side, and of each coefficient in term order, as text."""
    if isinstance(value, PolyMatrix2):
        value = (value.e11, value.e12, value.e21, value.e22)
    elif isinstance(value, QuadExtElem):
        value = (value.a, value.b)
    if isinstance(value, tuple):
        return "(" + ",".join(map(coefficient_types, value)) + ")"
    if isinstance(value, BivarPoly):
        return "[" + ",".join(type(c).__name__ for _, c in sorted(value.terms.items())) + "]"
    return type(value).__name__


def catalog_cells(n_max: int, k_max: int, ids=None):
    """(case id, lhs, rhs) for every cell of the catalog on the grid, in the order
    checked, of the cases in ``ids`` where it is given."""
    for case in build_catalog():
        if ids is not None and case.case_id not in ids:
            continue
        ks = range(case.k_min, k_max + 1) if case.is_binary else [None]
        for n in range(case.n_min, n_max + 1):
            for k in ks:
                args = (n,) if k is None else (n, k)
                yield case.case_id, case.lhs(*args), case.rhs(*args)


def corpus_cells(n_max: int, k_max: int, ids=None):
    """(id, lhs, rhs) for every cell of the shipped corpus on the grid, in the order
    checked, of the lines bound to ``ids`` where it is given."""
    cases = catalog_by_id()
    for entry in load_corpus():
        if ids is not None and entry.case_id not in ids:
            continue
        case = cases.get(entry.case_id)
        n_min = case.n_min if case else 0
        k_min = case.k_min if case and case.is_binary else 1
        free = free_meta_vars(entry.ast)
        ns = range(n_min, n_max + 1) if "n" in free else [None]
        ks = range(k_min, k_max + 1) if "k" in free else [None]
        for n in ns:
            for k in ks:
                env = {name: value for name, value in (("n", n), ("k", k)) if value is not None}
                yield entry.case_id, entry.ast.lhs._eval(env), entry.ast.rhs._eval(env)


def digests(sections) -> list[str]:
    """``section id sha256`` per id of each (section, cells) pair, then ``total sha256``."""
    lines = []
    for section, cells in sections:
        by_id = {}
        for case_id, *sides in cells:
            digest = by_id.setdefault(case_id, hashlib.sha256())
            for side in sides:
                digest.update(f"{render_side(side)}\n{coefficient_types(side)}\n".encode())
        lines += [f"{section} {case_id} {digest.hexdigest()}" for case_id, digest in by_id.items()]
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    return lines + [f"total {total.hexdigest()}"]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python tools/side_digest.py N_MAX K_MAX [IDS]", file=sys.stderr)
        return 2
    n_max, k_max = int(argv[0]), int(argv[1])
    ids = set(argv[2].split(",")) if len(argv) == 3 else None
    sections = [("catalog", catalog_cells), ("corpus", corpus_cells)]
    print("\n".join(digests((name, cells(n_max, k_max, ids)) for name, cells in sections)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
