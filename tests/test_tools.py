"""The repository's tools count and digest what they say they do."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from fibluc import ONE, X, Y, BivarPoly, SeqKind, seq, sequences


def _load(name):
    """The module of ``tools/<name>.py``."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
side_digest = _load("side_digest")
store_counts = _load("store_counts")


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport sys  # a trailing comment\n\n\n'
        'def f(a,\n      b):\n    """One line."""\n    text = """not a\n    docstring"""\n'
        "    return a + b\n",
        encoding="utf-8",
    )
    # import, both lines of the def, both lines of the string assignment, return
    assert code_lines.code_lines(source) == 6


def test_code_lines_prints_each_modules_lines_and_source_bytes(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("# note\ny = 2\nz = 3\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module       lines   bytes",
        "a                1      17",
        "b                2      19",
        "total            3      36",
    ]


def test_side_digest_prints_the_same_lines_on_every_run(capsys):
    outputs = []
    for _ in range(2):
        assert side_digest.main(["3", "2"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    first, second = outputs
    assert first == second
    # one line per catalog case and per corpus id, then the total
    assert len([line for line in first if line.startswith("catalog ")]) == 31
    assert first[-1].startswith("total ") and len(first[-1].split()[1]) == 64
    # a digest covers its own id's cells alone, so an id filter keeps its lines as they were
    assert side_digest.main(["3", "2", "EQ04,EQ24"]) == 0
    kept = capsys.readouterr().out.splitlines()[:-1]
    assert kept == [line for line in first[:-1] if line.split()[1] in ("EQ04", "EQ24")]
    assert len(kept) == 4


def test_side_digest_tells_coefficient_types_apart():
    # both sides render as "x + 1" either way; only a coefficient's type differs
    plain = BivarPoly({(1, 0): 1, (0, 0): 1})
    rational = BivarPoly({(1, 0): 1, (0, 0): Fraction(1)})
    assert str(plain) == str(rational) and plain == rational == X + ONE
    same = side_digest.digests([("catalog", [("EQ", X + ONE, plain)])])
    changed = side_digest.digests([("catalog", [("EQ", X + ONE, rational)])])
    assert same != changed
    assert same == side_digest.digests([("catalog", [("EQ", X + ONE, plain)])])


def test_store_counts_count_each_kind_of_store_work(monkeypatch):
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)

    def work():
        seq(SeqKind.FIB, 10, 1, 1)  # an int pair takes the ring step
        # a graded pair fills on packed ints, and packs again for u_19, past
        # the first packing's cover u_18
        seq(SeqKind.FIB, 40, X * X + 2 * Y, -(Y**2))
        monkeypatch.setattr(sequences, "_PAIRS_BYTES", 0)
        # each call demotes every entry that still has a list, its own too,
        # and skips those demoted before
        seq(SeqKind.FIB, 12, 1, 2)
        seq(SeqKind.FIB, 12, 1, 3)

    patched = [sequences._next_term, sequences._pack_pair, vars(sequences._Terms).copy()]
    assert store_counts.counts(work) == {
        "ring steps": 9 + 11 + 11,
        "packed steps": 39,
        "pack_pair calls": 5,
        "entries created": 4,
        "drop_terms calls": 4,
        "real demotions": 4,
    }
    # and the counted functions are the store's own again
    assert patched == [sequences._next_term, sequences._pack_pair, vars(sequences._Terms)]


def test_store_counts_print_the_same_counts_from_an_empty_store(monkeypatch, capsys):
    outputs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            patch.setattr(sequences, "_pairs", {})
            patch.setattr(sequences, "_pairs_size", 0)
            assert store_counts.main(["6", "3", "EQ12,EQ24"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1]
    counted = dict(line.rsplit(None, 1) for line in outputs[0])
    assert list(counted) == list(store_counts.LABELS)
    assert int(counted["entries created"]) > 0 and int(counted["packed steps"]) > 0
