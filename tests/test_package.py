from pathlib import Path

import pintbench

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pintbench").glob("*.py"))


def test_every_export_resolves_once():
    names = pintbench.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pintbench, name)] == []


def test_no_source_line_exceeds_120_characters():
    assert SOURCES
    long = [f"{path.name}:{number}" for path in SOURCES
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 120]
    assert long == []
