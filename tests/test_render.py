"""ASCII and SVG path pictures."""

import hashlib

import pytest

from semipath import LeanSet, RenderSpec, SemigroupPair, enumerate_lean_sets, render

S57 = SemigroupPair(5, 7)


def marker_cells(text, mark):
    """Grid positions of a marker, as path coordinates (x, y)."""
    rows = text.splitlines()
    alpha = len(rows) - 1
    return {
        (x, alpha - i)
        for i, row in enumerate(rows)
        for x, ch in enumerate(row)
        if ch == mark
    }


def test_ascii_marks_es_turns():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    text = render(S57, lean, RenderSpec())
    assert marker_cells(text, "E") == {(1, 3), (3, 2), (4, 1)}
    assert marker_cells(text, "S") == {(0, 3), (1, 2), (3, 1), (4, 0)}
    assert len(text.splitlines()) == 6


def test_ascii_trivial_path():
    text = render(S57, LeanSet.from_members(S57, {0}), RenderSpec())
    assert marker_cells(text, "E") == set()
    assert marker_cells(text, "S") == {(0, 0)}
    assert text.splitlines()[0] == "#"


def test_ascii_toggles():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    bare = render(S57, lean, RenderSpec(diagonal=False, markers=False))
    assert "." not in bare
    assert "E" not in bare and "S" not in bare
    assert "#" in bare


def test_render_is_deterministic():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    spec = RenderSpec(format="svg", labels=True)
    assert render(S57, lean, spec) == render(S57, lean, spec)
    assert render(S57, lean) == render(S57, lean)


def test_svg_structure_and_labels():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    svg = render(S57, lean, RenderSpec(format="svg", cell=20, labels=True))
    assert svg.startswith("<svg xmlns=")
    assert svg.endswith("</svg>")
    assert '<text x="62" y="118" font-size="10" font-family="monospace">23</text>' in svg
    assert svg.count("<text") == 12
    assert svg.count('fill="#000000"/>') == 3
    assert "stroke-dasharray" in svg


def test_svg_toggles():
    lean = LeanSet.from_members(S57, {0, 9, 6, 8})
    svg = render(S57, lean, RenderSpec(format="svg", diagonal=False, markers=False))
    assert "stroke-dasharray" not in svg
    assert "<circle" not in svg
    assert "<text" not in svg


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(format="png")
    with pytest.raises(ValueError):
        RenderSpec(format="svg", cell=3)
    RenderSpec(format="ascii", cell=3)
    # A truthy non-bool such as "no" would switch the part on.
    for switch in ("diagonal", "markers", "labels"):
        for value in ("no", 0, 1, None):
            with pytest.raises(ValueError, match=f"{switch} must be a bool"):
                RenderSpec(**{switch: value})


@pytest.mark.parametrize("cell", [4.5, 20.0, "x", True, None])
def test_svg_cell_must_be_an_integer(cell):
    # A float would write float coordinates into the picture; ascii ignores cell.
    with pytest.raises(ValueError, match="svg cell size must be an integer"):
        RenderSpec(format="svg", cell=cell)
    RenderSpec(format="ascii", cell=cell)


def test_render_rejects_non_lean_sets():
    with pytest.raises(ValueError):
        LeanSet.from_members(S57, {0, 5})


def test_every_5_7_picture_is_unchanged():
    # sha256 of the ascii and the labelled svg picture of every lean set of
    # (5,7), each followed by a newline, in enumeration order.
    digest = hashlib.sha256()
    for lean in enumerate_lean_sets(S57):
        for spec in (RenderSpec(), RenderSpec(format="svg", labels=True)):
            digest.update(render(S57, lean, spec).encode() + b"\n")
    assert digest.hexdigest() == "583ab2c8a01035283d99bcb008032de898b3856056d7bb009a19b090d8fcd111"
