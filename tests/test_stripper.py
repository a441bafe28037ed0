"""Stripper behavior against the regex reference oracle and fixed figures."""

from __future__ import annotations

import hashlib
import random

import pytest

from courseforge.config import DEFAULT_DIALECTS, MarkerDialect, parse_config
from courseforge.repomodel import Snapshot
from courseforge.stripper import (
    MarkerViolationError,
    parse_markers,
    strip_document,
    strip_snapshot,
)

from oracles import (
    classify,
    generate_soup,
    generate_valid,
    reference_strip,
    reference_validate,
)
from util import make_config

JAVA = MarkerDialect(("java",), "//")
PY = MarkerDialect(("py",), "#")

TEACHER_INCREMENT = (
    "public int increment(int x) {\n"
    '    // STUDENT throw new RuntimeException("Not implemented");\n'
    "    // BEGIN STRIP\n"
    "    return x + 1;\n"
    "    // END STRIP\n"
    "}\n"
)

TEMPLATE_INCREMENT = (
    "public int increment(int x) {\n"
    '    throw new RuntimeException("Not implemented");\n'
    "}\n"
)


def java_config(tmp_path):
    return make_config(tmp_path)


def parse_java(tmp_path, text: str):
    return parse_markers("Main.java", text.encode(), make_config(tmp_path))


def test_increment_figure_strips_byte_exactly(tmp_path):
    doc = parse_java(tmp_path, TEACHER_INCREMENT)
    assert strip_document(doc) == TEMPLATE_INCREMENT.encode()


def test_no_markers_all_plain(tmp_path):
    text = "int a = 1;\nint b = 2;\n"
    doc = parse_java(tmp_path, text)
    assert strip_document(doc) == text.encode()


def test_begin_without_end_reported_at_begin_line(tmp_path):
    text = "a;\n// BEGIN STRIP\nb;\n"
    with pytest.raises(MarkerViolationError) as err:
        parse_markers("Main.java", text.encode(), make_config(tmp_path))
    (violation,) = err.value.violations
    assert (violation.line, violation.code) == (2, "unclosed-begin")
    assert violation.path == "Main.java"


def test_end_without_begin_reported(tmp_path):
    text = "a;\n// END STRIP\n"
    with pytest.raises(MarkerViolationError) as err:
        parse_java(tmp_path, text)
    (violation,) = err.value.violations
    assert (violation.line, violation.code) == (2, "end-without-begin")


def test_nested_begin_reported_at_inner_line(tmp_path):
    text = "// BEGIN STRIP\n// BEGIN STRIP\n// END STRIP\n"
    with pytest.raises(MarkerViolationError) as err:
        parse_java(tmp_path, text)
    (violation,) = err.value.violations
    assert (violation.line, violation.code) == (2, "nested-begin")


def test_token_on_surviving_line_is_rejected(tmp_path):
    text = "x = 1;  // BEGIN STRIP\n"
    with pytest.raises(MarkerViolationError) as err:
        parse_java(tmp_path, text)
    (violation,) = err.value.violations
    assert (violation.line, violation.code) == (1, "stray-token")


def test_token_inside_region_is_fine(tmp_path):
    text = ("// BEGIN STRIP\n"
            "secret();  // mentions END STRIP mid-line\n"
            "// END STRIP\n"
            "after;\n")
    # the leaky line sits inside the removed region, so nothing survives
    doc = parse_java(tmp_path, text)
    assert strip_document(doc) == b"after;\n"


def test_region_only_document_strips_to_empty(tmp_path):
    text = "// BEGIN STRIP\nreturn 1;\n// END STRIP\n"
    assert strip_document(parse_java(tmp_path, text)) == b""


def test_student_without_payload_renders_empty_line(tmp_path):
    doc = parse_java(tmp_path, "a;\n    // STUDENT\nb;\n")
    assert strip_document(doc) == b"a;\n\nb;\n"


def test_student_payload_keeps_marker_indent(tmp_path):
    doc = parse_java(tmp_path, "\t// STUDENT do();\n")
    assert strip_document(doc) == b"\tdo();\n"


def test_student_payload_preserves_extra_separators(tmp_path):
    # exactly one separator is consumed; the rest belongs to the payload
    doc = parse_java(tmp_path, "  // STUDENT   spaced();\n")
    assert strip_document(doc) == b"    spaced();\n"


def test_trailing_text_after_begin_and_end_is_ignored(tmp_path):
    text = ("keep;\n"
            "// BEGIN STRIP exercise 3\n"
            "gone;\n"
            "// END STRIP exercise 3\n")
    assert strip_document(parse_java(tmp_path, text)) == b"keep;\n"


def test_crlf_lines_survive_unchanged(tmp_path):
    text = "a;\r\n// BEGIN STRIP\r\nb;\r\n// END STRIP\r\nc;\r\n"
    assert strip_document(parse_java(tmp_path, text)) == b"a;\r\nc;\r\n"


def test_no_trailing_newline_is_preserved(tmp_path):
    doc = parse_java(tmp_path, "a;\nb;")
    assert strip_document(doc) == b"a;\nb;"


def test_binary_content_passes_through(tmp_path):
    blob = b"\xff\xfe\x00binary"
    doc = parse_markers("data.java", blob, make_config(tmp_path))
    assert doc.dialect is None
    assert strip_document(doc) == blob


def test_unknown_extension_passes_through(tmp_path):
    text = b"plain // BEGIN STRIP still fine\n"
    doc = parse_markers("notes.txt", text, make_config(tmp_path))
    assert doc.dialect is None
    assert strip_document(doc) == text


def test_dialect_override_changes_comment_prefix(tmp_path):
    config = parse_config(
        "course_id: c\nbot_account: b\n"
        "dialects:\n  - extensions: [py]\n    comment_prefix: '//'\n",
        base_dir=tmp_path)
    doc = parse_markers("m.py", b"// BEGIN STRIP\nx\n// END STRIP\n", config)
    assert strip_document(doc) == b""
    # with the override, '#' comments are plain text in .py files
    doc2 = parse_markers("m.py", b"# just a note\n", config)
    assert strip_document(doc2) == b"# just a note\n"


def test_strip_snapshot_strip_copy_mix(tmp_path):
    config = make_config(tmp_path)
    snap = Snapshot({
        "main.py": b"x = 0\n# BEGIN STRIP\nsecret = 1\n# END STRIP\n",
        "tests/test_x.py": b"assert True\n",
        "settings.cfg": b"[core]\nkey=value\n",
    })
    out = strip_snapshot(snap, config)
    assert out["main.py"] == b"x = 0\n"
    assert out["tests/test_x.py"] == b"assert True\n"
    assert out["settings.cfg"] == snap["settings.cfg"]


def test_strip_snapshot_excludes_teacher_only_paths(tmp_path):
    config = make_config(tmp_path)
    snap = Snapshot({
        "tests/hidden_prop.py": b"assert False\n",
        "tasks/t1.yaml": b"suite_max: 1\n",
        "visible.py": b"x = 1\n",
    })
    out = strip_snapshot(snap, config)
    assert sorted(out.paths()) == ["visible.py"]


def test_strip_snapshot_empty_is_empty(tmp_path):
    assert strip_snapshot(Snapshot(), make_config(tmp_path)).paths() == ()


def test_strip_snapshot_reports_all_files(tmp_path):
    config = make_config(tmp_path)
    snap = Snapshot({
        "a.py": b"# BEGIN STRIP\n",
        "b.py": b"# END STRIP\n",
    })
    with pytest.raises(MarkerViolationError) as err:
        strip_snapshot(snap, config)
    paths = sorted(v.path for v in err.value.violations)
    assert paths == ["a.py", "b.py"]
    codes = {v.path: v.code for v in err.value.violations}
    assert codes == {"a.py": "unclosed-begin", "b.py": "end-without-begin"}


def test_strip_snapshot_is_deterministic(tmp_path):
    config = make_config(tmp_path)
    rng = random.Random(7)
    files = {f"f{i}.py": generate_valid(rng, PY).encode() for i in range(6)}
    snap = Snapshot(files)
    first = strip_snapshot(snap, config)
    second = strip_snapshot(snap, config)
    assert dict(first.items()) == dict(second.items())


# SHA-256 of the template tree digest of the pinned tree below
PINNED_TEMPLATE_SHA256 = (
    "02224277b32e5cbcd1e7b33786408dfc662893ff594d6eb998ef541874b218a3")


def test_seeded_tree_strips_to_pinned_bytes(tmp_path):
    """A seeded tree of marked files in four dialects, with a binary file,
    an unknown extension and a teacher-only path, strips to the reference
    oracle's bytes and to a pinned template digest."""
    config = make_config(tmp_path)
    rng = random.Random(20261019)
    dialects = {ext: next(d for d in DEFAULT_DIALECTS
                          if ext in d.file_extensions)
                for ext in ("java", "py", "sql", "tex")}
    marked = {f"src/m{i}.{ext}": generate_valid(rng, dialect)
              for ext, dialect in dialects.items() for i in range(40)}
    other = {
        "data/blob.java": b"\xff\xfe\x00// BEGIN STRIP\n",
        "notes.txt": b"plain // BEGIN STRIP still fine\n",
        "tests/hidden_prop.py": b"# BEGIN STRIP\nassert False\n",
    }
    solution = Snapshot({**{p: t.encode() for p, t in marked.items()},
                         **other})
    out = strip_snapshot(solution, config)
    for path, text in marked.items():
        dialect = dialects[path.rsplit(".", 1)[1]]
        assert out[path] == reference_strip(text, dialect).encode(), path
    assert out["data/blob.java"] == other["data/blob.java"]
    assert out["notes.txt"] == other["notes.txt"]
    assert "tests/hidden_prop.py" not in out
    assert len(out.paths()) == len(marked) + 2
    digest = hashlib.sha256(out.tree_digest()).hexdigest()
    assert digest == PINNED_TEMPLATE_SHA256


def test_random_files_agree_with_reference_oracle(tmp_path):
    config = make_config(tmp_path)
    rng = random.Random(20260815)
    checked_valid = checked_invalid = 0
    for i in range(300):
        dialect, name = (PY, "m.py") if i % 2 else (JAVA, "M.java")
        text = (generate_valid(rng, dialect) if i % 3 == 0
                else generate_soup(rng, dialect))
        expected = reference_validate(text, dialect)
        try:
            doc = parse_markers(name, text.encode(), config)
        except MarkerViolationError as err:
            got = [(v.line, v.code) for v in err.violations]
            assert got == expected, f"case {i}:\n{text!r}"
            checked_invalid += 1
            continue
        assert expected == [], f"case {i} should have been rejected:\n{text!r}"
        checked_valid += 1
        stripped = strip_document(doc)
        assert stripped == reference_strip(text, dialect).encode(), \
            f"case {i}:\n{text!r}"
    assert checked_valid > 50 and checked_invalid > 50


def test_valid_random_files_satisfy_strip_properties(tmp_path):
    config = make_config(tmp_path)
    rng = random.Random(99)
    tokens = (PY.begin_token, PY.end_token, PY.student_token)
    for i in range(200):
        text = generate_valid(rng, PY)
        doc = parse_markers("m.py", text.encode(), config)
        stripped = strip_document(doc)
        out_text = stripped.decode()
        # token elimination
        for line in out_text.splitlines():
            assert not any(t in line for t in tokens), (text, out_text)
        # non-growth
        assert len(out_text.splitlines()) <= len(text.splitlines())
        # idempotence: stripping the output changes nothing
        again = strip_document(parse_markers("m.py", stripped, config))
        assert again == stripped
