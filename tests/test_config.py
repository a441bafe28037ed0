"""Configuration loading, validation totality and pattern semantics."""

from __future__ import annotations

import pytest

from courseforge.config import (
    ConfigError,
    CourseConfig,
    MarkerDialect,
    PathFilter,
    TaskDef,
    load_config,
    parse_config,
    validate_pattern,
)

MINIMAL = "course_id: cs101\nbot_account: bot\n"


def test_minimal_config_defaults():
    config = parse_config(MINIMAL)
    assert config.course_id == "cs101"
    assert config.bot_account == "bot"
    assert config.template_repo_name == "cs101-template"
    assert config.teacher_repo_name == "cs101-solutions"
    assert config.timezone == "UTC"
    assert config.tasks == ()
    assert config.compile_command is None and config.test_command is None


def test_minimal_config_ships_default_dialects():
    config = parse_config(MINIMAL)
    assert config.dialect_for("a/b/Main.java").comment_prefix == "//"
    assert config.dialect_for("x.py").comment_prefix == "#"
    assert config.dialect_for("q.sql").comment_prefix == "--"
    assert config.dialect_for("doc.tex").comment_prefix == "%"
    assert config.dialect_for("notes.txt") is None
    assert config.dialect_for("Makefile") is None
    assert config.dialect_for("UPPER.PY").comment_prefix == "#"


def test_single_declared_dialect_overrides_default():
    config = parse_config(
        MINIMAL + "dialects:\n"
        "  - extensions: [java]\n"
        "    comment_prefix: '//'\n"
        "    begin_token: CUT\n"
        "    end_token: UNCUT\n"
        "    student_token: GIVE\n")
    d = config.dialect_for("Main.java")
    assert (d.begin_token, d.end_token, d.student_token) == ("CUT", "UNCUT", "GIVE")
    # other defaults still present
    assert config.dialect_for("x.py").begin_token == "BEGIN STRIP"


def test_duplicate_extension_across_dialects_rejected():
    text = (MINIMAL + "dialects:\n"
            "  - extensions: [java]\n    comment_prefix: '//'\n"
            "  - extensions: [java]\n    comment_prefix: '#'\n")
    with pytest.raises(ConfigError, match="duplicate extension"):
        parse_config(text)


def test_two_dialects_two_tasks_echoed():
    text = (MINIMAL
            + "dialects:\n"
              "  - extensions: [java]\n    comment_prefix: '//'\n"
              "  - extensions: [py]\n    comment_prefix: '#'\n"
              "tasks:\n"
              "  - id: t1\n    manifest: tasks/t1.yaml\n"
              "  - id: t2\n    manifest: tasks/t2.yaml\n    statement: part two\n")
    config = parse_config(text)
    assert [t.task_id for t in config.tasks] == ["t1", "t2"]
    assert config.task("t2").statement == "part two"
    assert config.dialect_for("A.java").comment_prefix == "//"
    assert config.dialect_for("a.py").comment_prefix == "#"


def test_every_field_is_parsed(tmp_path):
    text = (MINIMAL
            + "timezone: Europe/Brussels\n"
              "template_repo_name: tpl\n"
              "teacher_only_paths: ['hidden/**']\n"
              "replaced_paths: ['tests/**', 'build.cfg']\n"
              "archive_paths: ['src/**']\n"
              "sensitive_patterns: ['**/*.pem']\n"
              "dialects:\n  - extensions: [m]\n    comment_prefix: '%'\n"
              "tasks:\n  - id: t1\n    manifest: tasks/t1.yaml\n"
              "executor:\n"
              "  compile_command: [make]\n"
              "  test_command: [make, 'check-{test_id}']\n")
    config = parse_config(text, base_dir=tmp_path)
    assert config.course_id == "cs101"
    assert config.bot_account == "bot"
    assert config.template_repo_name == "tpl"
    assert config.teacher_repo_name == "cs101-solutions"
    assert config.timezone == "Europe/Brussels"
    assert config.state_dir == str(tmp_path / "state")
    assert config.dialect_for("a.m") == MarkerDialect(("m",), "%")
    assert config.dialect_for("a.tex").comment_prefix == "%"
    assert config.teacher_only_paths == ("hidden/**",)
    assert config.replaced_paths == ("tests/**", "build.cfg")
    assert config.archive_paths == ("src/**",)
    assert config.sensitive_patterns == ("**/*.pem",)
    assert config.tasks == (TaskDef("t1", "tasks/t1.yaml"),)
    assert config.compile_command == ("make",)
    assert config.test_command == ("make", "check-{test_id}")


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "course.yaml"
    path.write_text(MINIMAL + "state_dir: var\n", encoding="utf-8")
    config = load_config(path)
    assert config.state_dir == str(tmp_path / "var")
    assert config == parse_config(path.read_text(encoding="utf-8"),
                                  base_dir=tmp_path)


def test_missing_required_fields():
    with pytest.raises(ConfigError, match="course_id"):
        parse_config("bot_account: bot\n")
    with pytest.raises(ConfigError, match="bot_account"):
        parse_config("course_id: c\n")


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown keys: nonsense"):
        parse_config(MINIMAL + "nonsense: 1\n")
    with pytest.raises(ConfigError, match="dialects\\[0\\]"):
        parse_config(MINIMAL + "dialects:\n"
                     "  - extensions: [py]\n    comment_prefix: '#'\n"
                     "    color: red\n")
    with pytest.raises(ConfigError, match="tasks\\[0\\]"):
        parse_config(MINIMAL + "tasks:\n"
                     "  - id: t\n    manifest: m.yaml\n    points: 3\n")
    with pytest.raises(ConfigError, match="executor"):
        parse_config(MINIMAL + "executor:\n  shell: bash\n")


def test_yaml_syntax_error_carries_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config("course_id: [unclosed\n")


def test_non_mapping_top_level_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("- a\n- b\n")


def test_duplicate_task_ids_rejected():
    with pytest.raises(ConfigError, match="duplicate task id 't1'"):
        parse_config(MINIMAL + "tasks:\n"
                     "  - id: t1\n    manifest: a.yaml\n"
                     "  - id: t1\n    manifest: b.yaml\n")


def test_bad_patterns_rejected():
    for pattern, reason in (
            ("", "empty pattern"),
            ("/abs/x", "pattern must be repo-relative (no leading '/')"),
            ("a//b", "empty path segment"),
            ("x/../y", "'..' segments are not allowed"),
            ("tests/", "pattern must not end with '/'"),
            ("a**b", "'**' must be a complete path segment"),
            ("ba\\\\ck", "use forward slashes only")):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"replaced_paths: ['{pattern}']\n",
                         source="x.yaml")
        assert str(err.value) == \
            f"x.yaml: replaced_paths: bad pattern {pattern!r}: {reason}"


def test_load_config_errors_name_the_file(tmp_path):
    path = tmp_path / "course.yaml"
    for body in ("tasks:\n  - id: t1\n    manifest: a.yaml\n"
                 "  - id: t1\n    manifest: b.yaml\n",
                 "dialects:\n  - extensions: [java]\n    comment_prefix: '//'\n"
                 "  - extensions: [java]\n    comment_prefix: '#'\n",
                 "replaced_paths: ['a//b']\n"):
        path.write_text(MINIMAL + body, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: "), err.value


def test_task_and_dialect_errors_name_the_file_and_entry():
    for body, where, reason in (
            ("tasks:\n  - id: t\n    manifest: /etc/m.yaml\n", "tasks[0]",
             "task 't' manifest path: invalid repo path: '/etc/m.yaml'"),
            ("dialects:\n  - extensions: [py]\n    comment_prefix: '#'\n"
             "  - extensions: [java]\n    comment_prefix: ''\n", "dialects[1]",
             "dialect comment_prefix must be non-empty"),
            ("tasks:\n  - id: ''\n    manifest: m.yaml\n", "tasks[0]",
             "task id must be non-empty")):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + body, source="x.yaml")
        assert str(err.value) == f"x.yaml: {where}: {reason}"


def test_a_task_id_cannot_leave_the_archive_store():
    """``grade`` archives under ``<store>/<task_id>/``."""
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "tasks:\n  - id: ../../escaped\n"
                     "    manifest: m.yaml\n", source="x.yaml")
    assert str(err.value) == \
        "x.yaml: tasks[0]: invalid task id: '../../escaped'"
    config = parse_config(MINIMAL + "tasks:\n  - id: week 1/lab\n"
                          "    manifest: m.yaml\n")
    assert [t.task_id for t in config.tasks] == ["week 1/lab"]


def test_task_manifest_path_must_be_repo_relative():
    with pytest.raises(ConfigError, match="manifest path"):
        parse_config(MINIMAL + "tasks:\n  - id: t\n    manifest: /etc/m.yaml\n")


def test_executor_command_must_be_string_list():
    with pytest.raises(ConfigError, match="compile_command"):
        parse_config(MINIMAL + "executor:\n  compile_command: make\n")
    with pytest.raises(ConfigError, match="test_command"):
        parse_config(MINIMAL + "executor:\n  test_command: []\n")
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "executor:\n  compile_command: []\n",
                     source="x.yaml")
    assert str(err.value) == "x.yaml: executor.compile_command must be non-empty"


def test_test_command_without_placeholder_is_rejected_at_load():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "executor:\n  test_command: [make, check]\n",
                     source="x.yaml")
    assert str(err.value) == \
        "x.yaml: executor.test_command must reference {test_id}"


def test_dialect_invariants_enforced_directly():
    with pytest.raises(ConfigError, match="comment_prefix"):
        MarkerDialect(("py",), "")
    with pytest.raises(ConfigError, match="extension"):
        MarkerDialect((), "#")
    with pytest.raises(ConfigError, match="distinct"):
        MarkerDialect(("py",), "#", begin_token="X", end_token="X")
    with pytest.raises(ConfigError, match="invalid file extension"):
        MarkerDialect(("tar.gz",), "#")


def test_dialect_extensions_are_canonicalized():
    d = MarkerDialect(("Java", ".KT"), "//")
    assert d.file_extensions == ("java", "kt")


def test_course_config_invariants_enforced_directly():
    with pytest.raises(ConfigError, match="course_id"):
        CourseConfig(course_id="", bot_account="b")
    with pytest.raises(ConfigError, match="duplicate task id"):
        CourseConfig(course_id="c", bot_account="b",
                     tasks=(TaskDef("t", "a.yaml"), TaskDef("t", "b.yaml")))
    with pytest.raises(ConfigError, match="bad pattern"):
        CourseConfig(course_id="c", bot_account="b",
                     sensitive_patterns=("/nope",))
    with pytest.raises(ConfigError, match="state_dir must be non-empty"):
        CourseConfig(course_id="c", bot_account="b", state_dir="")
    with pytest.raises(ConfigError) as err:
        CourseConfig(course_id="c", bot_account="b",
                     template_repo_name="c-solutions")
    assert str(err.value) == ("template_repo_name and teacher_repo_name must "
                              "differ: both are 'c-solutions'")
    with pytest.raises(ConfigError, match="must differ: both are 'x'"):
        parse_config(MINIMAL + "template_repo_name: x\nteacher_repo_name: x\n")


def test_unknown_timezone_is_reported():
    for name in ("Mars/Olympus_Mons", "../x", "/etc/localtime"):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"timezone: {name}\n", source="x.yaml")
        assert str(err.value) == f"x.yaml: unknown timezone {name!r}"
    with pytest.raises(ConfigError, match="unknown timezone 'UTC/x'"):
        CourseConfig(course_id="c", bot_account="b", timezone="UTC/x")


def test_unknown_task_lookup_raises():
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config(MINIMAL).task("zzz")


def test_validate_pattern_accepts_reasonable_globs():
    for pattern in ("a.py", "tests/**", "**/*.pem", "src/*/gen.?", "**"):
        validate_pattern(pattern)


def test_path_filter_star_stays_within_segment():
    f = PathFilter(("src/*.py",))
    assert f.matches("src/a.py")
    assert not f.matches("src/sub/a.py")
    assert not f.matches("a.py")


def test_path_filter_double_star_spans_segments():
    f = PathFilter(("tests/**",))
    assert f.matches("tests/a.py")
    assert f.matches("tests/deep/er/a.py")
    assert not f.matches("tests")
    assert not f.matches("other/tests/a.py")


def test_path_filter_leading_double_star():
    f = PathFilter(("**/*.pem",))
    assert f.matches("key.pem")
    assert f.matches("a/b/key.pem")
    assert not f.matches("key.pem.bak")


def test_path_filter_question_mark():
    f = PathFilter(("f?.txt",))
    assert f.matches("f1.txt")
    assert not f.matches("f12.txt")
    assert not f.matches("f/x.txt")


def test_path_filter_is_anchored_at_root():
    f = PathFilter(("b.py",))
    assert f.matches("b.py")
    assert not f.matches("a/b.py")


def test_path_filter_unmatched_patterns():
    f = PathFilter(("tests/**", "missing/**"))
    assert f.unmatched_patterns(["tests/a.py", "src/m.py"]) == ["missing/**"]


def test_relative_state_dir_resolves_against_config_dir(tmp_path):
    config = parse_config(MINIMAL + "state_dir: deep/state\n", base_dir=tmp_path)
    assert config.state_dir == str(tmp_path / "deep" / "state")
