"""Classroom repository tooling: templates, per-student repos, grading, stats."""

from courseforge.config import ConfigError, CourseConfig, MarkerDialect, TaskDef
from courseforge.repomodel import (
    Commit,
    HostingError,
    HostingService,
    InMemoryHosting,
    Repo,
    RepoModelError,
    Snapshot,
    in_memory_hosting,
)
from courseforge.stripper import (
    MarkerViolation,
    MarkerViolationError,
    StripDocument,
    parse_markers,
    strip_document,
    strip_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "Commit",
    "ConfigError",
    "CourseConfig",
    "HostingError",
    "HostingService",
    "InMemoryHosting",
    "MarkerDialect",
    "MarkerViolation",
    "MarkerViolationError",
    "Repo",
    "RepoModelError",
    "Snapshot",
    "StripDocument",
    "TaskDef",
    "in_memory_hosting",
    "parse_markers",
    "strip_document",
    "strip_snapshot",
    "__version__",
]
