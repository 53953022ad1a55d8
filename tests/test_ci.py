"""The CI workflow files parse as YAML, so a runner can read their jobs."""

from pathlib import Path

import pytest


def test_workflow_files_are_valid_yaml():
    yaml = pytest.importorskip("yaml")
    paths = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))
    assert paths
    for path in paths:
        assert "jobs" in yaml.safe_load(path.read_text()), path.name
