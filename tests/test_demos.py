"""Every script under demos/ runs to completion and reports no
disagreement between the solver and its brute-force checks."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    text = out.getvalue()
    assert text
    assert "DISAGREE" not in text and "MISMATCH" not in text
