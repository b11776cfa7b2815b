"""The CI workflow is valid YAML and defines the jobs it exists to run.

A workflow that does not parse runs no job at all, and nothing else fails."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
LINE_COUNT_STEP = """\
        run: |
          echo "src/ line count: $(git ls-files 'src/*.py' | xargs cat | wc -l)" >> "$GITHUB_STEP_SUMMARY"
"""


def jobs(text: str) -> dict:
    return yaml.safe_load(text)["jobs"]


def test_workflow_defines_the_tier1_and_runtime_only_jobs():
    found = jobs(WORKFLOW.read_text())
    assert {"tier1", "runtime-only"} <= found.keys()
    for name in ("tier1", "runtime-only"):
        steps = found[name]["steps"]
        assert steps and all("uses" in step or "run" in step for step in steps), name


def test_an_unquoted_colon_in_a_plain_scalar_fails_the_parse():
    # the line-count step written on one line: its "count: " starts a mapping
    text = WORKFLOW.read_text()
    assert LINE_COUNT_STEP in text
    one_line = "        run: " + LINE_COUNT_STEP.splitlines()[1].strip() + "\n"
    with pytest.raises(yaml.YAMLError):
        jobs(text.replace(LINE_COUNT_STEP, one_line))


def test_tier1_runs_the_benchmark_self_test():
    # the only check that fails when src/ stops resolving a name that
    # perfbench/tracing.py wraps (cli.extract_all, model_selection.fit_pls, ...)
    steps = jobs(WORKFLOW.read_text())["tier1"]["steps"]
    assert "python3 perfbench/selftest.py" in [step.get("run", "").strip() for step in steps]


def test_runtime_only_compares_two_runs_of_experiments_and_train():
    # the CV sweep's determinism, checked where only numpy is installed
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    for first, second in (
        ("experiments-1.json", "experiments-2.json"),
        ("model-1.json", "model-2.json"),
        ("model-1.report.json", "model-2.report.json"),
    ):
        assert f'cmp "$work/{first}" "$work/{second}"' in script


def test_runtime_only_memory_guard_extracts_a_float64_image():
    # float payloads are checked for NaN in streamed chunks: the guard holds
    # a float64 copy of its scan to the same peak RSS limit as the int16 one
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    assert 'write_nifti(work / "image-float64.nii", image.astype(np.float64), spacing)' in script
