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


def test_tier1_lists_its_slowest_tests():
    # every run shows where tier-1 time goes
    steps = jobs(WORKFLOW.read_text())["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps if "pytest" in step.get("run", "")]
    assert len(runs) == 1 and "--durations=10" in runs[0].split()


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


def test_runtime_only_memory_guard_reads_a_float32_mask():
    # a float mask is streamed into uint8 labels: the guard holds a float32
    # copy of its mask to the same limit, and its rows to the uint8 mask's
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    assert 'write_nifti(work / "mask-float32.nii", labels.astype(np.float32), spacing)' in script
    assert 'for variant in ("", "-float64", "-float32-mask"):' in script
    assert 'cmp "$work/ct.csv" "$work/ct-float32-mask.csv"' in script


def test_runtime_only_compares_rows_in_memory_with_the_cli_files():
    # generate_phantom + extract_scan, the Python API's route, must write the
    # bytes of phantom + extract where only numpy is installed
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    assert "dataio.write_features_csv(sys.argv[1], rows)" in script
    assert 'cmp "$work/train.csv" "$work/train-memory.csv"' in script


def test_runtime_only_memory_guard_runs_two_phantom_cohorts():
    # phantom holds one scan at a time: 40 scans a class may peak at most
    # 10 MB above 2 a class, each started from a small parent
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    script = "\n".join(step.get("run", "") for step in steps)
    assert 'for n in ("2", "40"):' in script
    assert "sys.exit(growth > 10)" in script
