"""The CI workflow is valid YAML and defines the jobs it exists to run,
``tests/guards.py``, the checks its numpy-only job runs, keeps its limits and
measures what it says, and the README's Python API imports what it names.

A workflow that does not parse runs no job at all, and nothing else fails."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import guards
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
LINE_COUNT_STEP = """\
        run: |
          echo "src/ line count: $(git ls-files 'src/*.py' | xargs cat | wc -l)" >> "$GITHUB_STEP_SUMMARY"
"""


def jobs(text: str) -> dict:
    return pytest.importorskip("yaml").safe_load(text)["jobs"]


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
    with pytest.raises(pytest.importorskip("yaml").YAMLError):
        jobs(text.replace(LINE_COUNT_STEP, one_line))


def test_tier1_summary_gives_the_cli_import_time(tmp_path):
    # the step's own shell lines, run here, write one line with the time
    steps = jobs(WORKFLOW.read_text())["tier1"]["steps"]
    runs = [step["run"] for step in steps if "-X importtime" in step.get("run", "")]
    assert len(runs) == 1
    summary = tmp_path / "summary.md"
    env = dict(os.environ, GITHUB_STEP_SUMMARY=str(summary))
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(["bash", "-e", "-o", "pipefail", "-c", runs[0]], env=env, cwd=ROOT, check=True, timeout=120)
    assert re.fullmatch(r"CLI import time: \d+\.\d ms\n", summary.read_text())


@pytest.mark.parametrize("status, last", [(0, "719 passed in 34.12s"), (1, "1 failed, 718 passed in 34.98s")])
def test_tier1_summary_gives_the_test_count_and_time(tmp_path, status, last):
    # the step's own shell lines, run here with a stand-in python printing a
    # canned pytest output: one summary line, and pytest's exit status kept
    steps = jobs(WORKFLOW.read_text())["tier1"]["steps"]
    runs = [step["run"] for step in steps if "pytest" in step.get("run", "")]
    assert len(runs) == 1
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    canned = ["....F  [100%]", "==== slowest 10 durations ====", "3.10s call  tests/test_cli.py::test_x", last]
    script = "#!/bin/sh\nprintf '%s\\n' " + " ".join(f"'{line}'" for line in canned) + f"\nexit {status}\n"
    (bin_dir / "python").write_text(script)
    (bin_dir / "python").chmod(0o755)
    summary = tmp_path / "summary.md"
    env = dict(os.environ, GITHUB_STEP_SUMMARY=str(summary))
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    done = subprocess.run(["bash", "-e", "-c", runs[0]], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == status
    assert done.stdout.splitlines() == canned
    assert summary.read_text() == f"Tier-1 tests: {last}\n"


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


def test_dev_mode_runs_tier1_with_resource_warnings_as_errors():
    steps = jobs(WORKFLOW.read_text())["dev-mode"]["steps"]
    runs = [step["run"].split() for step in steps if "pytest" in step.get("run", "")]
    assert len(runs) == 1
    assert runs[0][1:] == ["python", "-X", "dev", "-m", "pytest", "-q", "-W", "error::ResourceWarning"]


def test_blas_margin_runs_the_golden_tests_under_the_prescott_kernel():
    # the golden outputs move under another OpenBLAS kernel; this job fails
    # when a move reaches test_golden.py's REL, under Prescott and under Haswell,
    # or when the model layer's bit-for-bit tests or the features' exact tests
    # fail under either kernel
    job = jobs(WORKFLOW.read_text())["blas-margin"]
    assert job["strategy"] == {"fail-fast": False, "matrix": {"kernel": ["Prescott", "Haswell"]}}
    runs = [step["run"] for step in job["steps"] if "pytest" in step.get("run", "")]
    assert len(runs) == 1
    assert runs[0].startswith("OPENBLAS_CORETYPE=${{ matrix.kernel }} ")
    assert runs[0].split()[-6:] == [
        "pytest",
        "-q",
        "tests/test_golden.py",
        "tests/test_pls.py",
        "tests/test_model_selection.py",
        "tests/test_features.py",
    ]


def test_runtime_only_runs_the_entry_point_and_the_guards():
    # numpy alone installed: the console script must start, and every guard run
    steps = jobs(WORKFLOW.read_text())["runtime-only"]["steps"]
    commands = [line.strip() for step in steps for line in step.get("run", "").splitlines()]
    assert "python -m pip install -e ." in commands
    assert commands.index("ctradiomics --help > /dev/null") < commands.index("python tests/guards.py")


def test_guards_keep_their_limits_cohorts_and_variants():
    assert guards.PIPELINE_COHORTS == {"train": (4, 1), "test": (2, 2)}
    assert guards.RUN_OPTIONS == ("--kfold", "3", "--max-lv", "3")
    assert guards.EXTRACT_LIMIT_MB == 200
    assert (guards.CT_DIMS, guards.CT_SPACING, guards.CT_SEED) == ((512, 512, 100), (0.7, 0.7, 2.5), 0)
    assert guards.CT_BALLS == ((90.0, 12.0), (180.0, 20.0), (270.0, 35.0))
    # float images are checked for NaN in streamed chunks, and float masks
    # streamed into uint8 labels: both held to the int16 scan's limit
    assert guards.CT_VARIANTS == {
        "": ("int16", "uint8"),
        "-float64": ("float64", "uint8"),
        "-float32-mask": ("int16", "float32"),
    }
    # a 3 x 3 x 2 block of bone in the largest ball, extracted at bin width 1
    assert (guards.BONE_HU, guards.BONE_BLOCK) == (2000, (slice(385, 388), slice(255, 258), slice(50, 52)))
    assert (guards.FLOAT_BONE_HU, guards.BONE_VARIANTS) == (1e6, ("-bone", "-float32-bone"))
    # phantom holds one scan at a time: 40 scans a class peak at most 10 MB above 2
    assert (guards.PHANTOM_N_PER_CLASS, guards.PHANTOM_SEED, guards.PHANTOM_GROWTH_LIMIT_MB) == ((2, 40), 1, 10)
    assert guards.SAME_BYTES == (
        ("train.csv", "train-jobs2.csv"),  # the pool and its retry path
        ("train.csv", "train-memory.csv"),  # generate_phantom + extract_scan, the Python API's route
        ("experiments-1.json", "experiments-2.json"),  # the CV sweep, run twice
        ("model-1.json", "model-2.json"),
        ("model-1.report.json", "model-2.report.json"),
        ("ct.csv", "ct-float64.csv"),  # the float variants hold the int16 and uint8 values
        ("ct.csv", "ct-float32-mask.csv"),
    )


def test_peak_mb_measures_the_child_not_its_parent():
    # a child forked from this process would report its 200 MB as its own peak
    held = np.ones(200 * 2**20, dtype=np.uint8)
    assert guards.peak_mb([sys.executable, "-c", "pass"]) < 50
    assert held.sum() == held.size
    with pytest.raises(subprocess.CalledProcessError):
        guards.peak_mb([sys.executable, "-c", "raise SystemExit(3)"])


def test_guards_print_one_line_per_check_and_fail_on_any(monkeypatch, capsys):
    def writes(work):
        for name, text in (("a", "x"), ("b", "x"), ("c", "y")):
            (work / name).write_text(text)
        yield True, "wrote a, b and c"

    def stops(work):
        yield False, "first check"
        raise subprocess.CalledProcessError(3, ["ctradiomics", "extract"])

    monkeypatch.setattr(guards, "SAME_BYTES", (("a", "b"), ("a", "c"), ("a", "missing")))
    monkeypatch.setattr(guards, "GUARDS", (writes, stops, guards.same_bytes))
    assert guards.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok   wrote a, b and c",
        "FAIL first check",
        "FAIL stops: ctradiomics extract exited 3",
        "ok   same bytes: a b",
        "FAIL same bytes: a c",
        "FAIL same bytes: a missing",
    ]
    monkeypatch.setattr(guards, "SAME_BYTES", (("a", "b"),))
    monkeypatch.setattr(guards, "GUARDS", (writes, guards.same_bytes))
    assert guards.main() == 0


def test_readme_python_api_imports_what_the_package_exports():
    # a name the README imports after the package dropped it is doc rot that no other test sees
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    imports = [node for node in ast.parse(block).body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
    import ctradiomics
    import ctradiomics.features

    for module in (ctradiomics, ctradiomics.features):
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
