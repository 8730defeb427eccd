"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones are executed end to
end (marked slow are the multi-second training demos, still run in the
full suite).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_populated():
    names = {p.name for p in ALL_EXAMPLES}
    # The three mandated examples plus the domain-specific ones.
    assert "quickstart.py" in names
    assert "paper_experiment.py" in names
    assert "csc_comparison.py" in names
    assert len(names) >= 8


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[p.stem for p in ALL_EXAMPLES]
)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[p.stem for p in ALL_EXAMPLES]
)
def test_example_has_docstring_and_main(path):
    source = path.read_text()
    assert source.lstrip().startswith(('"""', '#!')), path.name
    assert "def main()" in source, path.name
    assert '__name__ == "__main__"' in source, path.name


@pytest.mark.slow
def test_quickstart_executes():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "reconstruction accuracy" in result.stdout


@pytest.mark.slow
def test_paper_experiment_reduced_budget_executes():
    result = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "paper_experiment.py"),
            "--iterations",
            "10",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Fig. 4a" in result.stdout


@pytest.mark.slow
def test_density_noise_analysis_executes():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "density_noise_analysis.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    ideal = next(
        line for line in result.stdout.splitlines()
        if line.startswith("none (ideal)")
    )
    assert [cell.strip() for cell in ideal.split("|")][3] == "1.0000"
