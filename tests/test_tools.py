"""The checkout's tools: the line count of src/ and the job digest manifest."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves a line code

# a comment line


def f(x):
    """One line."""
    return x


class C:
    """Spans

    a blank line."""

    def g(self):
        s = """a string, not a docstring"""
        return s
'''


def test_code_lines_counts_a_fixture_source():
    counts = _load("code_lines").count(FIXTURE)
    assert counts == {"code": 7, "docstring": 6, "comment": 1, "blank": 7}
    assert sum(counts.values()) == len(FIXTURE.splitlines())


def _digests(*args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, "digests.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)


def test_digests_repeat_and_compare_finds_one_altered_digest(tmp_path):
    # each run is a fresh process, as CI runs it
    paths = [str(tmp_path / f"{name}.json") for name in ("one", "two")]
    for path in paths:
        done = _digests("run", path, "--workload", "grid-algebra", "--seed", "1")
        assert done.returncode == 0, done.stderr
    first, second = (open(path).read() for path in paths)
    assert first == second
    jobs = json.loads(first)["jobs"]
    assert len(jobs) == 103 and all(job["digest"] for job in jobs)
    done = _digests("compare", *paths)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["103 jobs, 0 differ"]

    jobs[5]["digest"] = "0" * 64
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps({"jobs": jobs}))
    done = _digests("compare", paths[0], str(altered))
    assert done.returncode == 1
    moved, summary = done.stdout.splitlines()
    assert moved.startswith("grid-algebra seed 1 job 5 (")
    assert moved.endswith(' -> "' + "0" * 64 + '"')
    assert summary == "103 jobs, 1 differ"
