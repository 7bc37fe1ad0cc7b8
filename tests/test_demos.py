"""Every demo runs and prints the bytes it printed when its digest was
recorded, and every `python` block of the README runs to exit 0."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"

STDOUT_SHA256 = {
    "01_spaces_and_simple_functions.py": "0c088499ade63a9e7744b0f86cf9943a61e4cd9b08f93836d7990cc11697d24f",
    "02_staircase_convergence.py": "88f357b4650efcfcc98dce6bebb4e0f10216ee17cd9cb08c49ecbfcdda32044d",
    "03_equivalence_roundtrip.py": "f25a972f5182138684c225b54bfd9bfa76c5d4baba56a9c50c431aaa2666f00d",
    "04_vector_values_and_norms.py": "2a2583e65c1d057dcdbdf08efa778da70f981bbf6fd3d14f1a179af8faa1c555",
    "05_generators_and_task_files.py": "0588170ac1fc6e3995da8a46973483802ecd1249c25b8362bfe33c0ea2eaba86",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_recorded_bytes(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
