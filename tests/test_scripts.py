"""Smoke runs of the demo scripts under ``scripts/`` at small sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, outputs", [
    ("make_demo_dataset.py", ["--frames", "5", "--duplicates", "2"],
     ["data.xyz", "manifest.txt", "ref.xyz", "run.ini"]),
    ("supercell_contrast.py", [],
     ["pca_baseline.svg", "pca_fingerprint.svg", "tsne_baseline.svg", "tsne_fingerprint.svg"]),
    ("ood_demo.py", ["--training", "20", "--predictions", "8", "--outliers", "2", "--top-n", "2"],
     ["ood_map.svg"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), str(tmp_path), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # Warnings print as the CLI prints them: one ``warning: `` line each.
    assert "UserWarning:" not in proc.stderr, proc.stderr
    assert not re.search(r"\.py:\d+:", proc.stderr), proc.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0


def test_readme_library_sketch_runs(tmp_path):
    """The README's "Library sketch" block, on a 110-structure demo corpus
    (t-SNE's default perplexity of 30 needs at least 92 points)."""
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_dataset.py"), str(tmp_path),
                    "--frames", "50", "--duplicates", "10"], env=env, check=True, timeout=120)
    proc = subprocess.run([sys.executable, "-c", sketch], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
