"""Smoke runs of the demo scripts under ``scripts/`` at small sizes."""

import os
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
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
