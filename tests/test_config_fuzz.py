"""Hostile values for every config key, run through ``dvlae.cli.main``.

The key comes from ``dvlae.config.SCHEMA``, so a key added there is fuzzed
with no edit here; the value is a number edge case or junk text.
``fingerprint``, both screening paths and ``embed`` must exit 0 or 1 on each;
exit 2 means a bug.  The corpus is six small cells, so a value that would
exhaust the host (a huge bin count, iteration count or cutoff) must be refused
by the program's own bounds.
"""

import configparser
import contextlib
import io
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dvlae import Structure, to_extxyz
from dvlae.cli import main
from dvlae.config import SCHEMA

RUN_INI = """\
[run]
format = 1
seed = 3
output = fz_out

[data]
manifests = manifest.txt
elements = Fe H

[descriptors]
cutoff = 2.5
radial_eta = 0.0 1.0
angular_eta = 0.0
zeta = 1
lambda = 1
kinds = G4

[fingerprint]
bins = 4
reference = auto

[screening]
mode = hamming
radius = 1
threshold = 0.1

[embedding]
method = tsne
perplexity = 1
iterations = 50
"""

KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]
VALUES = ["nan", "inf", "-inf", "1e308", "-1", "0", "1e-320", "99999999999", "junk", ""]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Six three-atom cells, their manifest, a valid config and its fingerprints."""
    d = tmp_path_factory.mktemp("config_fuzz")
    rng = np.random.default_rng(0)
    structures = [
        Structure(cell=np.eye(3) * (3.0 + 0.25 * i), species=("Fe", "H", ("Fe", "H")[i % 2]),
                  positions=rng.uniform(0.0, 3.0, (3, 3)), periodic=(True,) * 3, id=f"s{i}")
        for i in range(6)
    ]
    (d / "data.xyz").write_text(to_extxyz(structures))
    (d / "manifest.txt").write_text("data.xyz\n")
    (d / "run.ini").write_text(RUN_INI)
    assert _run(["fingerprint", "--config", d / "run.ini", "--out", d / "fp"])[0] == 0
    return d


FUZZ = settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(entry=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
@example(entry=("run", "seed"), value="-1")     # numpy's default_rng once raised on it
@example(entry=("screening", "radius"), value="-1")
@example(entry=("embedding", "iterations"), value="99999999999")
@example(entry=("fingerprint", "bins"), value="99999999999")
def test_hostile_value_exits_zero_or_one(ws, entry, value):
    section, key = entry
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(RUN_INI)
    parser[section][key] = value
    text = io.StringIO()
    parser.write(text)
    (ws / "fz.ini").write_text(text.getvalue())
    fps = ws / "fp" / "fingerprints.txt"
    for argv in (["fingerprint"],
                 ["screen", "--fingerprints", fps],
                 ["screen", "--mode", "novelty", "--training-manifest", ws / "manifest.txt"],
                 ["embed", "--input", fps]):
        code, err = _run([argv[0], "--config", ws / "fz.ini", *argv[1:]])
        assert code in (0, 1), f"{section}.{key} = {value!r}, {argv[0]}: exit {code}\n{err}"
        if code == 1:
            assert err.startswith("error: "), err
