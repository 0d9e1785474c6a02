"""Hostile input for every reader, run through ``dvlae.cli.main``.

Each reader gets arbitrary bytes (non-UTF-8 included) and mutations of a
valid file.  Every input must exit 0 or 1; exit 2 means a bug.  The
``TestPathProbes`` cases pin missing, directory, non-UTF-8 and unwritable
paths, each of which once escaped as an internal error.
"""

import contextlib
import io
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dvlae import Structure, to_extxyz
from dvlae.cli import main

from conftest import write_vector_csv

RUN_INI = """\
[run]
format = 1
seed = 3
output = out

[data]
manifests = {manifest}
elements = Fe H
{extra}
[descriptors]
cutoff = 2.5
radial_eta = 0.0 1.0
angular_eta = 0.0
zeta = 1
lambda = 1
kinds = G4

[fingerprint]
bins = 4
reference = path:{reference}

[screening]
mode = exact

[embedding]
method = pca
perplexity = 1
iterations = 50
"""

# Byte strings a mutation may splice in: number edge cases, separators,
# comment and quote characters, and an invalid UTF-8 byte.
TOKENS = [b"nan", b"inf", b"-1", b"0", b"1e308", b"99999999999", b"\xff", b"\t", b"\n",
          b",", b"#", b'"', b"=", b"[", b"]", b"{}", b"null", b" ", b"\r\n"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _structures():
    def cell(a):
        return np.eye(3) * a

    return [
        Structure(cell=cell(4.0), species=("Fe", "H"), positions=[[0, 0, 0], [1.5, 0.5, 0]],
                  periodic=(True,) * 3, id="a", tag="solid"),
        Structure(cell=np.zeros((3, 3)), species=("Fe", "H", "H"),
                  positions=[[0, 0, 0], [1.0, 0, 0], [0, 1.2, 0]],
                  periodic=(False,) * 3, id="b", tag="gas"),
        Structure(cell=cell(3.5), species=("Fe", "Fe", "H"),
                  positions=[[0, 0, 0], [1.75, 1.75, 0], [0, 1.75, 1.75]],
                  periodic=(True, True, False), id="c"),
    ]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A valid workspace: corpus, configs, fingerprints, embedding, vectors."""
    d = tmp_path_factory.mktemp("fuzz")
    structures = _structures()
    (d / "data.xyz").write_text(to_extxyz(structures))
    (d / "ref.xyz").write_text(to_extxyz(structures[:1]))
    (d / "manifest.txt").write_text("data.xyz\n")
    (d / "run.ini").write_text(RUN_INI.format(manifest="manifest.txt", extra="",
                                              reference="ref.xyz"))
    assert _run(["fingerprint", "--config", d / "run.ini", "--out", d / "fp"])[0] == 0
    assert _run(["embed", "--config", d / "run.ini", "--input", d / "fp" / "fingerprints.txt",
                 "--out", d / "emb"])[0] == 0
    ids = [line.split("\t")[0]
           for line in (d / "fp" / "fingerprints.txt").read_text().splitlines()[2:]]
    (d / "ids.txt").write_text("# kept\n" + "\n".join(ids[:2]) + "\n")
    write_vector_csv(ids, ["solid", None, "gas"], np.arange(9.0).reshape(3, 3) ** 1.5,
                     d / "vectors.csv")

    (d / "xyz_manifest.txt").write_text("fz_data.xyz\n")
    configs = {"xyz.ini": ("xyz_manifest.txt", ""), "manifest.ini": ("fz_manifest.txt", ""),
               "keep.ini": ("manifest.txt", "keep_ids = fz_ids.txt\n")}
    for name, (manifest, extra) in configs.items():
        (d / name).write_text(RUN_INI.format(manifest=manifest, extra=extra, reference="ref.xyz"))
    return d


def _out(ws):
    return ["--out", ws / "fz_out"]


# reader -> (valid file to mutate, file the fuzz bytes go to, argv that reads it)
READERS = {
    "extxyz": ("data.xyz", "fz_data.xyz",
               lambda ws: ["fingerprint", "--config", ws / "xyz.ini", *_out(ws)]),
    "manifest": ("manifest.txt", "fz_manifest.txt",
                 lambda ws: ["fingerprint", "--config", ws / "manifest.ini", *_out(ws)]),
    "fingerprints": ("fp/fingerprints.txt", "fz_fingerprints.txt",
                     lambda ws: ["ood", "--config", ws / "run.ini", "--training",
                                 ws / "fz_fingerprints.txt", "--predictions",
                                 ws / "fp/fingerprints.txt", *_out(ws)]),
    "config": ("run.ini", "fz_run.ini",
               lambda ws: ["ood", "--config", ws / "fz_run.ini", "--training",
                           ws / "fp/fingerprints.txt", "--predictions",
                           ws / "fp/fingerprints.txt", *_out(ws)]),
    "spec": ("fp/histogram_spec.json", "fz_spec.json",
             lambda ws: ["fingerprint", "--config", ws / "run.ini", "--spec",
                         ws / "fz_spec.json", *_out(ws)]),
    "embedding": ("emb/embedding.csv", "fz_embedding.csv",
                  lambda ws: ["plot", "--embedding", ws / "fz_embedding.csv",
                              "--out", ws / "fz_out/map.svg"]),
    "vectors": ("vectors.csv", "fz_vectors.csv",
                lambda ws: ["embed", "--config", ws / "run.ini", "--input",
                            ws / "fz_vectors.csv", "--method", "pca", *_out(ws)]),
    "keep_ids": ("ids.txt", "fz_ids.txt",
                 lambda ws: ["fingerprint", "--config", ws / "keep.ini", *_out(ws)]),
    "highlight": ("ids.txt", "fz_ids.txt",
                  lambda ws: ["plot", "--embedding", ws / "emb/embedding.csv", "--highlight",
                              ws / "fz_ids.txt", "--out", ws / "fz_out/map.svg"]),
}


@st.composite
def mutations(draw, valid: bytes):
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "token", "delete", "repeat"]))
        if op == "replace" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif op == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=8))
        elif op == "token":
            data[i:i + draw(st.integers(0, 3))] = draw(st.sampled_from(TOKENS))
        elif op == "delete":
            del data[i:i + draw(st.integers(1, 24))]
        elif op == "repeat":
            j = draw(st.integers(i, min(len(data), i + 80)))
            data[j:j] = data[i:j]
    return bytes(data)


def _check(ws, reader, raw: bytes):
    _, target, argv = READERS[reader]
    (ws / target).write_bytes(raw)
    code, err = _run(argv(ws))
    assert code in (0, 1), f"{reader}: exit {code} for {raw!r}\n{err}"
    if code == 1:
        assert err.startswith("error: "), err


FUZZ = settings(max_examples=25, deadline=timedelta(seconds=2), derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(raw=st.binary(max_size=400))
@example(raw=b"\xff\xfe")
@example(raw=b"")
def test_arbitrary_bytes(ws, reader, raw):
    _check(ws, reader, raw)


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data())
def test_mutated_valid_file(ws, reader, data):
    _check(ws, reader, data.draw(mutations((ws / READERS[reader][0]).read_bytes())))


def test_nul_byte_in_named_path(ws):
    # Path("a\0b").read_text() raises ValueError, not OSError
    _check(ws, "manifest", b"da\x00ta.xyz\n")
    text = (ws / "run.ini").read_bytes().replace(b"output = out", b"output = o\x00ut")
    (ws / "nul_output.ini").write_bytes(text)
    code, err = _run(["fingerprint", "--config", ws / "nul_output.ini"])
    assert code == 1 and "embedded null byte" in err, err


def _probe_files(d: Path):
    """Bad inputs beside a valid workspace, for the path probes."""
    (d / "adir").mkdir(exist_ok=True)
    (d / "latin1.bin").write_bytes(b"\xff\xfe caf\xe9\n")
    (d / "latin1.ini").write_bytes((d / "run.ini").read_bytes() + b"; caf\xe9\n")
    (d / "latin1_manifest.txt").write_text("latin1.bin\n")
    text = (d / "run.ini").read_text()
    variants = {
        "dir_manifest.ini": ("manifests = manifest.txt", "manifests = adir"),
        "dir_keep.ini": ("elements = Fe H", "elements = Fe H\nkeep_ids = adir"),
        "latin1_xyz.ini": ("manifests = manifest.txt", "manifests = latin1_manifest.txt"),
        "below_file.ini": ("output = out", "output = run.ini/sub"),
    }
    for name, (old, new) in variants.items():
        (d / name).write_text(text.replace(old, new))


FP = "fp/fingerprints.txt"
PROBES = {
    "missing --spec": (["fingerprint", "--config", "run.ini", "--spec", "nope.json"], "nope.json"),
    "missing --fingerprints": (["screen", "--config", "run.ini", "--fingerprints", "nope.txt"],
                               "nope.txt"),
    "missing --training-manifest": (["screen", "--config", "run.ini", "--mode", "novelty",
                                     "--training-manifest", "nope.txt"], "nope.txt"),
    "missing ood --training": (["ood", "--config", "run.ini", "--training", "nope.txt",
                                "--predictions", FP], "nope.txt"),
    "missing --embedding": (["plot", "--embedding", "nope.csv", "--out", "x.svg"], "nope.csv"),
    "missing --highlight": (["plot", "--embedding", "emb/embedding.csv", "--highlight",
                             "nope.txt", "--out", "x.svg"], "nope.txt"),
    "directory --config": (["fingerprint", "--config", "adir"], "adir"),
    "directory --fingerprints": (["screen", "--config", "run.ini", "--fingerprints", "adir"],
                                 "adir"),
    "directory embed --input": (["embed", "--config", "run.ini", "--input", "adir"], "adir"),
    "directory manifest": (["fingerprint", "--config", "dir_manifest.ini"], "adir"),
    "directory keep_ids": (["fingerprint", "--config", "dir_keep.ini"], "adir"),
    "non-UTF-8 structure file": (["fingerprint", "--config", "latin1_xyz.ini"], "latin1.bin"),
    "non-UTF-8 config": (["fingerprint", "--config", "latin1.ini"], "latin1.ini"),
    "non-UTF-8 embed --input": (["embed", "--config", "run.ini", "--input", "latin1.bin"],
                                "latin1.bin"),
    "output below a file": (["fingerprint", "--config", "below_file.ini"], "run.ini/sub"),
    "embed --out below a file": (["embed", "--config", "run.ini", "--input", FP,
                                  "--out", f"{FP}/sub"], f"{FP}/sub"),
    "plot --out below a file": (["plot", "--embedding", "emb/embedding.csv",
                                 "--out", "run.ini/x.svg"], "run.ini"),
}


class TestPathProbes:
    @pytest.mark.parametrize("argv, named", PROBES.values(), ids=PROBES.keys())
    def test_exits_one_naming_the_path(self, ws, monkeypatch, argv, named):
        _probe_files(ws)
        monkeypatch.chdir(ws)
        code, err = _run(argv)
        assert code == 1, err
        assert err.startswith("error: ") and named in err, err
        assert "Traceback" not in err and "internal-error" not in err
