"""Run configuration: flat key-value text with sections (INI), versioned by a
``format`` key.  See the README for the full grammar and an annotated example.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .descriptors import (
    AngularParams,
    CutoffParams,
    DescriptorDef,
    RadialParams,
    SymmetryFunctionSet,
)
from .embedding import EMBEDDING_METHODS, TsneConfig
from .errors import ConfigError
from .fingerprint import XOR_MODES
from .screening import NOVELTY_AGGREGATES, SCREENING_MODES

CONFIG_FORMAT = 1

_DEFAULT_RADIAL_ETA = (0.0, 0.5, 1.0, 2.0, 4.0)
_DEFAULT_RADIAL_RS = (0.0,)
_DEFAULT_ANGULAR_ETA = (0.0, 0.5)
_DEFAULT_ZETA = (1.0, 4.0)
_DEFAULT_LAMBDA = (-1, 1)
_DEFAULT_KINDS = ("G4", "G5")


@dataclass(frozen=True)
class GridConfig:
    """Descriptor grid: global cutoffs plus per-pair / per-triplet parameter
    overrides keyed by dash-joined element tuples (center-neighbor for radial,
    center-e1-e2 for angular)."""

    cutoff: float = 6.0
    inner_cutoff: float | None = None
    radial_eta: tuple[float, ...] = _DEFAULT_RADIAL_ETA
    radial_rs: tuple[float, ...] = _DEFAULT_RADIAL_RS
    angular_eta: tuple[float, ...] = _DEFAULT_ANGULAR_ETA
    zeta: tuple[float, ...] = _DEFAULT_ZETA
    lam: tuple[int, ...] = _DEFAULT_LAMBDA
    kinds: tuple[str, ...] = _DEFAULT_KINDS
    overrides: dict[tuple[str, str], tuple[float, ...]] = field(default_factory=dict)

    def _get(self, key: str, elements: tuple[str, ...], base) -> tuple:
        return self.overrides.get((key, "-".join(elements)), base)


def build_symmetry_functions(elements: Sequence[str], grid: GridConfig) -> SymmetryFunctionSet:
    """Expand a grid into the ordered per-element descriptor lists."""
    elements = tuple(elements)
    if not elements:
        raise ConfigError("element list is empty")
    inner = grid.inner_cutoff if grid.inner_cutoff is not None else 0.9 * grid.cutoff
    cut = CutoffParams(inner=inner, outer=grid.cutoff)
    pairs = [
        (a, b)
        for i, a in enumerate(elements)
        for b in elements[i:]
    ]
    table: dict[str, tuple[DescriptorDef, ...]] = {}
    for center in elements:
        defs: list[DescriptorDef] = []
        for nb in elements:
            for eta in grid._get("radial_eta", (center, nb), grid.radial_eta):
                for rs in grid._get("radial_rs", (center, nb), grid.radial_rs):
                    defs.append(DescriptorDef(RadialParams(eta, rs, nb), cut))
        for kind in grid.kinds:
            for pair in pairs:
                triplet = (center,) + pair
                for eta in grid._get("angular_eta", triplet, grid.angular_eta):
                    for z in grid._get("zeta", triplet, grid.zeta):
                        for lam in grid._get("lambda", triplet, grid.lam):
                            defs.append(
                                DescriptorDef(AngularParams(eta, z, int(lam), kind, pair), cut)
                            )
        table[center] = tuple(defs)
    return SymmetryFunctionSet(elements=elements, descriptors=table)


@dataclass(frozen=True)
class RunConfig:
    manifests: tuple[Path, ...]
    out_dir: Path
    seed: int = 0
    keep_ids: Path | None = None        # id-list filter (e.g. a screening kept list)
    elements: tuple[str, ...] | None = None
    grid: GridConfig = GridConfig()
    bins: int = 50
    reference: str = "auto"             # auto | id:<id> | path:<file>
    xor_mode: str = "occupancy"
    screening_mode: str = "exact"       # exact | hamming | novelty
    radius: int = 0
    threshold: float = 0.1
    aggregate: str = "min"
    training_manifest: Path | None = None
    method: str = "tsne"                # tsne | pca
    tsne: TsneConfig = TsneConfig()


def _floats(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split())
    except ValueError:
        raise ConfigError(f"expected numbers, got {raw!r}") from None


def _ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in raw.split())
    except ValueError:
        raise ConfigError(f"expected integers, got {raw!r}") from None


def _number(kind, section, key: str, default):
    raw = section.get(key) if section else None
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a {kind.__name__}, got {raw!r}") from None


def _choice(section, key: str, default: str, allowed: tuple[str, ...], what: str) -> str:
    value = section.get(key, default).strip()
    if value not in allowed:
        listed = " or ".join(allowed) if len(allowed) < 3 else \
            ", ".join(allowed[:-1]) + ", or " + allowed[-1]
        raise ConfigError(f"{what} must be {listed}, got {value!r}")
    return value


_OVERRIDABLE = ("radial_eta", "radial_rs", "angular_eta", "zeta", "lambda")


def _parse_grid(section: configparser.SectionProxy) -> GridConfig:
    known = {"grid", "cutoff", "inner_cutoff", "kinds", *_OVERRIDABLE}
    overrides: dict[tuple[str, str], tuple[float, ...]] = {}
    for key in section:
        base, dot, suffix = key.partition(".")
        if base not in known:
            raise ConfigError(f"unknown [descriptors] key {key!r}")
        if dot:
            if base not in _OVERRIDABLE:
                raise ConfigError(f"[descriptors] key {base!r} does not take per-pair overrides")
            values = _ints(section[key]) if base == "lambda" else _floats(section[key])
            overrides[(base, suffix)] = values
    mode = section.get("grid", "default").strip()
    if mode != "default":
        raise ConfigError(f"[descriptors] grid must be 'default' if given, got {mode!r}")
    kwargs = {}
    if "cutoff" in section:
        kwargs["cutoff"] = _number(float, section, "cutoff", None)
    if "inner_cutoff" in section:
        kwargs["inner_cutoff"] = _number(float, section, "inner_cutoff", None)
    if "radial_eta" in section:
        kwargs["radial_eta"] = _floats(section["radial_eta"])
    if "radial_rs" in section:
        kwargs["radial_rs"] = _floats(section["radial_rs"])
    if "angular_eta" in section:
        kwargs["angular_eta"] = _floats(section["angular_eta"])
    if "zeta" in section:
        kwargs["zeta"] = _floats(section["zeta"])
    if "lambda" in section:
        kwargs["lam"] = _ints(section["lambda"])
    if "kinds" in section:
        kwargs["kinds"] = tuple(section["kinds"].split())
    return GridConfig(overrides=overrides, **kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run-configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str    # element symbols in keys are case-sensitive
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    base = path.parent

    def resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    run = parser["run"] if parser.has_section("run") else {}
    fmt = _number(int, run, "format", CONFIG_FORMAT)
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"unsupported config format {fmt} (this build reads format {CONFIG_FORMAT})")

    if not parser.has_section("data") or "manifests" not in parser["data"]:
        raise ConfigError("config needs a [data] section with a 'manifests' key")
    manifests = tuple(resolve(p) for p in parser["data"]["manifests"].split())
    for m in manifests:
        if not m.exists():
            raise ConfigError(f"manifest not found: {m}")
    elements = None
    if "elements" in parser["data"]:
        elements = tuple(parser["data"]["elements"].split())
    keep_ids = None
    if "keep_ids" in parser["data"]:
        keep_ids = resolve(parser["data"]["keep_ids"])
        if not keep_ids.exists():
            raise ConfigError(f"keep_ids file not found: {keep_ids}")

    grid = _parse_grid(parser["descriptors"]) if parser.has_section("descriptors") \
        else GridConfig()

    fp = parser["fingerprint"] if parser.has_section("fingerprint") else {}
    bins = _number(int, fp, "bins", 50)
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    reference = fp.get("reference", "auto").strip()
    if reference != "auto" and not (reference.startswith("id:") or reference.startswith("path:")):
        raise ConfigError(f"reference must be auto, id:<id>, or path:<file>, got {reference!r}")
    if reference.startswith("path:"):
        ref_path = resolve(reference[5:])
        if not ref_path.exists():
            raise ConfigError(f"reference file not found: {ref_path}")
        reference = f"path:{ref_path}"
    xor_mode = _choice(fp, "xor_mode", "occupancy", XOR_MODES, "xor_mode")

    sc = parser["screening"] if parser.has_section("screening") else {}
    mode = _choice(sc, "mode", "exact", SCREENING_MODES, "screening mode")
    training_manifest = None
    if "training_manifest" in sc:
        training_manifest = resolve(sc["training_manifest"])
        if not training_manifest.exists():
            raise ConfigError(f"training manifest not found: {training_manifest}")
    aggregate = _choice(sc, "aggregate", "min", NOVELTY_AGGREGATES, "aggregate")

    emb = parser["embedding"] if parser.has_section("embedding") else {}
    method = _choice(emb, "method", "tsne", EMBEDDING_METHODS, "embedding method")
    seed = _number(int, run, "seed", 0)
    tsne = TsneConfig(
        perplexity=_number(float, emb, "perplexity", 30.0),
        iterations=_number(int, emb, "iterations", 1000),
        learning_rate=_number(float, emb, "learning_rate", 200.0),
        seed=seed,
    )

    out_dir = resolve(run.get("output", "out")) if run else base / "out"
    return RunConfig(
        manifests=manifests,
        out_dir=out_dir,
        seed=seed,
        keep_ids=keep_ids,
        elements=elements,
        grid=grid,
        bins=bins,
        reference=reference,
        xor_mode=xor_mode,
        screening_mode=mode,
        radius=_number(int, sc, "radius", 0),
        threshold=_number(float, sc, "threshold", 0.1),
        aggregate=aggregate,
        training_manifest=training_manifest,
        method=method,
        tsne=tsne,
    )
