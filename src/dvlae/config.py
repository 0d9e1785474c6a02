"""Run configuration: flat key-value text with sections (INI), versioned by a
``format`` key.  Every section and key is declared once, in ``SCHEMA``; a
key's default is the default of the dataclass field it fills.  See the README
for the full grammar and an annotated example.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .descriptors import (
    AngularParams,
    CutoffParams,
    DescriptorDef,
    RadialParams,
    SymmetryFunctionSet,
    check_parameter,
)
from .embedding import EMBEDDING_METHODS, TsneConfig
from .errors import ConfigError
from .fingerprint import XOR_MODES, check_bin_count
from .ioutil import read_input_text
from .screening import NOVELTY_AGGREGATES, SCREENING_MODES, NoveltyConfig

CONFIG_FORMAT = 1


@dataclass(frozen=True)
class GridConfig:
    """Descriptor grid: global cutoffs plus per-pair / per-triplet parameter
    overrides keyed by dash-joined element tuples (center-neighbor for radial,
    center-e1-e2 for angular)."""

    cutoff: float = 6.0
    inner_cutoff: float | None = None
    radial_eta: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)
    radial_rs: tuple[float, ...] = (0.0,)
    angular_eta: tuple[float, ...] = (0.0, 0.5)
    zeta: tuple[float, ...] = (1.0, 4.0)
    lam: tuple[int, ...] = (-1, 1)
    kinds: tuple[str, ...] = ("G4", "G5")
    overrides: dict[tuple[str, str], tuple[float, ...]] = field(default_factory=dict)

    def __post_init__(self):
        """Every configured value, per-pair overrides too, meets the rule of
        the parameter it becomes, so a bad one fails at load in every command."""
        self.cutoff_params()
        values = [("radial_eta", self.radial_eta), ("radial_rs", self.radial_rs),
                  ("angular_eta", self.angular_eta), ("zeta", self.zeta), ("lambda", self.lam),
                  ("kinds", self.kinds)]
        values += [(key, v) for (key, _), v in self.overrides.items()]
        for key, given in values:
            for value in given:
                check_parameter(_PARAMETER[key], value)

    def cutoff_params(self) -> CutoffParams:
        inner = self.inner_cutoff if self.inner_cutoff is not None else 0.9 * self.cutoff
        return CutoffParams(inner=inner, outer=self.cutoff)

    def _get(self, key: str, elements: tuple[str, ...], base) -> tuple:
        return self.overrides.get((key, "-".join(elements)), base)


# The symmetry-function parameter each [descriptors] list key sets
_PARAMETER = {"radial_eta": "eta", "radial_rs": "r_s", "angular_eta": "eta", "zeta": "zeta",
              "lambda": "lam", "kinds": "kind"}


def build_symmetry_functions(elements: Sequence[str], grid: GridConfig) -> SymmetryFunctionSet:
    """Expand a grid into the ordered per-element descriptor lists."""
    elements = tuple(elements)
    if not elements:
        raise ConfigError("element list is empty")
    cut = grid.cutoff_params()
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
    """One run's settings.  Relative paths, the default ``out`` too, are resolved
    against the config file's directory."""

    manifests: tuple[Path, ...] = ()
    out_dir: Path = Path("out")
    keep_ids: Path | None = None        # id-list filter (e.g. a screening kept list)
    elements: tuple[str, ...] | None = None
    grid: GridConfig = GridConfig()
    bins: int = 50
    reference: str = "auto"             # auto | id:<id> | path:<file>
    xor_mode: str = "occupancy"
    screening_mode: str = "exact"       # exact | hamming | novelty
    radius: int = 0
    training_manifest: Path | None = None
    method: str = "tsne"                # tsne | pca
    tsne: TsneConfig = TsneConfig()
    novelty: NoveltyConfig = NoveltyConfig()

    def __post_init__(self):
        if not self.manifests:
            raise ConfigError("config needs a [data] section with a 'manifests' key")
        check_bin_count(self.bins, 0)   # the column count, and so the bit cap, waits for the data
        if self.radius < 0:
            raise ConfigError(f"radius must be >= 0, got {self.radius}")


# A parser takes a key's raw text and the config file's directory, which paths
# are relative to.  Its ValueError says what is wrong; load_config names the key.

def _number(kind, what: str):
    def parse(raw: str, base: Path):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"must be {what}, got {raw!r}") from None
    return parse


_int, _float = _number(int, "an int"), _number(float, "a float")


def _split(kind, what: str):
    def parse(raw: str, base: Path) -> tuple:
        try:
            return tuple(kind(v) for v in raw.split())
        except ValueError:
            raise ValueError(f"must be {what}, got {raw!r}") from None
    return parse


_floats, _ints, _words = _split(float, "numbers"), _split(int, "integers"), _split(str, "words")


def _path(raw: str, base: Path) -> Path:
    return base / raw


def _paths(raw: str, base: Path) -> tuple[Path, ...]:
    return tuple(base / p for p in raw.split())


def _choice(allowed: tuple[str, ...], what: str):
    listed = ", ".join(allowed[:-1]) + ("," if len(allowed) > 2 else "") + " or " + allowed[-1]

    def parse(raw: str, base: Path) -> str:
        value = raw.strip()
        if value not in allowed:
            raise ConfigError(f"{what} must be {listed}, got {value!r}")
        return value
    return parse


def _format(raw: str, base: Path) -> None:
    fmt = _int(raw, base)
    if fmt != CONFIG_FORMAT:
        raise ConfigError(f"unsupported config format {fmt} (this build reads format {CONFIG_FORMAT})")


def _reference(raw: str, base: Path) -> str:
    reference = raw.strip()
    if reference.startswith("path:"):
        return f"path:{base / reference[5:]}"
    if reference != "auto" and not reference.startswith("id:"):
        raise ConfigError(f"reference must be auto, id:<id>, or path:<file>, got {reference!r}")
    return reference


# section -> key -> (dataclass the value fills, or None for a check, its field, parser)
SCHEMA = {
    "run": {
        "format": (None, None, _format),
        "seed": (TsneConfig, "seed", _int),
        "output": (RunConfig, "out_dir", _path),
    },
    "data": {
        "manifests": (RunConfig, "manifests", _paths),
        "elements": (RunConfig, "elements", _words),
        "keep_ids": (RunConfig, "keep_ids", _path),
    },
    "descriptors": {
        "cutoff": (GridConfig, "cutoff", _float),
        "inner_cutoff": (GridConfig, "inner_cutoff", _float),
        "radial_eta": (GridConfig, "radial_eta", _floats),
        "radial_rs": (GridConfig, "radial_rs", _floats),
        "angular_eta": (GridConfig, "angular_eta", _floats),
        "zeta": (GridConfig, "zeta", _floats),
        "lambda": (GridConfig, "lam", _ints),
        "kinds": (GridConfig, "kinds", _words),
    },
    "fingerprint": {
        "bins": (RunConfig, "bins", _int),
        "reference": (RunConfig, "reference", _reference),
        "xor_mode": (RunConfig, "xor_mode", _choice(XOR_MODES, "xor_mode")),
    },
    "screening": {
        "mode": (RunConfig, "screening_mode", _choice(SCREENING_MODES, "screening mode")),
        "radius": (RunConfig, "radius", _int),
        "threshold": (NoveltyConfig, "threshold", _float),
        "aggregate": (NoveltyConfig, "aggregate", _choice(NOVELTY_AGGREGATES, "aggregate")),
        "training_manifest": (RunConfig, "training_manifest", _path),
    },
    "embedding": {
        "method": (RunConfig, "method", _choice(EMBEDDING_METHODS, "embedding method")),
        "perplexity": (TsneConfig, "perplexity", _float),
        "iterations": (TsneConfig, "iterations", _int),
        "learning_rate": (TsneConfig, "learning_rate", _float),
    },
}

# [descriptors] keys that also take "<key>.<elements>" per-pair overrides
_OVERRIDABLE = ("radial_eta", "radial_rs", "angular_eta", "zeta", "lambda")


def load_config(path: str | Path, overrides: Iterable[tuple[str, object]] = ()) -> RunConfig:
    """Parse and validate a run-configuration file, with ``overrides``
    ("section.key", value) pairs set into it first, so a command-line flag is
    checked exactly as its key is.  A section or key not in ``SCHEMA`` is an
    error.  Paths are checked when they are read."""
    path = Path(path)
    # No header can name "", so [DEFAULT] is an ordinary (unknown) section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str    # element symbols in keys are case-sensitive
    try:
        parser.read_string(read_input_text(path, "config file"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for dotted, value in overrides:
        section, _, key = dotted.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = str(value)

    base = path.parent
    found = {RunConfig: {}, GridConfig: {"overrides": {}}, TsneConfig: {}, NoveltyConfig: {}}
    for name in parser.sections():
        if name not in SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        for key, raw in parser[name].items():
            known, dot, pair = key.partition(".")
            if known not in SCHEMA[name]:
                raise ConfigError(f"unknown [{name}] key {key!r}")
            if dot and known not in _OVERRIDABLE:
                raise ConfigError(f"[{name}] key {known!r} does not take per-pair overrides")
            into, field_name, parse = SCHEMA[name][known]
            try:
                value = parse(raw, base)
            except ValueError as exc:
                raise ConfigError(f"{key} {exc}") from None
            if dot:
                found[GridConfig]["overrides"][(known, pair)] = value
            elif into is not None:
                found[into][field_name] = value
    found[RunConfig].setdefault("out_dir", base / RunConfig.out_dir)
    return RunConfig(**found[RunConfig], grid=GridConfig(**found[GridConfig]),
                     tsne=TsneConfig(**found[TsneConfig]),
                     novelty=NoveltyConfig(**found[NoveltyConfig]))
