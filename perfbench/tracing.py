"""Per-layer tracing applied from outside the program.

``Tracer.patched()`` replaces every module-level binding of the public layer
functions in the loaded ``dvlae`` modules with wrappers that record spans
(name, start, end, parent span, command id) in memory.  Functions called once
per pair only count their calls.  Nothing under ``src/`` is edited: a layer
function that a later version renames or removes is listed in ``missing``
and its metrics read 0.

All layer times are self times: a span's duration minus the time its child
spans cover.  Time inside a command that no span covers is ``cli.self_s``, so
the layer self times plus ``cli.self_s`` add up to the traced command wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, span name).  A span name is "<layer>.<what>"; several
# functions may share one name (their self times add up).
SPANNED = (
    ("dvlae.config", "load_config", "cli.config"),
    ("dvlae.structures", "parse_extxyz", "structures.parse"),
    ("dvlae.structures", "neighbor_list", "structures.neighbor_list"),
    ("dvlae.descriptors", "compute_structure_descriptors", "descriptors.compute"),
    ("dvlae.fingerprint", "determine_bin_edges", "fingerprint.bin_edges"),
    ("dvlae.fingerprint", "build_histograms", "fingerprint.histogram"),
    ("dvlae.fingerprint", "difference_vector", "fingerprint.histogram"),
    ("dvlae.fingerprint", "read_fingerprints", "fingerprint.read"),
    ("dvlae.fingerprint", "write_fingerprints", "fingerprint.write"),
    ("dvlae.screening", "dedup_exact", "screening.dedup_exact"),
    ("dvlae.screening", "dedup_hamming", "screening.dedup_hamming"),
    ("dvlae.screening", "rank_ood", "screening.rank_ood"),
    ("dvlae.embedding", "pairwise_distances", "embedding.distance"),
    ("dvlae.embedding", "joint_probabilities", "embedding.calibration"),
    ("dvlae.embedding", "tsne_embed", "embedding.tsne"),
    ("dvlae.embedding", "pca_project", "embedding.pca"),
    ("dvlae.svgplot", "write_scatter_svg", "svgplot.write"),
    ("dvlae.ioutil", "atomic_write_text", "ioutil.write"),
)

# Called once per fingerprint pair: counted, never spanned.
COUNTED = (("dvlae.fingerprint", "hamming_distance", "hamming"),)

# Properties evaluated per record: counted through the class attribute.
COUNTED_PROPERTIES = (("dvlae.fingerprint", "HistogramSpec", "checksum", "checksum"),)

# (per-layer metric, span name) for the self-time metrics.
TIME_METRICS = (
    ("structures.parse_s", "structures.parse"),
    ("structures.neighbor_list_s", "structures.neighbor_list"),
    ("descriptors.compute_s", "descriptors.compute"),
    ("fingerprint.bin_edges_s", "fingerprint.bin_edges"),
    ("fingerprint.histogram_s", "fingerprint.histogram"),
    ("fingerprint.read_s", "fingerprint.read"),
    ("fingerprint.write_s", "fingerprint.write"),
    ("screening.dedup_exact_s", "screening.dedup_exact"),
    ("screening.dedup_hamming_s", "screening.dedup_hamming"),
    ("screening.rank_ood_s", "screening.rank_ood"),
    ("embedding.distance_s", "embedding.distance"),
    ("embedding.calibration_s", "embedding.calibration"),
    ("embedding.tsne_s", "embedding.tsne"),
    ("embedding.pca_s", "embedding.pca"),
    ("svgplot.write_s", "svgplot.write"),
    ("ioutil.write_s", "ioutil.write"),
    ("cli.config_s", "cli.config"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """Spans and counters of one traced pass; create one per pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1, command id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.described: set = set()     # (command id, structure id) given to descriptors
        self.final_kl = 0.0
        self.command = -1
        self.missing: list[str] = []

    def _current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    # -- result hooks: counts measured where the work happens ---------------

    def _after(self, name, args, kwargs, result):
        c = self.counts
        if name == "structures.neighbor_list":
            s = _arg(args, kwargs, 0, "s")
            lengths = np.array([len(ix) for ix in result.indices], dtype=np.int64)
            c["structures.atoms"] += s.n_atoms
            c["structures.neighbor_pairs"] += int(lengths.sum())
            if self._current() == "descriptors.compute":
                c["descriptors.angular_pairs"] += int((lengths * (lengths - 1) // 2).sum())
        elif name == "descriptors.compute":
            s = _arg(args, kwargs, 0, "s")
            c["descriptors.atoms"] += s.n_atoms
            c["descriptors.values"] += sum(int(b.size) for b in result.blocks.values())
            self.described.add((self.command, s.id))
        elif name == "fingerprint.histogram" and hasattr(result, "packed"):
            c["fingerprints.made"] += 1
            c["fingerprints.bits_set"] += int(np.bitwise_count(result.packed).sum())
        elif name == "fingerprint.read":
            c["fingerprint.records_read"] += len(result.fingerprints)
        elif name == "screening.dedup_hamming":
            c["screening.hamming_removed"] += len(result.removed)
        elif name == "embedding.distance":
            x = np.asarray(_arg(args, kwargs, 0, "vectors"))
            c["embedding.distance_input_bytes"] += x.shape[0] * x.shape[1] * x.itemsize
        elif name == "embedding.tsne":
            coords, kl_trace = result
            c["embedding.points"] += len(coords)
            c["embedding.iterations"] += len(kl_trace)
            if len(kl_trace):
                self.final_kl = float(kl_trace[-1])
        elif name == "embedding.pca":
            c["embedding.points"] += len(result)
        elif name == "ioutil.write":
            text = _arg(args, kwargs, 1, "text")
            c["ioutil.bytes_written"] += len(text) if text.isascii() else len(text.encode())

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{key}@{self._current()}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dvlae" or n.startswith("dvlae."))]
        undo = []
        try:
            targets = [(mod, fn, self._spanned, name) for mod, fn, name in SPANNED]
            targets += [(mod, fn, self._counted, key) for mod, fn, key in COUNTED]
            for mod_name, fn_name, make, name in targets:
                original = getattr(sys.modules.get(mod_name), fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = make(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            for mod_name, cls_name, prop, key in COUNTED_PROPERTIES:
                cls = getattr(sys.modules.get(mod_name), cls_name, None)
                original = vars(cls).get(prop) if cls is not None else None
                if not isinstance(original, property):
                    self.missing.append(f"{mod_name}.{cls_name}.{prop}")
                    continue
                setattr(cls, prop, property(self._counted(original.fget, key)))
                undo.append((cls, prop, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def covered_time(self) -> float:
        """Summed duration of the top-level spans (those with no parent)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "command": c}
            for n, s, e, p, c in self.spans
        ]

    def layer_metrics(self, command_wall_s: float) -> dict[str, float]:
        """Every per-layer metric of the pass; layers that did no work read 0."""
        own = self.self_times()
        c = self.counts
        m = {metric: own.get(span, 0.0) for metric, span in TIME_METRICS}
        m["structures.neighbor_list_calls"] = sum(
            1 for s in self.spans if s[0] == "structures.neighbor_list")
        m["structures.atoms"] = c["structures.atoms"]
        m["structures.neighbor_pairs"] = c["structures.neighbor_pairs"]
        calls = sum(1 for s in self.spans if s[0] == "descriptors.compute")
        m["descriptors.calls"] = calls
        m["descriptors.values"] = c["descriptors.values"]
        m["descriptors.angular_pairs"] = c["descriptors.angular_pairs"]
        m["descriptors.calls_per_structure"] = calls / len(self.described) if self.described else 0.0
        m["descriptors.us_per_atom"] = (
            1e6 * m["descriptors.compute_s"] / c["descriptors.atoms"] if c["descriptors.atoms"] else 0.0)
        m["fingerprint.records_read"] = c["fingerprint.records_read"]
        m["fingerprint.checksum_calls"] = sum(v for k, v in c.items() if k.startswith("checksum@"))
        m["fingerprint.bits_set_mean"] = (
            c["fingerprints.bits_set"] / c["fingerprints.made"] if c["fingerprints.made"] else 0.0)
        hamming = sum(v for k, v in c.items() if k.startswith("hamming@"))
        in_dedup = c["hamming@screening.dedup_hamming"]
        m["screening.hamming_calls"] = hamming
        m["screening.removed_per_hamming_call"] = (
            c["screening.hamming_removed"] / in_dedup if in_dedup else 0.0)
        m["embedding.distance_input_bytes"] = c["embedding.distance_input_bytes"]
        m["embedding.points"] = c["embedding.points"]
        m["embedding.iterations"] = c["embedding.iterations"]
        m["embedding.final_kl"] = self.final_kl
        m["ioutil.bytes_written"] = c["ioutil.bytes_written"]
        m["cli.self_s"] = command_wall_s - self.covered_time()
        return m
