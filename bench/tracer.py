"""Span tracer for fixlab's public entry points, installed from outside
the package.

Each wrapped entry point records one span (name, start, end, parent) in
flat arrays while it runs.  Installing the tracer rebinds every module's
copy of an entry point, e.g. ``certify.from_generators`` as well as
``subgroup.from_generators``, so calls between modules and inside one
module are counted too.  Self time is span time minus the time covered
by the span's direct children; it is computed once, from the stored
spans, by ``summary``.

A few entry points feed counters (peak bit length, parity dimension,
classes solved, distinct subgroups).  Their hooks run after the span
has ended, in a span of their own named ``trace.hook``: its time is
taken out of the enclosing span's self time and reported as harness
time, not as time of any layer.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path

LAYERS = ("groupcore", "intlat", "subgroup", "morphism", "certify", "cli")
HOOK_ID, HOOK_NAME = 0, "trace.hook"

# Entry points per layer: "func" for a module-level function, "Class.attr"
# for a method.  groupcore's coordinate helpers (parity_quotient, t_coords,
# ...) and intlat.xgcd are left out: they run once per vector entry or
# elimination step, so wrapping them would make the tracer cost more than
# the work it measures.  Their time counts as self time of their caller.
ENTRY_POINTS = {
    "groupcore": ("Element.__mul__", "Element.inv", "Element.__pow__",
                  "parse_word", "format_element"),
    "intlat": ("hnf", "solve_linear", "snf", "snf_generators", "left_kernel",
               "kernel", "lattice_meet", "affine_meet", "lattice_join",
               "lattice_index", "abelian_subgroup_rank", "Lattice.span",
               "Lattice.reduce", "Lattice.contains", "Lattice.coords_of",
               "AffineLattice.make"),
    "subgroup": ("from_generators", "membership", "containment", "equals",
                 "intersect", "index", "commutator_subgroup", "abelianization",
                 "rank", "special_subgroup", "is_sqrt_closed", "decompose_euc2",
                 "generator_words"),
    "morphism": ("apply", "identity_endo", "compose", "endo_from_words",
                 "is_automorphism", "random_endo", "fixed_subgroup",
                 "fixed_family", "describe_endo"),
    "certify": ("classify", "abelian_image_rank", "check_compressed_certificate",
                "revalidate_witness", "describe_witness",
                "enumerate_candidate_elements", "search_compression_counterexample",
                "search_inertia_counterexample", "random_subgroup",
                "sample_inertia_property", "paper_suite"),
    "cli": ("main", "build_parser", "parse_group", "parse_subgroup",
            "parse_map_file"),
}


def _max_bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row), default=0)


class Tracer:
    """Records spans of the entry points in ENTRY_POINTS while installed.

    ``fx`` is a namespace holding the six imported fixlab modules as
    attributes named after the layers.
    """

    def __init__(self, fx):
        self.fx = fx
        self.names: list[str] = [HOOK_NAME]
        self.layer_of: list[str] = ["trace"]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.certify_depth = 0
        self.peak_bits = 0
        self.parity_dim_max = 0
        self.classes_tried = 0
        self.classes_solved = 0
        self.certify_fg_calls = 0
        self.certify_distinct: set = set()

    # ----------------------------------------------------------- counters

    def _hnf_hook(self, args, out):
        lat, transform = out
        self.peak_bits = max(self.peak_bits, _max_bits(lat.basis.entries),
                             _max_bits(transform.entries))

    def _span_hook(self, args, out):
        self.peak_bits = max(self.peak_bits, _max_bits(out.basis.entries))

    def _from_generators_hook(self, args, out):
        self.parity_dim_max = max(self.parity_dim_max, len(out.parity_basis))
        if self.certify_depth:
            self.certify_fg_calls += 1
            self.certify_distinct.add(out)

    def _fixed_subgroup_hook(self, args, out):
        self.classes_tried += 1 << args[0].spec.parity_dim
        self.classes_solved += out.solved_classes

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, layer: str, hook):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self
        in_certify = layer == "certify"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            if in_certify:
                tracer.certify_depth += 1
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if in_certify:
                    tracer.certify_depth -= 1
            if hook is not None:
                j = len(names)
                names.append(HOOK_ID)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                hook(args, out)
                ends[j] = clock()
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [getattr(self.fx, layer) for layer in LAYERS]
        hooks = {
            "intlat.hnf": self._hnf_hook,
            "intlat.Lattice.span": self._span_hook,
            "subgroup.from_generators": self._from_generators_hook,
            "morphism.fixed_subgroup": self._fixed_subgroup_hook,
        }
        for layer in LAYERS:
            module = getattr(self.fx, layer)
            for entry in ENTRY_POINTS[layer]:
                name = f"{layer}.{entry}"
                hook = hooks.get(name)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(raw.__func__, name, layer, hook))
                    else:
                        new = self._wrap(raw, name, layer, hook)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(module, entry)
                new = self._wrap(orig, name, layer, hook)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        """Per entry point calls and self time, per layer self time, the
        time spent in counter hooks, and the time covered by top-level
        spans (the layers' self times plus the hooks')."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        top = 0.0
        for i in range(n):
            d = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for nid in range(1, len(self.names)):
            layer_self[self.layer_of[nid]] += self_s[nid]
            layer_calls[self.layer_of[nid]] += calls[nid]
        return {
            "spans": n,
            "top_level_s": top,
            "hook_s": self_s[HOOK_ID],
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "layer_self_s": layer_self,
            "layer_calls": layer_calls,
        }

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as four binary arrays in native byte order plus
        a JSON index naming them; returns the index path."""
        directory.mkdir(parents=True, exist_ok=True)
        index = {"names": self.names, "layers": self.layer_of,
                 "count": len(self.span_name), "arrays": {}}
        for field in ("span_name", "span_parent", "span_start", "span_end"):
            arr = getattr(self, field)
            path = directory / f"{stem}.{field}.bin"
            with open(path, "wb") as fh:
                arr.tofile(fh)
            index["arrays"][field] = {"file": path.name, "typecode": arr.typecode}
        index_path = directory / f"{stem}.json"
        index_path.write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
        return index_path
