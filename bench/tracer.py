"""Outside-in tracer: wraps toricball's public functions from the outside.

Each wrapped function or Atlas method records one span per call: name,
start, end and the span that was open when it was called.  A function is
wrapped at every name it is bound to inside ``toricball.*`` (for
example ``simplicial_coords`` is imported into bary, charts, homeo and
cli), so calls through any of those names are seen.  ``uninstall``
puts every original back.

Per-element helpers (``exact.pair``, ``vadd``, ``monomial_eval`` and
the like) are deliberately not wrapped: they run millions of times per
verify and the wrapper cost would swamp the trace.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# module -> public functions wrapped there.  A span is named
# "<module>.<function>"; Atlas methods are named "charts.<method>".
FUNCTIONS = {
    "exact": ("rank", "solve_in_basis", "invert", "dual_basis", "row_hermite", "quotient_projection"),
    "fan": ("parse_and_validate", "validate_fan", "star_fan"),
    "cones": ("dual_generators", "hilbert_basis", "decompose", "minimality_violations", "triangular_generators"),
    "bary": (
        "enumerate_flags",
        "flag_cone",
        "coords_in_flag",
        "simplicial_coords",
        "flag_intersection",
        "locate_flag",
        "cover_check",
    ),
    "charts": ("psi_eval", "psi_invert"),
    "homeo": ("phi_coords", "rescale_in_flag", "rescale_global", "param_boundary_point", "nonextension_probe"),
    "cellcomplex": (
        "build_ball_model",
        "build_orbit_complex",
        "pseudomanifold_check",
        "verify_gluing",
        "verify_regularity",
    ),
    "cli": ("main", "cmd_validate", "cmd_verify", "cmd_mesh", "run_verification"),
}
ATLAS_METHODS = (
    "hilbert",
    "chart",
    "charts",
    "expi_point",
    "chart_point",
    "commutativity_residual",
    "localize",
    "points_equal",
    "semigroup_residual",
)


class Tracer:
    """In-memory span store plus the patches that feed it.

    Spans live in parallel typed arrays (name id, parent index, start
    and end in ns) so a few million of them stay small.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")  # 1 unless a span of the same name is open
        self.hilbert_generators = 0
        self._active = []
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------

    def _wrap(self, label, fn, on_result=None):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
            self._active.append(0)
        stack, active, outer = self._stack, self._active, self.outer
        name, parent, start, end = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_generators(self, sem):
        self.hilbert_generators += len(sem.generators)

    def install(self, package="toricball"):
        """Wrap every target at each of its bindings in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, funcs in FUNCTIONS.items():
            owner = sys.modules[f"{package}.{mod_name}"]
            for func in funcs:
                original = getattr(owner, func)
                hook = self._count_generators if (mod_name, func) == ("cones", "hilbert_basis") else None
                wrapper = self._wrap(f"{mod_name}.{func}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        atlas = sys.modules[f"{package}.charts"].Atlas
        for meth in ATLAS_METHODS:
            original = atlas.__dict__[meth]
            self._patches.append((atlas, meth, original))
            setattr(atlas, meth, self._wrap(f"charts.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total_s (outermost spans only, so a
        recursive call is not counted twice) and self_s (duration minus
        the time covered by direct child spans)."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {label: {"calls": 0, "total_ns": 0, "self_ns": 0} for label in self.names}
        for i in range(n):
            label = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            row = out[label]
            row["calls"] += 1
            row["self_ns"] += dur - child[i]
            if self.outer[i]:
                row["total_ns"] += dur
        return {
            label: {"calls": r["calls"], "total_s": r["total_ns"] / 1e9, "self_s": r["self_ns"] / 1e9}
            for label, r in out.items()
        }

    def _has_ancestor(self, i, nid):
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def calls_under(self, label, ancestor):
        """Number of `label` spans that have an `ancestor` span above them."""
        if label not in self._ids or ancestor not in self._ids:
            return 0
        nid, aid = self._ids[label], self._ids[ancestor]
        return sum(1 for i in range(len(self.name)) if self.name[i] == nid and self._has_ancestor(i, aid))

    def write(self, path, summary):
        """Write every span, columnar and gzip-compressed JSON, with the
        per-name summary."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "format": "toricball-bench spans v1: parallel columns, parent -1 for a root span",
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "summary": summary,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
