"""Per-layer tracing of wittlab from outside the package.

`Tracer.install()` replaces public functions and methods of the wittlab
modules with wrappers that time each call.  A module-level function is
replaced in every wittlab module that binds it (modules import names
from each other with ``from .x import f``); a method is replaced on its
class.  Nothing under src/ is edited.

Each wrapped call is a span.  A span stack gives self time: a span's
duration minus the durations of the spans it encloses.  Reading sizes
from arguments and results (matrix shape and nonzeros, word counts,
polynomial terms) is excluded from every open span, so it shows only in
the overall overhead, not in a layer's time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "poly", "witt", "bigwitt", "freealg", "ncpoly", "intlinalg", "abgroup",
    "tate", "fplinalg", "hochschild", "cli", "verify",
)

# (module, qualified name, span key).  "Class.attr" is a method.
TARGETS = [
    ("witt", "gen_universal_polys", "witt.gen"),
    *[("witt", f"WittVector.{m}", "witt.op") for m in (
        "__add__", "__sub__", "__mul__", "__neg__", "frobenius",
        "verschiebung", "restriction", "ghost")],
    ("witt", "witt_to_padic", "witt.op"),
    ("witt", "padic_to_witt", "witt.op"),
    ("poly", "MultiPoly.evaluate", "poly.eval"),
    *[("poly", f"MultiPoly.{m}", "poly.arith") for m in (
        "__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__")],
    ("poly", "poly_exact_div", "poly.arith"),
    *[("bigwitt", f"BigWitt.{m}", "bigwitt.op") for m in (
        "__add__", "__sub__", "__mul__", "__neg__", "ghost", "to_series",
        "from_series")],
    ("bigwitt", "p_typical_decompose", "bigwitt.op"),
    ("bigwitt", "eps_action", "bigwitt.op"),
    *[("bigwitt", f, "bigwitt.gen") for f in (
        "gen_big_product_polys", "p_typical_component_polys",
        "gamma_components")],
    ("ncpoly", "solve_nc_c", "ncpoly.solve"),
    ("tate", "QSpace.__init__", "qspace"),
    *[("tate", f, "maps") for f in (
        "w_on_map", "ver_V", "frob_F", "restrict_R", "corestrict_C",
        "tau_rot", "standard_map")],
    ("abgroup", "GroupMap.compose", "group.compose"),
    ("abgroup", "GroupMap.__init__", "group.mapcheck"),
    ("intlinalg", "smith_normal_form", "group.smith"),
    ("intlinalg", "hermite_column_form", "group.hermite"),
    ("intlinalg", "kernel_basis", "group.kernel"),
    ("abgroup", "subgroup_presentation", "group.subgroup"),
    *[("abgroup", f"PresentedAbGroup.{m}", "group.other") for m in (
        "__init__", "quotient", "canonical", "order", "invariant_factors",
        "elements")],
    *[("abgroup", f"GroupMap.{m}", "group.other") for m in (
        "apply", "__add__", "__sub__", "__neg__", "scaled", "__eq__",
        "image_cols", "kernel_cols", "cokernel", "kernel_group",
        "is_injective", "is_surjective")],
    ("abgroup", "exact_at", "group.other"),
    ("intlinalg", "lattice_eq", "group.other"),
    ("hochschild", "whh0", "hh.whh0"),
    ("hochschild", "hesselholt_seq_check", "hh.seq"),
    ("hochschild", "classical_witt_group", "hh.classical"),
    ("hochschild", "face_rows", "hh.face_rows"),
    *[("hochschild", f, "hh.other") for f in (
        "build_A_natural", "hochschild_homology", "build_WnA_natural",
        "whh_V", "whh_R", "degen_rows", "front_insert_rows", "rot_rows",
        "iota_rows", "iota_rows_for", "cyclic_identity_failures")],
    *[("fplinalg", f, "fp") for f in (
        "rref_fp", "rank_fp", "nullspace_fp", "mat_mul_fp", "solve_fp",
        "is_zero_fp")],
    ("cli", "main", "cli"),
]

# the layer whose `<layer>.errors` counts exceptions escaping a span key
LAYER_OF = {
    "witt": "witt", "poly": "poly", "bigwitt": "bigwitt", "ncpoly": "ncpoly",
    "qspace": "tate", "maps": "tate", "group": "group", "hh": "hh",
    "fp": "fp", "cli": "cli",
}
LAYERS = ("witt", "poly", "bigwitt", "ncpoly", "tate", "group", "hh", "fp", "cli")


def _nnz(rows):
    return sum(len(r) - r.count(0) for r in rows)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []  # one [enclosed seconds] cell per open span
        self.excluded = 0.0  # seconds spent reading sizes, hidden from spans
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.depth = defaultdict(int)
        self.sizes = defaultdict(int)
        self.max_sizes = defaultdict(int)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, key, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            cell = [0.0]
            tracer.stack.append(cell)
            tracer.depth[key] += 1
            ex0 = tracer.excluded
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[key] += 1
                raise
            finally:
                dur = perf_counter() - t0 - (tracer.excluded - ex0)
                tracer.stack.pop()
                tracer.depth[key] -= 1
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - cell[0]
                if not tracer.depth[key]:
                    tracer.incl[key] += dur  # outermost span of this key
                if tracer.stack:
                    tracer.stack[-1][0] += dur
            if after:
                m0 = perf_counter()
                after(token, args, out, dur)
                tracer.excluded += perf_counter() - m0
            return out

        return span

    def install(self):
        mods = {name: importlib.import_module(f"wittlab.{name}") for name in MODULES}
        every = [m for n, m in sys.modules.items() if n.startswith("wittlab")]
        hooks = self._hooks()
        for mod_name, qual, key in TARGETS:
            mod = mods[mod_name]
            before, after = hooks.get(qual, (None, None))
            if "." in qual:
                cls_name, attr = qual.split(".")
                self._patch_method(getattr(mod, cls_name), attr, key, before, after)
            else:
                orig = getattr(mod, qual)
                wrapped = self._wrap(orig, key, before, after)
                for m in every:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, name, wrapped)

    def _patch_method(self, cls, attr, key, before, after):
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, key, before, after))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, key, before, after))
        else:
            new = self._wrap(raw, key, before, after)
        # aliases such as __radd__ = __add__ share the function object
        for name, val in list(vars(cls).items()):
            if val is raw:
                setattr(cls, name, new)

    # -- sizes --------------------------------------------------------------

    def _hooks(self):
        s, mx = self.sizes, self.max_sizes

        def lru(mod, name, prefix):
            # misses of the lru cache tell a generation from a lookup
            orig = getattr(importlib.import_module(f"wittlab.{mod}"), name)

            def before(args):
                return orig.cache_info().misses

            def after(misses, args, out, dur):
                if orig.cache_info().misses == misses:
                    s[f"{prefix}.hits"] += 1
                    return
                s[f"{prefix}.misses"] += 1
                self.incl[f"{prefix}.miss_s"] += dur
                if prefix == "witt.gen":
                    s["witt.gen_terms"] += sum(len(q.terms) for q in out)
                    bits = max(
                        (abs(c).bit_length() for q in out for c in q.terms.values()),
                        default=0,
                    )
                    mx["witt.gen_coeff_bits"] = max(mx["witt.gen_coeff_bits"], bits)

            return before, after

        def map_after(_, args, out, dur):
            m = out.matrix
            s["maps.cells"] += m.m * m.n
            s["maps.nnz"] += _nnz(m.rows)

        def compose_before(args):
            a, b = args[0].matrix, args[1].matrix
            return a.m * a.n * b.n

        def compose_after(madds, args, out, dur):
            s["group.compose_madds"] += madds

        def smith_after(_, args, out, dur):
            a = args[0]
            mx["group.smith_max_cells"] = max(mx["group.smith_max_cells"], a.m * a.n)

        def qspace_after(_, args, out, dur):
            space = args[0]
            s["qspace.words"] += space.d ** space.length
            s["qspace.orbits"] += space.num_gens

        def face_after(_, args, out, dur):
            s["hh.face_rows_cells"] += len(out) * (len(out[0]) if out else 0)

        hooks = {
            "gen_universal_polys": lru("witt", "gen_universal_polys", "witt.gen"),
            "QSpace.__init__": (None, qspace_after),
            "GroupMap.compose": (compose_before, compose_after),
            "smith_normal_form": (None, smith_after),
            "face_rows": (None, face_after),
        }
        for f in ("gen_big_product_polys", "p_typical_component_polys",
                  "gamma_components"):
            hooks[f] = lru("bigwitt", f, "bigwitt.gen")
        for f in ("w_on_map", "ver_V", "frob_F", "restrict_R", "corestrict_C",
                  "tau_rot", "standard_map"):
            hooks[f] = (None, map_after)
        return hooks

    # -- report -------------------------------------------------------------

    def metrics(self):
        c, sf, inc, s, mx = self.calls, self.self_s, self.incl, self.sizes, self.max_sizes
        hits, misses = s["witt.gen.hits"], s["witt.gen.misses"]
        out = {
            "witt.gen_s": (inc["witt.gen.miss_s"], "s"),
            "witt.gen_terms": (s["witt.gen_terms"], "count"),
            "witt.gen_coeff_bits": (mx["witt.gen_coeff_bits"], "bits"),
            "witt.cache_hit_frac": (hits / (hits + misses) if hits + misses else 0.0, "frac"),
            "witt.op_calls": (c["witt.op"], "count"),
            "witt.op_self_s": (sf["witt.op"], "s"),
            "poly.eval_calls": (c["poly.eval"], "count"),
            "poly.eval_s": (sf["poly.eval"], "s"),
            "poly.arith_calls": (c["poly.arith"], "count"),
            "poly.arith_self_s": (sf["poly.arith"], "s"),
            "bigwitt.op_calls": (c["bigwitt.op"], "count"),
            "bigwitt.op_self_s": (sf["bigwitt.op"], "s"),
            "bigwitt.gen_s": (inc["bigwitt.gen.miss_s"], "s"),
            "ncpoly.solve_calls": (c["ncpoly.solve"], "count"),
            "ncpoly.solve_s": (sf["ncpoly.solve"], "s"),
            "qspace.calls": (c["qspace"], "count"),
            "qspace.build_s": (sf["qspace"], "s"),
            "qspace.words": (s["qspace.words"], "count"),
            "qspace.orbits": (s["qspace.orbits"], "count"),
            "maps.calls": (c["maps"], "count"),
            "maps.self_s": (sf["maps"], "s"),
            "maps.cells": (s["maps.cells"], "count"),
            "maps.nnz": (s["maps.nnz"], "count"),
            "maps.density": (s["maps.nnz"] / s["maps.cells"] if s["maps.cells"] else 0.0, "frac"),
            "group.compose_calls": (c["group.compose"], "count"),
            "group.compose_s": (sf["group.compose"], "s"),
            "group.compose_madds": (s["group.compose_madds"], "count"),
            "group.mapcheck_s": (sf["group.mapcheck"], "s"),
            "group.smith_calls": (c["group.smith"], "count"),
            "group.smith_s": (sf["group.smith"], "s"),
            "group.smith_max_cells": (mx["group.smith_max_cells"], "count"),
            "group.subgroup_s": (inc["group.subgroup"], "s"),
            "group.hermite_calls": (c["group.hermite"], "count"),
            "group.hermite_s": (sf["group.hermite"], "s"),
            "group.kernel_s": (sf["group.kernel"], "s"),
            "group.other_self_s": (sf["group.other"] + sf["group.subgroup"], "s"),
            "hh.whh0_calls": (c["hh.whh0"], "count"),
            "hh.whh0_s": (inc["hh.whh0"], "s"),
            "hh.seq_s": (inc["hh.seq"], "s"),
            "hh.classical_s": (inc["hh.classical"], "s"),
            "hh.face_rows_s": (sf["hh.face_rows"], "s"),
            "hh.face_rows_cells": (s["hh.face_rows_cells"], "count"),
            "hh.other_self_s": (
                sum(sf[k] for k in ("hh.whh0", "hh.seq", "hh.classical", "hh.other")), "s"),
            "fp.calls": (c["fp"], "count"),
            "fp.s": (sf["fp"], "s"),
            "cli.self_s": (sf["cli"], "s"),
            "trace.spans": (sum(c.values()), "count"),
        }
        errs = defaultdict(int)
        for key, n in self.errors.items():
            errs[LAYER_OF[key.split(".")[0]]] += n
        for layer in LAYERS:
            out[f"{layer}.errors"] = (errs[layer], "count")
        return out
