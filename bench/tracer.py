"""Spans around the public entry points of every mgcm module.

The tracer replaces each traced function by a wrapper in every mgcm module
that binds it (``cohomology.piece_basis`` as well as
``homological.piece_basis``), so calls between modules are seen too.  Spans
(name, start, end, parent span) are kept in memory for one run identifier and
written out after the measured phase.  A layer's self time is the duration of
its spans minus the time their child spans cover.
"""

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Per-layer metric names with their units, in report order.
LAYER_METRICS = (
    ("graded_poly.mul_calls", "count"),
    ("graded_poly.mul_s", "s"),
    ("groebner_engine.gb_calls", "count"),
    ("groebner_engine.gb_misses", "count"),
    ("groebner_engine.gb_s", "s"),
    ("groebner_engine.gb_elements", "count"),
    ("groebner_engine.syzygy_calls", "count"),
    ("groebner_engine.syzygy_s", "s"),
    ("groebner_engine.normal_form_calls", "count"),
    ("groebner_engine.normal_form_s", "s"),
    ("homological.piece_basis_calls", "count"),
    ("homological.piece_basis_misses", "count"),
    ("homological.piece_basis_s", "s"),
    ("homological.piece_monomials", "count"),
    ("homological.resolution_calls", "count"),
    ("homological.resolution_s", "s"),
    ("homological.ext_dual_s", "s"),
    ("cohomology.rank_calls", "count"),
    ("cohomology.rank_s", "s"),
    ("cohomology.rank_cells", "count"),
    ("cohomology.dense_rank_cells", "count"),
    ("cohomology.koszul_calls", "count"),
    ("cohomology.koszul_s", "s"),
    ("cohomology.koszul_stab_k_sum", "count"),
    ("cohomology.duality_calls", "count"),
    ("cohomology.duality_s", "s"),
    ("cohomology.mult_matrix_hits", "count"),
    ("cohomology.mult_matrix_misses", "count"),
    ("rees_constructions.build_calls", "count"),
    ("rees_constructions.build_s", "s"),
    ("rees_constructions.diagonal_s", "s"),
    ("rees_constructions.oracle_s", "s"),
    ("theorem_harness.thm31_s", "s"),
    ("theorem_harness.lem-vanish_s", "s"),
    ("theorem_harness.lem41_s", "s"),
    ("theorem_harness.thm42_s", "s"),
    ("theorem_harness.lem44_s", "s"),
    ("theorem_harness.lem45_s", "s"),
    ("theorem_harness.thm46_s", "s"),
    ("theorem_harness.dual-route_s", "s"),
    ("cli_io.parse_s", "s"),
    ("cli_io.build_s", "s"),
    ("cli_io.emit_s", "s"),
    ("cli_io.cache_store_s", "s"),
    ("cli_io.cache_fetch_s", "s"),
    ("cli_io.warm_pass_s", "s"),
    ("caches.entries", "count"),
    ("caches.hits", "count"),
    ("caches.misses", "count"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
    ("host.unit_ms", "ms"),
)

# Self-time metric -> span name.
SELF_TIME = {
    "graded_poly.mul_s": "graded_poly.mul",
    "groebner_engine.gb_s": "groebner_engine.gb",
    "groebner_engine.syzygy_s": "groebner_engine.syzygy",
    "groebner_engine.normal_form_s": "groebner_engine.normal_form",
    "homological.piece_basis_s": "homological.piece_basis",
    "homological.resolution_s": "homological.resolution",
    "homological.ext_dual_s": "homological.ext_dual",
    "cohomology.rank_s": "cohomology.rank",
    "cohomology.koszul_s": "cohomology.koszul",
    "cohomology.duality_s": "cohomology.duality",
    "rees_constructions.build_s": "rees_constructions.build",
    "rees_constructions.diagonal_s": "rees_constructions.diagonal",
    "rees_constructions.oracle_s": "rees_constructions.oracle",
    "theorem_harness.thm31_s": "theorem_harness.thm31",
    "theorem_harness.lem-vanish_s": "theorem_harness.lem-vanish",
    "theorem_harness.lem41_s": "theorem_harness.lem41",
    "theorem_harness.thm42_s": "theorem_harness.thm42",
    "theorem_harness.lem44_s": "theorem_harness.lem44",
    "theorem_harness.lem45_s": "theorem_harness.lem45",
    "theorem_harness.thm46_s": "theorem_harness.thm46",
    "theorem_harness.dual-route_s": "theorem_harness.dual-route",
    "cli_io.parse_s": "cli_io.parse",
    "cli_io.build_s": "cli_io.build",
    "cli_io.emit_s": "cli_io.emit",
    "cli_io.cache_store_s": "cli_io.cache_store",
    "cli_io.cache_fetch_s": "cli_io.cache_fetch",
}

# Call-count metric -> span name.
CALLS = {
    "graded_poly.mul_calls": "graded_poly.mul",
    "groebner_engine.gb_calls": "groebner_engine.gb",
    "groebner_engine.syzygy_calls": "groebner_engine.syzygy",
    "groebner_engine.normal_form_calls": "groebner_engine.normal_form",
    "homological.piece_basis_calls": "homological.piece_basis",
    "homological.resolution_calls": "homological.resolution",
    "cohomology.rank_calls": "cohomology.rank",
    "cohomology.koszul_calls": "cohomology.koszul",
    "cohomology.duality_calls": "cohomology.duality",
    "rees_constructions.build_calls": "rees_constructions.build",
}

_VERIFY_SPANS = {
    "verify_cm_biconditional": "thm31",
    "verify_regraded_vanishing": "lem-vanish",
    "verify_rees_a_invariant": "lem41",
    "verify_rees_transfer": "thm42",
    "verify_spread_vanishing": "lem44",
    "dual_route_report": "dual-route",
}


def _mgcm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mgcm" or name.startswith("mgcm."))]


def cache_totals():
    """Sums over every module-level lru_cache in mgcm, found by its cache_info."""
    caches = {}
    for mod in _mgcm_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                caches[id(value)] = value
    entries = hits = misses = 0
    for fn in caches.values():
        info = fn.cache_info()
        entries += info.currsize
        hits += info.hits
        misses += info.misses
    return {"caches.entries": entries, "caches.hits": hits, "caches.misses": misses}


class Tracer:
    """In-memory span recorder for one measured phase."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._undo = []
        self._cache_base = {}

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, namer, after=None):
        names, parent, start, end, stack = (
            self.names, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(namer(args, kwargs))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _bind(self, fn, wrapper):
        """Point every mgcm module attribute bound to fn at wrapper."""
        for mod in _mgcm_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _trace(self, module, attr, name, after=None):
        fn = getattr(sys.modules["mgcm." + module], attr)
        namer = name if callable(name) else (lambda a, k, _n=name: _n)
        self._bind(fn, self._wrap(fn, namer, after))
        return fn

    def install(self):
        import mgcm.cli_io  # noqa: F401  (loads every layer)
        from mgcm.graded_poly import Polynomial
        from mgcm.cohomology import _mult_matrix

        counts = self.counts

        for meth in ("__mul__", "__pow__"):
            fn = getattr(Polynomial, meth)
            setattr(Polynomial, meth,
                    self._wrap(fn, lambda a, k: "graded_poly.mul"))
            self._undo.append((Polynomial, meth, fn))

        def gb_after(idx, args, kwargs, result):
            counts["groebner_engine.gb_elements"] += len(result.elements)

        gb = self._trace("groebner_engine", "groebner_module",
                         "groebner_engine.gb", gb_after)
        self._trace("groebner_engine", "syzygy_basis", "groebner_engine.syzygy")
        self._trace("groebner_engine", "normal_form_column",
                    "groebner_engine.normal_form")

        pb_orig = sys.modules["mgcm.homological"].piece_basis
        pb_state = {"misses": pb_orig.cache_info().misses}

        def pb_after(idx, args, kwargs, result):
            misses = pb_orig.cache_info().misses
            if misses != pb_state["misses"]:
                pb_state["misses"] = misses
                counts["homological.piece_monomials"] += len(result)

        self._trace("homological", "piece_basis", "homological.piece_basis", pb_after)
        self._trace("homological", "minimal_free_resolution", "homological.resolution")
        self._trace("homological", "ext_dual_module", "homological.ext_dual")

        names, parent = self.names, self.parent

        def sparse_after(idx, args, kwargs, result):
            rows = args[1]
            width = 1 + max((c for r in rows for c in r), default=-1)
            counts["cohomology.rank_cells"] += len(rows) * width

        def dense_after(idx, args, kwargs, result):
            rows = args[1]
            cells = len(rows) * (len(rows[0]) if rows else 0)
            counts["cohomology.dense_rank_cells"] += cells
            up = parent[idx]
            if up < 0 or names[up] != "cohomology.rank":
                counts["cohomology.rank_cells"] += cells

        self._trace("cohomology", "sparse_rank", "cohomology.rank", sparse_after)
        self._trace("cohomology", "matrix_rank", "cohomology.rank", dense_after)

        def lc_name(args, kwargs):
            support = args[1] if len(args) > 1 else kwargs["support"]
            kind = "duality" if support.kind == "maximal" else "koszul"
            return "cohomology." + kind

        def lc_after(idx, args, kwargs, result):
            if result.stab_k is not None:
                counts["cohomology.koszul_stab_k_sum"] += result.stab_k

        self._trace("cohomology", "local_cohomology_dim", lc_name, lc_after)

        self._trace("rees_constructions", "rees_module_presentation",
                    "rees_constructions.build")
        self._trace("rees_constructions", "diagonal_of", "rees_constructions.diagonal")
        self._trace("rees_constructions", "rees_piece_oracle", "rees_constructions.oracle")

        for attr, short in _VERIFY_SPANS.items():
            self._trace("theorem_harness", attr, "theorem_harness." + short)

        def colon_name(args, kwargs):
            # signature: (N, ideals, bound, which, instance, theorem)
            theorem = args[5] if len(args) > 5 else kwargs.get("theorem")
            which = args[3] if len(args) > 3 else kwargs.get("which", "both")
            if theorem is None:
                theorem = "lem45" if which == "pushforward-colon" else "thm46"
            return "theorem_harness." + theorem

        self._trace("theorem_harness", "verify_colon_identities", colon_name)

        for attr, short in (("parse_session", "parse"), ("build_session", "build"),
                            ("emit_report", "emit"), ("cache_store", "cache_store"),
                            ("cache_fetch", "cache_fetch")):
            self._trace("cli_io", attr, "cli_io." + short)

        self._cache_base = {
            "gb": (gb, gb.cache_info().misses),
            "piece": (pb_orig, pb_orig.cache_info().misses),
            "mult": (_mult_matrix, _mult_matrix.cache_info()),
        }

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall):
        """Per-layer values for the measured phase that lasted `wall` seconds."""
        n = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            up = self.parent[i]
            if up < 0:
                top += dur[i]
            else:
                child[up] += dur[i]
        self_time = defaultdict(float)
        calls = Counter()
        for i in range(n):
            self_time[self.names[i]] += dur[i] - child[i]
            calls[self.names[i]] += 1

        out = {name: 0 for name, unit in LAYER_METRICS if unit == "count"}
        out.update(self.counts)
        for metric, span in SELF_TIME.items():
            out[metric] = self_time.get(span, 0.0)
        for metric, span in CALLS.items():
            out[metric] = calls.get(span, 0)
        gb, gb0 = self._cache_base["gb"]
        out["groebner_engine.gb_misses"] = gb.cache_info().misses - gb0
        pb, pb0 = self._cache_base["piece"]
        out["homological.piece_basis_misses"] = pb.cache_info().misses - pb0
        mm, mm0 = self._cache_base["mult"]
        info = mm.cache_info()
        out["cohomology.mult_matrix_hits"] = info.hits - mm0.hits
        out["cohomology.mult_matrix_misses"] = info.misses - mm0.misses
        out["trace.wall_s"] = wall
        out["trace.remainder_s"] = wall - top
        out["trace.self_sum_s"] = sum(self_time.values())
        out["trace.spans"] = n
        return out

    def write_spans(self, path):
        """One JSON line per span: run id, span index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps(
                    {"run": self.run_id, "span": i, "name": name,
                     "start": self.start[i], "end": self.end[i],
                     "parent": self.parent[i]}, separators=(",", ":")))
                fh.write("\n")
