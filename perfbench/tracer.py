"""Outside-in tracing of the chromaq modules for the benchmark's traced runs.

`Tracer.install()` wraps the public functions of six chromaq modules from
the outside and rebinds every name in every loaded `chromaq` module (and
every module-level dict value, such as `bridge.ALL_CHECKS`) that refers to
the original. Each wrapped call records a span (name, start, end, parent)
in memory; `Tracer.summary()` reduces the spans once the traced command
has returned. The wrappers call through to the original objects, so the
`lru_cache`s of the program keep working.

`exactnum` calls are too many and too short for a span each; three of its
methods get a counter instead.

Nothing under `src/` is modified.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("cli", "bridge", "fqoracle", "chromallt", "symfunc", "combinatorics")

# Per-element helpers called hundreds of thousands of times in one deep run
# (matrix products in the group sweeps, the interval-closure test run by
# every IndiffGraph construction, the area of every path). A span each would
# cost more than the work it measures, so their time stays in the span that
# calls them.
LEAVES = frozenset({
    "fqoracle.mat_mul", "fqoracle.mat_inv", "fqoracle.mat_identity",
    "combinatorics.is_indifference", "combinatorics.area",
    "combinatorics.graph_of", "combinatorics.hrv",
})

# Span groups reported by the benchmark. A group's time covers only its
# outermost spans, so nested calls inside the group are not counted twice;
# its call count covers every span.
GROUPS = {
    "bridge.job": ("bridge.run_check",),
    "bridge.p_one": ("bridge.p_one",),
    "fqoracle.induction": ("fqoracle.induction_table",),
    "fqoracle.induce": ("fqoracle.induce_to_GL",),
    "fqoracle.classfn": ("fqoracle.chi_bar", "fqoracle.chi_super", "fqoracle.psi_pseudo"),
    "fqoracle.permchar": ("fqoracle.permutation_character_oracle",),
    "fqoracle.hess": ("fqoracle.hessenberg_count",),
    "fqoracle.superclass": ("fqoracle.superclass_sizes", "fqoracle.superclass_rep",
                            "fqoracle.superclass_label"),
    "chromallt.csf": ("chromallt.csf",),
    "chromallt.llt": ("chromallt.llt_vertical",),
    "chromallt.as": ("chromallt.as_expansion",),
    "symfunc.basis": ("symfunc.basis_element",),
    "symfunc.expand": ("symfunc.expand_in_basis",),
    "symfunc.to_sympoly": ("symfunc.symfunc_to_sympoly",),
    "symfunc.plethysm_omega": ("symfunc.plethysm_frac", "symfunc.omega"),
    "combinatorics.index": ("combinatorics.gen_partitions", "combinatorics.gen_dyck",
                            "combinatorics.gen_tall_schroder",
                            "combinatorics.indifference_graphs"),
    "combinatorics.mobius": ("combinatorics.mobius_subgraph",),
    "combinatorics.type_of": ("combinatorics.type_of",),
}

CHECKS = ("check_cqs", "check_hess", "check_poincare", "check_llt", "check_mesa",
          "check_psi_decomp", "check_permtoind", "check_as", "check_cm",
          "check_palindromic", "check_prop56", "check_gg", "check_st_en", "check_cor66")
GROUPS.update({f"bridge.{c}": (f"bridge.{c}",) for c in CHECKS})

# (class, method, counter) triples counted in exactnum.
EXACTNUM_COUNTERS = (
    ("RationalFunc", "__init__", "ratfunc_new"),
    ("RationalFunc", "__eq__", "ratfunc_eq"),
    ("LaurentPoly", "__mul__", "laurent_mul"),
)


def _public_functions(mod):
    """Public functions defined in `mod`, minus generators and leaves."""
    short = mod.__name__.rsplit(".", 1)[1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(obj)):
            continue  # a span would end when the generator is created
        if f"{short}.{name}" in LEAVES:
            continue
        yield f"{short}.{name}", obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int]] = []
        self.names: list[str] = []
        self.counts = {key: 0 for _, _, key in EXACTNUM_COUNTERS}
        self.as_inputs: list = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"chromaq.{m}"] for m in MODULES}
        replace: dict[int, object] = {}
        for mod in mods.values():
            for qual, fn in _public_functions(mod):
                self._originals[qual] = fn
                replace[id(fn)] = self._span_wrapper(qual, fn)
        originals = {id(fn) for fn in self._originals.values()}
        for name, mod in list(sys.modules.items()):
            if name != "chromaq" and not name.startswith("chromaq."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in originals:
                            obj[k] = replace[id(v)]
        exactnum = sys.modules["chromaq.exactnum"]
        for cls_name, meth, key in EXACTNUM_COUNTERS:
            cls = getattr(exactnum, cls_name)
            orig = cls.__dict__[meth]
            wrapped = self._count_wrapper(key, orig)
            for attr, obj in list(cls.__dict__.items()):
                if obj is orig:  # __rmul__ = __mul__ shares the function
                    setattr(cls, attr, wrapped)

    def _span_wrapper(self, qual: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = len(self.names)
        self.names.append(qual)
        record = self.as_inputs.append if qual == "chromallt.as_expansion" else None

        def wrapper(*args, **kwargs):
            if record is not None:
                record(args[0] if args else kwargs["sigma"])
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, stack[-1] if stack else -1)

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-module self time, per-group calls/time/max and exactnum counts."""
        spans, names = self.spans, self.names
        module_of = [q.split(".", 1)[0] for q in names]
        group_bit = [0] * len(names)
        group_names = list(GROUPS)
        for b, g in enumerate(group_names):
            for qual in GROUPS[g]:
                if qual in names:
                    group_bit[names.index(qual)] = 1 << b

        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        self_s = {m: 0.0 for m in MODULES}
        calls = [0] * len(group_names)
        total = [0.0] * len(group_names)
        longest = [0.0] * len(group_names)
        above = [0] * len(spans)  # groups of the strict ancestors, as a bit mask
        for i, (nid, start, end, parent) in enumerate(spans):
            dur = end - start
            self_s[module_of[nid]] += dur - child_time[i]
            mask = above[i] = (above[parent] | group_bit[spans[parent][0]]) if parent >= 0 else 0
            bit = group_bit[nid]
            if bit:
                b = bit.bit_length() - 1
                calls[b] += 1
                longest[b] = max(longest[b], dur)
                if not mask & bit:
                    total[b] += dur

        area = sys.modules["chromaq.combinatorics"].area  # a leaf, so never wrapped
        induction = self._originals["fqoracle.induction_table"]
        return {
            "spans": len(spans),
            "self_s": self_s,
            "groups": {g: {"calls": calls[b], "s": total[b], "max_s": longest[b]}
                       for b, g in enumerate(group_names)},
            "exactnum": dict(self.counts),
            "induction_builds": induction.cache_info().misses,
            "orientations": sum(2 ** len(area(sigma)) for sigma in self.as_inputs),
        }
