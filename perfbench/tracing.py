"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces public ``monadlab`` functions with wrappers in every
module namespace that bound them (``from .finset import curry`` makes a
second binding in the importing module), and ``StateMonadCtx`` methods on
the class.  A span is ``[name, start, end, parent, tag]``; ``tag`` records
the outcome where a metric splits by it (accept/reject, law-check mode).
Per-point helpers (``mult_at``, ``unit_at``, ``t_obj``) are not wrapped: they
run hundreds of thousands of times per job and their cost stays in the
caller's span.
"""

from __future__ import annotations

from time import perf_counter

MODULES = ("finset", "statemonad", "algebra", "monadicity", "equational", "cli")

#: (module, function, span name) for module-level functions.
FUNCTIONS = [
    ("finset", "hom", "finset.hom"),
    ("finset", "curry", "finset.curry"),
    ("finset", "uncurry", "finset.uncurry"),
    ("finset", "evaluation", "finset.evaluation"),
    ("finset", "product_map", "finset.product_map"),
    ("finset", "compose", "finset.compose"),
    ("finset", "exp_map", "finset.exp_map"),
    ("finset", "identity", "finset.identity"),
    ("finset", "pairing", "finset.pairing"),
    ("finset", "factorize", "finset.factorize"),
    ("finset", "classify", "finset.classify"),
    ("algebra", "enumerate_algebras", "algebra.search"),
    ("algebra", "check_algebra", "algebra.validate"),
    ("algebra", "morphism_witness", "algebra.morphism_witness"),
    ("algebra", "algebra_to_dict", "algebra.to_dict"),
    ("monadicity", "verify_monadicity", "monadicity.verify"),
    ("monadicity", "check_suite", "monadicity.check_suite"),
    ("monadicity", "function_algebra", "monadicity.function_algebra"),
    ("monadicity", "base_map", "monadicity.base_map"),
    ("monadicity", "base_iso", "monadicity.base_iso"),
    ("monadicity", "extract_base", "monadicity.extract_base"),
    ("monadicity", "compare_inverse", "monadicity.compare_inverse"),
    ("monadicity", "compare_retraction", "monadicity.compare_retraction"),
    ("monadicity", "compare_section", "monadicity.compare_section"),
    ("monadicity", "epi_section", "monadicity.epi_section"),
    ("monadicity", "compare_is_algebra_map", "monadicity.compare_is_algebra_map"),
    ("equational", "parse_term", "equational.parse"),
    ("equational", "normalize", "equational.normalize"),
    ("equational", "terms_equal", "equational.equal"),
    ("equational", "denote", "equational.denote"),
    ("equational", "free_classes", "equational.free_classes"),
    ("cli", "main", "cli.main"),
]

#: ``StateMonadCtx`` methods and their span names.
METHODS = [
    ("unit_law_witness", "statemonad.unit_law"),
    ("mult_agreement", "statemonad.mult_agreement"),
    ("associativity_check", "statemonad.associativity"),
    ("unit", "statemonad.unit"),
    ("mult", "statemonad.mult"),
    ("mult_pointwise", "statemonad.mult_pointwise"),
    ("t_map", "statemonad.t_map"),
    ("graph_map", "statemonad.graph_map"),
    ("const_map", "statemonad.const_map"),
    ("graph_flatten_identity", "statemonad.graph_flatten_identity"),
    ("pairing_via_diagonal_identity", "statemonad.pairing_via_diagonal_identity"),
    ("restrict_to_chosen", "statemonad.restrict_to_chosen"),
    ("chosen_eval", "statemonad.chosen_eval"),
]


def _tag(name, out):
    if name == "algebra.validate":
        checked = getattr(out, "checked", None)
        return "reject" if checked is None else f"accept:{checked}"
    if name in ("statemonad.associativity", "statemonad.mult_agreement"):
        return (out.mode, out.checked)
    return None


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, materialize=False):
        spans, stack = self.spans, self._stack
        tagged = name in ("algebra.validate", "statemonad.associativity",
                          "statemonad.mult_agreement")

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = iter(list(out))
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tagged:
                rec[4] = _tag(name, out)
            return out

        return wrapper

    def install(self) -> None:
        mods = [getattr(self.lib, m) for m in MODULES] + [self.lib.package]
        for home, attr, name in FUNCTIONS:
            orig = getattr(getattr(self.lib, home), attr)
            wrapper = self._wrap(name, orig, materialize=(name == "finset.hom"))
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        cls = self.lib.statemonad.StateMonadCtx
        for attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def reset(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list], wall: float) -> dict:
    """Per-layer metrics of one traced job from its spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    top = 0.0
    points: dict[str, list] = {}
    for i, (name, start, end, parent, tag) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        layer = name.split(".")[0]
        if name == "algebra.validate":
            name = "algebra.validate." + ("reject" if tag == "reject" else "accept")
            if tag == "accept:sampled":
                calls["algebra.validate.sampled"] = calls.get("algebra.validate.sampled", 0) + 1
        for key in (name, layer):
            total[key] = total.get(key, 0.0) + dur
            self_s[key] = self_s.get(key, 0.0) + own
            calls[key] = calls.get(key, 0) + 1
        if parent < 0:
            top += dur
        if tag is not None and name.startswith("statemonad."):
            acc = points.setdefault(tag[0], [0, 0.0])
            acc[0] += tag[1]
            acc[1] += dur

    m = {
        "finset.calls": calls.get("finset", 0),
        "finset.self_s": self_s.get("finset", 0.0),
        "finset.exp_map.self_s": self_s.get("finset.exp_map", 0.0),
        "finset.curry.self_s": self_s.get("finset.curry", 0.0),
        "finset.compose.self_s": self_s.get("finset.compose", 0.0),
        "statemonad.self_s": self_s.get("statemonad", 0.0),
        "statemonad.unit_law.s": total.get("statemonad.unit_law", 0.0),
        "statemonad.mult_agreement.s": total.get("statemonad.mult_agreement", 0.0),
        "statemonad.associativity.s": total.get("statemonad.associativity", 0.0),
        "algebra.self_s": self_s.get("algebra", 0.0),
        "algebra.search.self_s": self_s.get("algebra.search", 0.0),
        "monadicity.self_s": self_s.get("monadicity", 0.0),
        "monadicity.verify.self_s": self_s.get("monadicity.verify", 0.0),
        "monadicity.check_suite.s": total.get("monadicity.check_suite", 0.0),
        "monadicity.check_suite.calls": calls.get("monadicity.check_suite", 0),
        "monadicity.function_algebra.self_s": self_s.get("monadicity.function_algebra", 0.0),
        "monadicity.base_map.self_s": self_s.get("monadicity.base_map", 0.0),
        "equational.self_s": self_s.get("equational", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.calls": calls.get("cli", 0),
        "trace.spans": len(spans),
        "trace.top_level_share": top / wall if wall > 0 else 0.0,
    }
    for kind in ("accept", "reject"):
        m[f"algebra.validate.{kind}.s"] = total.get(f"algebra.validate.{kind}", 0.0)
        m[f"algebra.validate.{kind}.calls"] = calls.get(f"algebra.validate.{kind}", 0)
    m["algebra.validate.sampled"] = calls.get("algebra.validate.sampled", 0)
    m["algebra.morphism_witness.s"] = total.get("algebra.morphism_witness", 0.0)
    m["algebra.morphism_witness.calls"] = calls.get("algebra.morphism_witness", 0)
    for op in ("parse", "normalize", "equal", "free_classes"):
        m[f"equational.{op}.s"] = total.get(f"equational.{op}", 0.0)
        m[f"equational.{op}.calls"] = calls.get(f"equational.{op}", 0)
    for mode in ("full", "reduced", "sampled"):
        n, secs = points.get(mode, (0, 0.0))
        m[f"statemonad.{mode}.points_per_s"] = n / secs if secs > 0 else 0.0
    return m


#: The layer predicted to take more than half of the traced wall time.
DOMINANT = {
    "laws": ("statemonad.self_s", "finset.self_s"),
    "classify": ("algebra.search.self_s",),
    "verify": ("algebra.validate.accept.s", "algebra.validate.reject.s"),
    "terms": ("equational.self_s",),
}
