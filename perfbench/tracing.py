"""Spans around the calls into each layer of hlra, recorded from outside.

`Tracer.install` wraps each traced function by rebinding its name in every
`hlra.*` module namespace that holds it (a `from .linalg import rref` binds
at import time, so patching linalg alone would miss those callers) and
patches `Subspace` methods on the class.  Spans are kept in memory as
`[name, start_ns, end_ns, parent, info]`, where parent is the index of the
enclosing span or -1, and info is an outcome count for ratio counters.
No package file changes.
"""

import sys
import time

# module -> traced functions: the calls into each layer of src/hlra
LAYERS = {
    "fileio": ("loads_algebra", "dumps_algebra"),
    "model": ("validate_hlr", "_bilinear", "ideal_closure", "is_ideal"),
    "linalg": ("mat_mul", "mat_vec", "rref", "kernel", "charpoly", "rational_roots"),
    "roots": ("root_decomposition", "weight_decomposition", "verify_lemma_closures"),
    "connections": ("root_partition", "weight_partition", "roots_connected"),
    "decomposition": ("enumerate_ideals", "run_decomposition", "simplicity_check"),
    "structure": ("run_structure", "verify_theorem_5_12", "verify_cor_5_13"),
    "reporting": ("render",),
    "cli": ("main",),
}
METHODS = ("add", "intersect")  # of linalg.Subspace

# outcome counted per call, for the ratio counters
INFO = {
    "decomposition.enumerate_ideals": lambda ret: len(ret.ideals),
    "model.is_ideal": lambda ret: int(bool(ret[0])),
    "connections.roots_connected": lambda ret: int(ret is not None),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, func):
        name_id = len(self.names)
        self.names.append(name)
        info = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                ret = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(ret)
            return ret

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "hlra" or n.startswith("hlra.")]
        for layer, funcs in LAYERS.items():
            owner = sys.modules[f"hlra.{layer}"]
            for func_name in funcs:
                orig = getattr(owner, func_name)
                wrapped = self._wrap(f"{layer}.{func_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        cls = sys.modules["hlra.linalg"].Subspace
        for attr in METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(f"linalg.Subspace.{attr}", orig))
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def take(self):
        """Spans recorded since the last take, as a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(names, spans):
    """Per traced name: calls, total_s (outermost spans only, so recursion
    is not counted twice), self_s (duration minus direct children), info."""
    stats = {n: {"calls": 0, "total_ns": 0, "self_ns": 0, "info": 0} for n in names}
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _info in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for idx, (name_id, start, end, parent, info) in enumerate(spans):
        s = stats[names[name_id]]
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[idx]
        s["info"] += info or 0
        p = parent
        while p >= 0 and spans[p][0] != name_id:
            p = spans[p][3]
        if p < 0:
            s["total_ns"] += end - start
    for s in stats.values():
        s["total_s"] = s.pop("total_ns") / 1e9
        s["self_s"] = s.pop("self_ns") / 1e9
    return stats


# per-layer metrics of one traced pass: "<module>.<function>.<field>", where
# field is a summarize() field or one of the derived counters below
PER_LAYER = (
    "decomposition.enumerate_ideals.calls",
    "decomposition.enumerate_ideals.total_s",
    "decomposition.enumerate_ideals.subsets",
    "decomposition.enumerate_ideals.found",
    "decomposition.enumerate_ideals.yield",
    "model.ideal_closure.calls",
    "model.ideal_closure.total_s",
    "model.is_ideal.calls",
    "model.is_ideal.total_s",
    "model.is_ideal.accept_ratio",
    "linalg.mat_mul.calls",
    "linalg.mat_mul.self_s",
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.kernel.calls",
    "linalg.kernel.total_s",
    "linalg.Subspace.add.calls",
    "linalg.Subspace.add.total_s",
    "linalg.Subspace.intersect.calls",
    "linalg.Subspace.intersect.total_s",
    "model.validate_hlr.calls",
    "model.validate_hlr.total_s",
    "model._bilinear.calls",
    "model._bilinear.self_s",
    "linalg.mat_vec.calls",
    "linalg.mat_vec.self_s",
    "connections.root_partition.calls",
    "connections.root_partition.total_s",
    "connections.weight_partition.calls",
    "connections.weight_partition.total_s",
    "connections.roots_connected.calls",
    "connections.roots_connected.hit_ratio",
    "linalg.rational_roots.calls",
    "linalg.rational_roots.self_s",
    "linalg.charpoly.self_s",
    "roots.root_decomposition.total_s",
    "roots.weight_decomposition.total_s",
    "roots.verify_lemma_closures.total_s",
    "structure.run_structure.total_s",
    "structure.verify_theorem_5_12.calls",
    "structure.verify_cor_5_13.total_s",
    "decomposition.run_decomposition.total_s",
    "decomposition.simplicity_check.total_s",
    "fileio.loads_algebra.calls",
    "fileio.loads_algebra.total_s",
    "fileio.dumps_algebra.calls",
    "fileio.dumps_algebra.total_s",
    "reporting.render.calls",
    "reporting.render.total_s",
    "cli.main.calls",
    "cli.main.self_s",
)


def unit(metric):
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    return "ratio" if field in ("yield", "accept_ratio", "hit_ratio", "overhead_frac") else "count"


def layer_metrics(names, spans):
    """PER_LAYER values for the spans of one traced pass."""
    st = summarize(names, spans)

    def ratio(a, b):
        return a / b if b else 0.0

    enum = st["decomposition.enumerate_ideals"]
    subsets = nested_count(names, spans, "model.ideal_closure", "decomposition.enumerate_ideals")
    derived = {
        "decomposition.enumerate_ideals.subsets": subsets,
        "decomposition.enumerate_ideals.found": enum["info"],
        "decomposition.enumerate_ideals.yield": ratio(enum["info"], subsets),
        "model.is_ideal.accept_ratio": ratio(st["model.is_ideal"]["info"], st["model.is_ideal"]["calls"]),
        "connections.roots_connected.hit_ratio": ratio(
            st["connections.roots_connected"]["info"], st["connections.roots_connected"]["calls"]
        ),
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        else:
            func, field = metric.rsplit(".", 1)
            out[metric] = st[func][field]
    return out


def nested_count(names, spans, child, parent):
    """Spans of `child` whose direct parent is a `parent` span."""
    c, p = names.index(child), names.index(parent)
    return sum(1 for s in spans if s[0] == c and s[3] >= 0 and spans[s[3]][0] == p)


def malformed(spans):
    """Spans that do not lie inside their parent or end before they start."""
    bad = []
    for idx, (_n, start, end, parent, _i) in enumerate(spans):
        if end < start or (parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2])):
            bad.append(idx)
        elif parent >= idx:
            bad.append(idx)
    return bad
