"""Spans around calls into fin2cat's public functions, from outside.

install() replaces each listed function, in every fin2cat module that
holds it by name, with a wrapper that records one span per call: name,
start, end, parent span and task id.  Spans stay in memory until
write().  Self time is a span's duration minus its children's, with the
wrappers' own bookkeeping taken out of every enclosing span.  Work
counters are read at the same boundaries from arguments, results and
the exceptions a call raised.
"""

import re
import sys
import time
from array import array
from collections import defaultdict

# module -> public functions wrapped wherever they are imported by name
FUNCTIONS = {
    "fincat": ("make_fincat", "make_fun", "make_nat", "compose_fun", "paste", "product_cat", "hom_cat",
               "iso_categories"),
    "freegen": ("normalize_2cell", "two_cells_equal", "preorder_leq"),
    "deltadiag": ("make_delta_diagram",),
    "descent": ("lax_descent", "descent"),
    "laxalg": ("monoid_two_monad", "check_pseudomonad", "check_lax_algebra", "check_lax_morphism",
               "check_transformation", "enumerate_hom_category", "build_Tzy", "verify_prop_descent"),
    "codescent": ("quotient_category", "lax_codescent", "build_Ay_strict", "kleisli", "verify_codescent_universal"),
    "cli": ("main", "load", "run"),
}
# (module, class, method, label) wrapped on the class itself
METHODS = [("fincat", "FinCat", "__eq__", "fincat.FinCat.eq")] + [
    ("laxalg", "MonadUniverse", m, "laxalg.MonadUniverse.%s" % m)
    for m in ("T", "T_fun", "T_nat", "m", "eta", "index_of")
]

# counters derived at the boundaries, each with its unit and direction
COUNTERS = [
    ("fincat.hom_cat.total_s", "s", "lower"),
    ("fincat.hom_cat.functors", "count", "lower"),
    ("fincat.hom_cat.transformations", "count", "lower"),
    ("fincat.hom_cat.pairs", "count", "lower"),
    ("fincat.hom_cat.pair_hit_ratio", "ratio", "higher"),
    ("fincat.hom_cat.repeat_share", "ratio", "lower"),
    ("fincat.make_fincat.morphisms", "count", "lower"),
    ("fincat.make_fincat.assoc_triples", "count", "lower"),
    ("fincat.make_fun.table_entries", "count", "lower"),
    ("freegen.normalize_2cell.steps", "count", "lower"),
    ("freegen.preorder_leq.exhausted", "count", "lower"),
    ("descent.lax_descent.candidates", "count", "lower"),
    ("descent.lax_descent.objects", "count", "lower"),
    ("descent.lax_descent.accept_ratio", "ratio", "higher"),
    ("laxalg.enumerate_hom_category.accept_ratio", "ratio", "higher"),
    ("laxalg.check_lax_morphism.rejected", "count", "lower"),
    ("laxalg.verify_prop_descent.total_s", "s", "lower"),
    ("laxalg.check_pseudomonad.total_s", "s", "lower"),
    ("codescent.quotient_category.total_s", "s", "lower"),
    ("codescent.quotient_category.rules", "count", "lower"),
    ("codescent.quotient_category.rewrites", "count", "lower"),
    ("codescent.quotient_category.normal_forms", "count", "lower"),
    ("codescent.quotient_category.undecided", "count", "lower"),
    ("cli.main.total_s", "s", "lower"),
]

MAX_SPANS = 4_000_000


def labels():
    out = ["%s.%s" % (mod, fn) for mod, fns in FUNCTIONS.items() for fn in fns]
    return out + [label for _, _, _, label in METHODS]


def layer_metrics():
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    out = []
    for label in labels():
        out.append(("%s.calls" % label, "count", "lower"))
        out.append(("%s.self_s" % label, "s", "lower"))
    out.extend(COUNTERS)
    out.append(("trace_overhead", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = labels()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_task = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack = []
        self.lost = 0.0
        self.task = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.count = defaultdict(float)
        self.seen_homs = []
        self.patched = []
        self.t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        import fin2cat.cli  # noqa: F401  (loads every module)

        mods = {name: sys.modules["fin2cat.%s" % name] for name in FUNCTIONS}
        fin2cat_mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("fin2cat.")]
        from fin2cat.fincat import FinCat

        self.orig_eq = FinCat.__eq__
        for mod, fns in FUNCTIONS.items():
            for fn in fns:
                orig = getattr(mods[mod], fn)
                label = "%s.%s" % (mod, fn)
                wrapped = self._wrap(label, orig, getattr(self, "_post_%s_%s" % (mod, fn), None))
                for m in fin2cat_mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self.patched.append((m, attr, orig))
        for mod, cls_name, meth, label in METHODS:
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(label, orig, None))
            self.patched.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    def start_task(self, task_id):
        self.task = task_id
        self.seen_homs = []

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, label, fn, post):
        tracer = self
        name = self.name_id[label]
        clock = time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack = self.stack
        pre = self._pre_enumerate if label == "laxalg.enumerate_hom_category" else None

        def wrapper(*args, **kw):
            tin = clock()
            idx = len(tracer.span_start)
            if idx < MAX_SPANS:
                tracer.span_name.append(name)
                tracer.span_task.append(tracer.task)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                tracer.dropped += 1
                idx = -1
            frame = [idx, 0.0, 0.0, pre() if pre else None]
            stack.append(frame)
            err = None
            t0 = clock()
            frame[2] = tracer.lost
            try:
                result = fn(*args, **kw)
                return result
            except BaseException as e:
                result = None
                err = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = (t1 - t0) - (tracer.lost - frame[2])
                calls[label] += 1
                total_s[label] += dur
                self_s[label] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.span_start[idx] = t0 - tracer.t0
                    tracer.span_end[idx] = t1 - tracer.t0
                if post is not None:
                    try:
                        post(args, kw, result, err, frame[3])
                    except (AttributeError, KeyError, TypeError, ValueError):
                        pass
                tracer.lost += (t0 - tin) + (clock() - t1)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read at the boundaries -----------------------------------

    def _post_fincat_hom_cat(self, args, kw, H, err, _):
        if H is None:
            return
        n = len(H.objects)
        self.count["hom.functors"] += n
        self.count["hom.transformations"] += len(H.morphisms)
        self.count["hom.pairs"] += n * n
        self.count["hom.hits"] += len({(H.dom[m], H.cod[m]) for m in H.morphisms})
        C, D = args[0], args[1]
        eq = self.orig_eq
        repeat = any((c is C or eq(c, C)) and (d is D or eq(d, D)) for c, d in self.seen_homs)
        self.seen_homs.append((C, D))
        self.count["hom.builds"] += 1
        self.count["hom.repeats"] += repeat

    def _post_fincat_make_fincat(self, args, kw, result, err, _):
        def unpack(objects, morphisms, dom, cod, identity, compose):
            return morphisms, dom, cod

        morphisms, dom, cod = unpack(*args, **kw)
        out = defaultdict(int)
        for m in morphisms:
            out[dom[m]] += 1
        second = defaultdict(int)
        for g in morphisms:
            second[dom[g]] += out[cod[g]]
        self.count["fincat.make_fincat.morphisms"] += len(morphisms)
        self.count["fincat.make_fincat.assoc_triples"] += sum(second[cod[f]] for f in morphisms)

    def _post_fincat_make_fun(self, args, kw, result, err, _):
        src = args[0] if args else kw["src"]
        self.count["fincat.make_fun.table_entries"] += len(src.compose_table)

    def _post_freegen_normalize_2cell(self, args, kw, result, err, _):
        self.count["freegen.normalize_2cell.steps"] += len(args[0].steps)

    def _post_freegen_preorder_leq(self, args, kw, result, err, _):
        self.count["freegen.preorder_leq.exhausted"] += result == "NoWithinBudget"

    def _post_descent_lax_descent(self, args, kw, result, err, _):
        D = args[0]
        self.count["descent.lax_descent.candidates"] += sum(
            len(D.D2.hom(D.Dd1.ob(f), D.Dd0.ob(f))) for f in D.D1.objects
        )
        if result is not None:
            self.count["descent.lax_descent.objects"] += len(result.carrier.objects)

    def _pre_enumerate(self):
        return self.calls["laxalg.check_lax_morphism"]

    def _post_laxalg_enumerate_hom_category(self, args, kw, result, err, before):
        self.count["enum.candidates"] += self.calls["laxalg.check_lax_morphism"] - before
        if result is not None:
            self.count["enum.accepted"] += len(result.objects)

    def _post_laxalg_check_lax_morphism(self, args, kw, result, err, _):
        if err is not None and type(err).__name__ == "CoherenceViolation":
            self.count["laxalg.check_lax_morphism.rejected"] += 1

    def _post_codescent_quotient_category(self, args, kw, Q, err, _):
        if Q is None:
            return
        self.count["codescent.quotient_category.undecided"] += Q.status != "Finite"
        for line in Q.trace:
            m = re.match(r"completed with (\d+) rules after (\d+) rewrite", line)
            if m:
                self.count["codescent.quotient_category.rules"] += int(m.group(1))
                self.count["codescent.quotient_category.rewrites"] += int(m.group(2))
            m = re.match(r"rewrite budget exhausted after (\d+) applications", line)
            if m:
                self.count["codescent.quotient_category.rewrites"] += int(m.group(1))
            m = re.match(r"found (\d+) normal forms", line)
            if m:
                self.count["codescent.quotient_category.normal_forms"] += int(m.group(1))

    # -- results -------------------------------------------------------------

    def metrics(self):
        """{metric name: value} for every calls/self_s pair and counter."""
        out = {}
        for label in self.names:
            out["%s.calls" % label] = self.calls[label]
            out["%s.self_s" % label] = self.self_s[label]
        c = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        out.update({
            "fincat.hom_cat.total_s": self.total_s["fincat.hom_cat"],
            "fincat.hom_cat.functors": c["hom.functors"],
            "fincat.hom_cat.transformations": c["hom.transformations"],
            "fincat.hom_cat.pairs": c["hom.pairs"],
            "fincat.hom_cat.pair_hit_ratio": ratio(c["hom.hits"], c["hom.pairs"]),
            "fincat.hom_cat.repeat_share": ratio(c["hom.repeats"], c["hom.builds"]),
            "descent.lax_descent.accept_ratio": ratio(c["descent.lax_descent.objects"],
                                                      c["descent.lax_descent.candidates"]),
            "laxalg.enumerate_hom_category.accept_ratio": ratio(c["enum.accepted"], c["enum.candidates"]),
            "laxalg.verify_prop_descent.total_s": self.total_s["laxalg.verify_prop_descent"],
            "laxalg.check_pseudomonad.total_s": self.total_s["laxalg.check_pseudomonad"],
            "codescent.quotient_category.total_s": self.total_s["codescent.quotient_category"],
            "cli.main.total_s": self.total_s["cli.main"],
        })
        for name, _, _ in COUNTERS:
            if name not in out:
                out[name] = c[name]
        return out

    def write(self, path):
        """Write every recorded span as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("# spans dropped past the in-memory limit: %d\n" % self.dropped)
            fh.write("span\ttask\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write("%d\t%d\t%s\t%d\t%.6f\t%.6f\n" % (
                    i, self.span_task[i], names[self.span_name[i]], self.span_parent[i],
                    self.span_start[i], self.span_end[i]))
