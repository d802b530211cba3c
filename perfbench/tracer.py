"""In-memory span tracer that wraps coxfield functions where callers look them up.

`from .x import f` binds a separate copy of `f` in every importing module,
so each wrap site names the module whose global the caller reads.  Spans
(name, start, end, parent) go into flat arrays; self time is a span's
duration minus the durations of its direct children.  Sites that no longer
exist are listed in `missing` instead of failing the run, and `restore`
puts every original object back.
"""

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np


def _bound_arg(sig, args, kwargs, name):
    if sig is None:
        return None
    try:
        return sig.bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _reg_path_label(sig, args, kwargs):
    return f"solvers.{_bound_arg(sig, args, kwargs, 'solver')}.reg_path"


def _lambert_hook(counts, sig, args, kwargs, result, exc):
    if args:
        counts["scalar.lambert_w0_exp.elems"] += int(np.size(args[0]))


def _reg_path_hook(counts, sig, args, kwargs, result, exc):
    solver = _bound_arg(sig, args, kwargs, "solver")
    if result is None:
        return
    counts[f"solvers.{solver}.epochs"] += sum(int(r.epochs) for r in result)
    counts[f"solvers.{solver}.unconverged"] += sum(not r.converged for r in result)


def _rs_path_hook(counts, sig, args, kwargs, result, exc):
    if result is not None:
        counts["rs.points_converged"] += sum(r is not None for r in result)


def _estimate_hook(counts, sig, args, kwargs, result, exc):
    if exc is not None or not (result.w_valid and result.v_valid):
        counts["observables.estimate.invalid"] += 1


# (module, attribute, span name, label function, count hook)
SITES = (
    ("coxfield.prox", "lambert_w0_exp", "scalar.lambert_w0_exp", None, _lambert_hook),
    ("coxfield.solvers", "nelson_aalen", "survival.nelson_aalen", None, None),
    ("coxfield.solvers", "cox_prox_bundle", "prox.cox_prox_bundle", None, None),
    ("coxfield.solvers", "prox_g", "prox.prox_g", None, None),
    ("coxfield.solvers", "prox_enet", "prox.prox_enet", None, None),
    ("coxfield.solvers", "prox_enet_dot", "prox.prox_enet_dot", None, None),
    ("coxfield.rs", "solve_lambda", "rs.solve_lambda", None, None),
    ("coxfield.rs", "rs_rhs_enet", "rs.rs_rhs_enet", None, None),
    ("coxfield.rs", "prox_g", "prox.prox_g", None, None),
    ("coxfield.survival", "harrell_c", "survival.harrell_c", None, None),
    ("coxfield.experiment", "reg_path", None, _reg_path_label, _reg_path_hook),
    ("coxfield.experiment", "solve_rs_path", "rs.solve_rs_path", None, _rs_path_hook),
    ("coxfield.experiment", "estimate_from_amp", "observables.estimate", None, _estimate_hook),
    ("coxfield.experiment", "estimate_from_cd", "observables.estimate", None, _estimate_hook),
    ("coxfield.experiment", "rscv_c_index", "survival.rscv_c_index", None, None),
    ("coxfield.experiment", "harrell_c", "survival.harrell_c", None, None),
    ("coxfield.experiment", "generate_dataset", "synthgen.generate_dataset", None, None),
    ("coxfield.experiment", "write_table_csv", "experiment.write_table_csv", None, None),
    # the benchmark's own calls go through the package namespace
    ("coxfield", "run_experiment", "experiment.run_experiment", None, None),
    ("coxfield", "reg_path", None, _reg_path_label, _reg_path_hook),
    ("coxfield", "solve_rs_path", "rs.solve_rs_path", None, _rs_path_hook),
    ("coxfield", "estimate_from_amp", "observables.estimate", None, _estimate_hook),
    ("coxfield", "estimate_from_cd", "observables.estimate", None, _estimate_hook),
    ("coxfield", "rscv_c_index", "survival.rscv_c_index", None, None),
    ("coxfield", "harrell_c", "survival.harrell_c", None, None),
    ("coxfield", "generate_dataset", "synthgen.generate_dataset", None, None),
)


# spans whose direct children are summed per child name (stage times)
_STAGE_PARENTS = ("experiment.run_experiment",)


class Tracer:
    """Install wrappers with `install`, mark phases, then `restore`."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phases = []  # (label, first span index, counts)
        self.missing = []
        self.installed = []  # (module, attribute, original)
        self.originals = []  # every (module, attribute, original) ever wrapped
        self.hook_errors = 0
        self._stack = []

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_phase(self, label):
        self.phases.append((label, len(self.name_id), _Counts()))

    def install(self):
        for mod_name, attr, span_name, label_fn, hook in self.sites:
            try:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                site = f"{mod_name}.{attr}"
                if site not in self.missing:
                    self.missing.append(site)
                continue
            wrapper = self._wrap(original, span_name, label_fn, hook)
            setattr(module, attr, wrapper)
            self.installed.append((module, attr, original))
            self.originals.append((module, attr, original))

    def restore(self):
        while self.installed:
            module, attr, original = self.installed.pop()
            setattr(module, attr, original)

    def restored(self):
        """True when every wrapped name is bound to its original again."""
        return not self.installed and all(
            getattr(module, attr, None) is original
            for module, attr, original in self.originals)

    def _wrap(self, original, span_name, label_fn, hook):
        try:
            sig = inspect.signature(original)
        except (TypeError, ValueError):
            sig = None
        fixed_id = self._intern(span_name) if span_name else None
        stack, name_id = self._stack, self.name_id
        start, end, parent = self.start, self.end, self.parent

        def traced(*args, **kwargs):
            nid = fixed_id if label_fn is None else self._intern(
                label_fn(sig, args, kwargs))
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                end[idx] = perf_counter()
                stack.pop()
                self._count(hook, sig, args, kwargs, None, exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            self._count(hook, sig, args, kwargs, result, None)
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, hook, sig, args, kwargs, result, exc):
        # a hook that no longer fits a refactored result type is reported,
        # not raised into the traced program
        if hook is None or not self.phases:
            return
        try:
            hook(self.phases[-1][2], sig, args, kwargs, result, exc)
        except Exception:
            self.hook_errors += 1

    def phase_summaries(self):
        """Per phase: {"label", "total": {name: s}, "self": {name: s},
        "calls": {name: n}, "child_total": {(stage parent, child): s},
        "hazard_maps": prox_g calls made directly by solve_lambda,
        "counts": {hook counter: value}}."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        self_dur = dur - child_dur
        n_names = len(self.names)
        parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
        stage_ids = [self._name_ids[n] for n in _STAGE_PARENTS if n in self._name_ids]
        bounds = [p[1] for p in self.phases] + [dur.size]
        out = []
        for k, (label, lo, counts) in enumerate(self.phases):
            sl = slice(lo, bounds[k + 1])
            ids = name_id[sl]
            total = np.bincount(ids, weights=dur[sl], minlength=n_names)
            own = np.bincount(ids, weights=self_dur[sl], minlength=n_names)
            calls = np.bincount(ids, minlength=n_names)
            pairs = {}
            staged = np.flatnonzero(np.isin(parent_name[sl], stage_ids))
            for j in staged:
                key = (self.names[parent_name[sl][j]], self.names[ids[j]])
                pairs[key] = pairs.get(key, 0.0) + float(dur[sl][j])
            hazard_maps = int(np.count_nonzero(
                (ids == self._name_ids.get("prox.prox_g", -2))
                & (parent_name[sl] == self._name_ids.get("rs.solve_lambda", -2))))
            out.append({
                "label": label,
                "total": {n: float(total[i]) for i, n in enumerate(self.names)},
                "self": {n: float(own[i]) for i, n in enumerate(self.names)},
                "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
                "child_total": pairs,
                "hazard_maps": hazard_maps,
                "counts": dict(counts),
            })
        return out

    def dump(self, path):
        """Write every span to an .npz file (names, name_id, start, end, parent)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 phase_labels=np.array([p[0] for p in self.phases]),
                 phase_first=np.array([p[1] for p in self.phases], dtype=np.int64))



class _Counts(dict):
    def __missing__(self, key):
        return 0
