"""Span tracing of forms6 from outside the package.

``Tracer.install`` wraps the public functions of each layer and rebinds the
wrapper under every name that points at the original in a loaded ``forms6``
module, so ``invariants.compute_K`` and ``liealg.compute_K`` (a
``from .invariants import compute_K``) are both caught.  ``uninstall``
restores every binding, so the timed rounds run the unmodified program.

A span is (name, start, end, parent, item).  Spans stay in flat arrays in
memory and are written out once, at the end of the run.  Self time is the
span's duration minus the time covered by its direct children; calls are
strictly nested in this single-threaded program, so children never overlap.
"""

import functools
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute or Class.method, span group)
SPANNED = (
    ("forms6.exterior", "wedge", "exterior.wedge"),
    ("forms6.exterior", "interior", "exterior.interior"),
    ("forms6.exterior", "pullback", "exterior.pullback"),
    ("forms6.invariants", "compute_K", "invariants.compute_K"),
    ("forms6.invariants", "compute_F", "invariants.compute_F"),
    ("forms6.invariants", "q_form", "invariants.q_form"),
    ("forms6.invariants", "hat_map", "invariants.hat_map"),
    ("forms6.liealg", "LieAlgebra6.d", "liealg.d"),
    ("forms6.liealg", "nijenhuis", "liealg.nijenhuis"),
    ("forms6.liealg", "nijenhuis_identity_sides", "liealg.nijenhuis"),
    ("forms6.liealg", "verify_nijenhuis_identity", "liealg.nijenhuis"),
    ("forms6.flow", "integrate", "flow.integrate"),
    ("forms6.flow", "normalized_limit", "flow.normalized_limit"),
    ("forms6.hessian", "leaf_data", "hessian.leaf_data"),
    ("forms6.hessian", "fiber_verifications", "hessian.fiber_verifications"),
    ("forms6.hessian", "scalar_curvature", "hessian.scalar_curvature"),
    ("forms6.io", "atomic_write_text", "io.atomic_write_text"),
    ("forms6.cli", "main", "cli.main"),
)

#: metric name -> (span group, kind); kinds: calls, self, entries (calls
#: into a layer from outside it).  flow.* metrics are per start.
SPAN_METRICS = {
    "exterior.wedge.calls": ("exterior.wedge", "calls"),
    "exterior.wedge.self_ref": ("exterior.wedge", "self"),
    "exterior.interior.calls": ("exterior.interior", "calls"),
    "exterior.interior.self_ref": ("exterior.interior", "self"),
    "exterior.pullback.self_ref": ("exterior.pullback", "self"),
    "invariants.compute_K.calls": ("invariants.compute_K", "calls"),
    "invariants.compute_F.calls": ("invariants.compute_F", "calls"),
    "invariants.compute_K.self_ref": ("invariants.compute_K", "self"),
    "invariants.compute_F.self_ref": ("invariants.compute_F", "self"),
    "invariants.q_form.self_ref": ("invariants.q_form", "self"),
    "invariants.hat_map.calls": ("invariants.hat_map", "calls"),
    "invariants.hat_map.self_ref": ("invariants.hat_map", "self"),
    "linalg.calls": ("linalg", "entries"),
    "linalg.self_ref": ("linalg", "self"),
    "liealg.d.calls": ("liealg.d", "calls"),
    "liealg.d.self_ref": ("liealg.d", "self"),
    "liealg.nijenhuis.self_ref": ("liealg.nijenhuis", "self"),
    "flow.integrate.self_ref": ("flow.integrate", "self"),
    "flow.normalized_limit.self_ref": ("flow.normalized_limit", "self"),
    "hessian.leaf_data.self_ref": ("hessian.leaf_data", "self"),
    "hessian.fiber_verifications.self_ref": ("hessian.fiber_verifications", "self"),
    "hessian.scalar_curvature.self_ref": ("hessian.scalar_curvature", "self"),
    "io.atomic_write_text.self_ref": ("io.atomic_write_text", "self"),
    "cli.main.self_ref": ("cli.main", "self"),
}


class Tracer:
    def __init__(self):
        self.groups = ["item"]
        self.start = array("d")
        self.end = array("d")
        self.group = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.stack = []
        self.current_item = -1
        self.counts = {"flow.rhs_evals": 0, "flow.steps_accepted": 0,
                       "flow.steps_rejected": 0, "flow.starts": 0,
                       "io.bytes_written": 0}
        self._patches = []
        self._wrappers = {}

    # -- recording --------------------------------------------------------------

    def _group_id(self, group):
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def open(self, gid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.group.append(gid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        self.end[idx] = time.perf_counter()

    def _spanning(self, fn, group, after=None):
        gid = self._group_id(group)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(gid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after_integrate(self, args, traj):
        c = self.counts
        c["flow.starts"] += 1
        c["flow.steps_accepted"] += traj.n_accepted
        c["flow.steps_rejected"] += traj.n_rejected

    def _after_write(self, args, out):
        self.counts["io.bytes_written"] += len(args[1].encode())

    def _counting_rhs(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def rhs(*args, **kwargs):
            counts["flow.rhs_evals"] += 1
            return fn(*args, **kwargs)
        return rhs

    # -- installation -------------------------------------------------------------

    def _targets(self):
        linalg = sys.modules["forms6.linalg"]
        out = list(SPANNED)
        for name, obj in sorted(vars(linalg).items()):
            if callable(obj) and not name.startswith("_") \
                    and getattr(obj, "__module__", "") == "forms6.linalg":
                out.append(("forms6.linalg", name, "linalg"))
        return out

    def _make(self, modname, attr, group, orig):
        if (modname, attr) == ("forms6.flow", "integrate"):
            return self._spanning(orig, group, self._after_integrate)
        if (modname, attr) == ("forms6.io", "atomic_write_text"):
            return self._spanning(orig, group, self._after_write)
        return self._spanning(orig, group)

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "forms6" or n.startswith("forms6."))]
        for modname, attr, group in self._targets():
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._make(modname, attr, group, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._make(modname, attr, group, orig)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, name, orig))
                        setattr(m, name, wrapper)
        flow = sys.modules["forms6.flow"]
        orig = flow.ReducedFlow.__dict__["rhs"]
        self._patches.append((flow.ReducedFlow, "rhs", orig))
        flow.ReducedFlow.rhs = self._counting_rhs(orig)

    def uninstall(self):
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- analysis -----------------------------------------------------------------

    def self_ref(self, refs):
        """Each span's self time in units of its item's ref (refs[i], seconds)."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        item = np.frombuffer(self.item, dtype=np.int32)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return (dur - covered) / np.asarray(refs, dtype=float)[item]

    def layer_metrics(self, refs, n_items):
        """Per-layer metrics over the traced items; refs[i] is item i's ref (s)."""
        group = np.frombuffer(self.group, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        self_ref = self.self_ref(refs)
        gid = {g: i for i, g in enumerate(self.groups)}
        starts = self.counts["flow.starts"]
        out = {}
        for metric, (grp, kind) in SPAN_METRICS.items():
            per = starts if metric.startswith("flow.") else n_items
            sel = group == gid.get(grp, -1)
            if kind == "self":
                total = float(self_ref[sel].sum())
            elif kind == "calls":
                total = int(sel.sum())
            else:
                parent_group = np.where(parent >= 0, group[np.maximum(parent, 0)], -1)
                total = int((sel & (parent_group != gid.get(grp, -1))).sum())
            out[metric] = total / per if per else 0.0
        c = self.counts
        attempts = c["flow.steps_accepted"] + c["flow.steps_rejected"]
        out["flow.rhs_evals"] = c["flow.rhs_evals"] / starts if starts else 0.0
        out["flow.steps_accepted"] = c["flow.steps_accepted"] / starts if starts else 0.0
        out["flow.steps_rejected"] = c["flow.steps_rejected"] / starts if starts else 0.0
        out["flow.accept_ratio"] = c["flow.steps_accepted"] / attempts if attempts else 0.0
        out["io.bytes_written"] = c["io.bytes_written"] / n_items if n_items else 0.0
        return out

    def breakdown(self, refs, n_items):
        """Self ref per item for every span group, largest first."""
        group = np.frombuffer(self.group, dtype=np.int32)
        sums = np.bincount(group, weights=self.self_ref(refs), minlength=len(self.groups))
        rows = sorted(zip(self.groups, sums / max(n_items, 1)), key=lambda r: -r[1])
        return [(g, float(v)) for g, v in rows]

    def write(self, path):
        np.savez_compressed(
            path, start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            group=np.frombuffer(self.group, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            groups=np.array(json.dumps(self.groups)))
