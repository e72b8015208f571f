"""Span recorder for the traced benchmark pass.

The recorder wraps public functions of flowlab from outside the package: it
replaces module attributes and class methods for the duration of one pass and
restores them afterwards, so nothing under ``src/`` knows about tracing.  Each
call of a wrapped function becomes a span (name, start, end, parent span,
request id) held in memory in compact arrays; counts are recorded at the same
boundaries.  Spans from forked ``parallel`` workers are shipped back to the
parent inside the chunk result and merged there.

A span's self time is its duration minus the part of it that its child spans
cover; children that overlap (chunks running in parallel workers) are merged
into one covered interval first.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# key under which a forked chunk returns its spans to the parent
_SHIP_KEY = "__perfbench_spans__"

# (module, function) pairs wrapped as plain spans; every module attribute
# bound to the same function object is replaced, so imported aliases
# (``from .systems import fd_directional``) are traced too
FUNCTIONS = [
    ("flowlab.scenarios", "builtin"),
    ("flowlab.scenarios", "oracle_convergence_study"),
    ("flowlab.expressions", "load_system"),
    ("flowlab.systems", "fd_directional"),
    ("flowlab.criteria", "check_growth"),
    ("flowlab.criteria", "eval_Hp"),
    ("flowlab.criteria", "direction_sample"),
    ("flowlab.criteria", "sample_states"),
    ("flowlab.estimators", "estimate_sup_derivative_moment"),
    ("flowlab.estimators", "estimate_stopped_moment"),
    ("flowlab.semigroup", "gradient_consistency_check"),
]

# (module, class, method) triples wrapped as spans
METHODS = [
    ("flowlab.flow", "BrownianDriver", "increments"),
    ("flowlab.flow", "Stepper", "step_x"),
    ("flowlab.flow", "Stepper", "step_pair"),
    ("flowlab.geometry", "EmbeddedModel", "tangent_project"),
    ("flowlab.geometry", "EmbeddedModel", "retract"),
]

THEOREMS = ("Cor5.2", "Thm5.3", "Thm6.2", "Thm7.1", "Thm8.1", "Cor8.3", "Diffeo")

_SPAN_LAYERS = [f"{m.split('.', 1)[1]}.{f}" for m, f in FUNCTIONS] + \
    [f"{m.split('.', 1)[1]}.{c}.{f}" for m, c, f in METHODS] + [
        "flow.Stepper.classify",
        "flow.write_trajectory_csv",
        "criteria.tangent_directions",
        "criteria.certify",
        "expressions.spec_coefficient",
        "parallel.run_chunks",
        "estimators.estimate_sup_derivative_moment.chunk",
        "estimators.estimate_stopped_moment.chunk",
        "semigroup.gradient_consistency_check.chunk",
    ]

#: every per-layer metric the traced run reports, in BENCHMARK.json order
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in _SPAN_LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("cli.run.calls", "count"), ("cli.run.self_s", "s"), ("cli.run.report_bytes", "B")]
    + [(f"criteria.theorem.{t}.{kind}", "s") for t in THEOREMS for kind in ("self_s", "total_s")]
    + [("flow.live_fraction", "ratio"),
       ("flow.write_trajectory_csv.bytes", "B"),
       ("criteria.tangent_directions.kept_fraction", "ratio"),
       ("parallel.run_chunks.chunks", "count"),
       ("parallel.run_chunks.workers", "count"),
       ("parallel.chunk_fill", "ratio"),
       ("setup.import_s", "s"),
       ("setup.build_s", "s"),
       ("trace.spans", "count"),
       ("trace.wall_s", "s"),
       ("trace.overhead_s", "s")]
)


class Recorder:
    """In-memory span store with a per-process call stack."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self.counts = defaultdict(float)
        self.request_id = -1
        self.owner = os.getpid()
        self._pid = self.owner
        self._next = self._pid << 32
        self._stack: list = []
        self._restore: list = []

    # -- spans --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str):
        if os.getpid() != self._pid:          # first span in a forked worker
            self._pid = os.getpid()
            self._next = self._pid << 32
        sid = self._next
        self._next += 1
        nid = self._name_id(name)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, nid))
        return (sid, nid, parent, time.perf_counter())

    def close(self, token) -> None:
        end = time.perf_counter()
        sid, nid, parent, start = token
        self._stack.pop()
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(self.request_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token)
        traced.__wrapped__ = fn
        return traced

    # -- forked workers -------------------------------------------------

    def _export(self, mark: int, counts_before: dict):
        cols = [a[mark:] for a in (self.sid, self.name, self.start, self.end,
                                   self.parent, self.request)]
        names = list(self.names)
        counts = {k: v - counts_before.get(k, 0.0) for k, v in self.counts.items()}
        return cols, names, counts

    def _merge(self, payload) -> None:
        (sid, name, start, end, parent, request), names, counts = payload
        for s, n, a, b, p, r in zip(sid, name, start, end, parent, request):
            self.sid.append(s)
            self.name.append(self._name_id(names[n]))
            self.start.append(a)
            self.end.append(b)
            self.parent.append(p)
            self.request.append(r)
        for k, v in counts.items():
            self.counts[k] += v

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for mod in [m for n, m in sys.modules.items() if n == "flowlab" or n.startswith("flowlab.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def _replace_method(self, cls, attr, new) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self) -> None:
        """Wrap the traced layers of the already imported flowlab package."""
        import flowlab.criteria as criteria
        import flowlab.expressions as expressions
        import flowlab.flow as flow
        import flowlab.parallel as parallel

        for modname, fname in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            self._replace_everywhere(orig, self.wrap(f"{modname.split('.', 1)[1]}.{fname}", orig))
        for modname, cname, mname in METHODS:
            cls = getattr(sys.modules[modname], cname)
            layer = f"{modname.split('.', 1)[1]}.{cname}.{mname}"
            self._replace_method(cls, mname, self.wrap(layer, cls.__dict__[mname]))
        rec = self

        classify = flow.Stepper.__dict__["classify"]
        traced_classify = self.wrap("flow.Stepper.classify", classify)

        def classify_counted(stepper, x):
            exploded, exit_ = traced_classify(stepper, x)
            rec.counts["flow.members_stepped"] += exploded.size
            rec.counts["flow.members_live"] += exploded.size - int(np.count_nonzero(exploded))
            return exploded, exit_
        self._replace_method(flow.Stepper, "classify", classify_counted)

        write_csv = self.wrap("flow.write_trajectory_csv", flow.write_trajectory_csv)

        def write_csv_counted(fh, results, include_v=False):
            before = fh.tell()
            write_csv(fh, results, include_v=include_v)
            rec.counts["flow.csv_bytes"] += fh.tell() - before
        self._replace_everywhere(flow.write_trajectory_csv, write_csv_counted)

        tangent_directions = self.wrap("criteria.tangent_directions", criteria.tangent_directions)

        def tangent_directions_counted(model, x, n):
            dirs = tangent_directions(model, x, n)
            rec.counts["criteria.directions_requested"] += n
            rec.counts["criteria.directions_kept"] += len(dirs)
            return dirs
        self._replace_everywhere(criteria.tangent_directions, tangent_directions_counted)

        certify = self.wrap("criteria.certify", criteria.certify)

        def certify_by_theorem(system, config=criteria.CertifyConfig()):
            config = dataclasses.replace(config, theorems=_TheoremSpans(rec, config.theorems))
            return certify(system, config)
        self._replace_everywhere(criteria.certify, certify_by_theorem)

        compile_expression = expressions.compile_expression

        def compile_traced(src, dim):
            return rec.wrap("expressions.spec_coefficient", compile_expression(src, dim))
        # only the spec loader's binding: observables compiled by the CLI are
        # not spec-file coefficients
        self._restore.append((expressions, "compile_expression", compile_expression))
        expressions.compile_expression = compile_traced

        run_chunks = parallel.run_chunks
        traced_run_chunks = self.wrap("parallel.run_chunks", run_chunks)

        def run_chunks_traced(n_paths, fn, workers=1, chunk=parallel.DEFAULT_CHUNK):
            return _run_chunks(rec, traced_run_chunks, n_paths, fn, workers, chunk)
        self._replace_everywhere(run_chunks, run_chunks_traced)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds, total seconds)."""
        n = len(self.sid)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        sid = np.frombuffer(self.sid, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        index = {s: i for i, s in enumerate(sid.tolist())}
        starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
        covered = [0.0] * n
        cur_parent, cur_end = None, -math.inf
        # children of one parent in start order; their union is the covered part
        for i in np.lexsort((start, parent)).tolist():
            pi = index.get(parents[i])
            if pi is None:                        # a root span
                continue
            if parents[i] != cur_parent:
                cur_parent, cur_end = parents[i], -math.inf
            a, b = max(starts[i], cur_end), ends[i]
            if b > a:
                covered[pi] += b - a
                cur_end = b
        total = end - start
        self_s = total - np.array(covered)
        out = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            out[label] = (int(np.count_nonzero(mask)), float(self_s[mask].sum()),
                          float(total[mask].sum()))
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), sid=np.frombuffer(self.sid, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 request=np.frombuffer(self.request, dtype=np.int32))


class _TheoremSpans:
    """Theorem list whose iteration opens one span per theorem: ``certify``
    handles theorem i between yielding it and asking for the next one."""

    def __init__(self, rec: Recorder, theorems):
        self.rec = rec
        self.theorems = list(theorems)

    def __iter__(self):
        for theorem in self.theorems:
            token = self.rec.open(f"criteria.theorem.{theorem}")
            try:
                yield theorem
            finally:
                self.rec.close(token)


def _run_chunks(rec: Recorder, traced_run_chunks, n_paths, fn, workers, chunk):
    n_chunks = -(-n_paths // chunk)
    used = min(workers, n_chunks) if workers > 1 and n_chunks > 1 else 1
    rec.counts["parallel.chunks"] += n_chunks
    rec.counts["parallel.paths"] += n_paths
    rec.counts["parallel.chunk_capacity"] += n_chunks * chunk
    rec.counts["parallel.workers"] = max(rec.counts["parallel.workers"], used)
    # chunk bodies (frame norms, per-step bookkeeping) belong to the estimator
    caller = rec.names[rec._stack[-1][1]] if rec._stack else "parallel"
    traced_fn = rec.wrap(f"{caller}.chunk", fn)

    def shipping_fn(lo, hi):
        if os.getpid() == rec.owner:
            return traced_fn(lo, hi)
        mark, before = len(rec.sid), dict(rec.counts)
        out = dict(traced_fn(lo, hi))
        box = np.empty(1, dtype=object)
        box[0] = rec._export(mark, before)
        out[_SHIP_KEY] = box
        return out

    out = traced_run_chunks(n_paths, shipping_fn, workers=workers, chunk=chunk)
    for payload in out.pop(_SHIP_KEY, ()):
        rec._merge(payload)
    return out
