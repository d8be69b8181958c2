"""In-memory span tracing for the benchmark's traced run.

The package binds names with ``from .x import y``, so a hook must replace
the attribute the *calling* module looks up (``alignment.minimize_box``,
not ``solver.minimize_box``). Every hook is declared in ``HOOKS`` with the
workloads that must reach it; ``Tracer.check_hooks`` turns a silent miss
into a failed self-check instead of a layer that reads as free.

Spans are ``(name, start, end, parent, op)`` tuples kept in a list and
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict

WORKLOADS = ("traj10", "ingest60", "retarget4x200")
_ALL = set(WORKLOADS)
_PIPELINE = {"traj10", "ingest60"}
_RETARGET = {"traj10", "retarget4x200"}
_ALIGN = {"traj10"}

# (consumer module, attribute, span name, kind, workloads that must call it);
# kind picks the extra counts the hook records besides its span
HOOKS = (
    ("cli", "main", "cli.main", "span", _PIPELINE),
    ("cli", "run_pipeline", "pipeline.run_pipeline", "span", _PIPELINE),
    ("pipeline", "parse_urdf", "robot_model.parse_urdf", "span", _PIPELINE),
    ("robot_model", "parse_urdf", "robot_model.parse_urdf", "span", {"retarget4x200"}),
    ("dataio", "load_config", "dataio.load_config", "span", _PIPELINE),
    ("dataio", "read_hand_trajectory", "dataio.read_hand_trajectory", "read", _ALL),
    ("dataio", "read_intrinsics", "dataio.read_intrinsics", "read", _PIPELINE),
    ("dataio", "read_ply", "dataio.read_ply", "read", _PIPELINE),
    ("dataio", "read_pfm_depth", "dataio.read_pfm_depth", "read", _PIPELINE),
    ("dataio", "read_pgm_mask", "dataio.read_pgm_mask", "read", _PIPELINE),
    ("dataio", "write_robot_trajectory", "dataio.write_robot_trajectory", "span", _RETARGET),
    ("pipeline", "calibrate_depth_sequence", "alignment.calibrate_depth_sequence", "span",
     _PIPELINE),
    ("alignment", "weighted_umeyama", "geometry.weighted_umeyama", "span", _PIPELINE),
    ("retarget", "weighted_umeyama", "geometry.weighted_umeyama", "span", _RETARGET),
    ("alignment", "backproject_depth", "geometry.backproject_depth", "span", _PIPELINE),
    ("alignment", "splat_depth", "geometry.splat_depth", "span", _PIPELINE),
    ("pipeline", "estimate_normals", "pointcloud.estimate_normals", "span", _ALIGN),
    ("alignment", "build_index", "pointcloud.build_index", "span", _ALIGN),
    ("pipeline", "align_trajectory", "alignment.align_trajectory", "span", _ALIGN),
    ("alignment", "align_hand_frame", "alignment.align_hand_frame", "span", _ALIGN),
    ("alignment", "alignment_problem", "alignment.alignment_problem", "span", _ALIGN),
    ("alignment", "smooth_depth_residuals", "alignment.smooth_depth_residuals", "span", _ALIGN),
    ("alignment", "minimize_box", "solver.align", "solver", _ALIGN),
    ("retarget", "minimize_box", "solver.retarget", "solver", _RETARGET),
    ("pipeline", "compute_hand_scale", "hand_model.compute_hand_scale", "span", _ALIGN),
    ("hand_model", "compute_hand_scale", "hand_model.compute_hand_scale", "span",
     {"retarget4x200"}),
    ("hand_model", "link_origins", "robot_model.link_origins", "fk", _RETARGET),
    ("retarget", "link_origins", "robot_model.link_origins", "fk", _RETARGET),
    ("retarget", "link_origins_batch", "robot_model.link_origins_batch", "fk", _RETARGET),
    ("pipeline", "retarget_trajectory", "retarget.retarget_trajectory", "span", _ALIGN),
    ("retarget", "retarget_trajectory", "retarget.retarget_trajectory", "span",
     {"retarget4x200"}),
    ("retarget", "retarget_frame", "retarget.retarget_frame", "span", _RETARGET),
    ("pipeline", "refine_contact", "retarget.refine_contact", "refine", _ALIGN),
    ("retarget", "refine_contact", "retarget.refine_contact", "refine", {"retarget4x200"}),
    ("pipeline", "assemble_grasp_plan", "retarget.assemble_grasp_plan", "span", _ALIGN),
    ("retarget", "assemble_grasp_plan", "retarget.assemble_grasp_plan", "span",
     {"retarget4x200"}),
)

# layers a workload must never reach: the prediction for a change to them
# is "no change" on that workload
BYPASSED = {
    "ingest60": ("alignment.smooth_depth_residuals", "alignment.alignment_problem",
                 "pointcloud.build_index", "solver.align", "solver.retarget",
                 "robot_model.link_origins", "robot_model.link_origins_batch"),
    "retarget4x200": ("alignment.smooth_depth_residuals", "solver.align",
                      "geometry.splat_depth", "dataio.read_pgm_mask"),
    "traj10": (),
}


class Tracer:
    """Collects spans and counts while its hooks are installed.

    ``op`` names the operation the following spans and counts belong to;
    counts are kept per operation so repeats can be compared exactly.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)     # (op, key) -> value
        self.hits = defaultdict(int)         # "module.attr" -> calls
        self.op = None
        self._installed = []

    def count(self, key, value=1):
        self.counts[(self.op, key)] += value

    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op)

    def _hook(self, site, name, kind, fn):
        tracer = self

        if kind == "solver":
            # hand the solver a copy of the problem whose callables are
            # traced, so evaluations are counted where they happen
            def hook(problem, *args, **kwargs):
                tracer.hits[site] += 1
                traced = dataclasses.replace(
                    problem,
                    objective=tracer._hook(site + ".objective", name + ".objective",
                                           "span", problem.objective),
                    gradient=(None if problem.gradient is None else tracer._hook(
                        site + ".gradient", name + ".gradient", "span", problem.gradient)),
                )
                report = tracer._call(name, fn, (traced,) + args, kwargs)
                tracer.count(name + ".iterations", report.iterations)
                tracer.count(name + ".converged", int(bool(report.converged)))
                return report
        elif kind == "fk":
            def hook(model, q, *args, **kwargs):
                tracer.hits[site] += 1
                tracer.count("robot_model.fk_rows", q.shape[0] if q.ndim == 2 else 1)
                return tracer._call(name, fn, (model, q) + args, kwargs)
        elif kind == "read":
            def hook(path, *args, **kwargs):
                tracer.hits[site] += 1
                tracer.count("dataio.read_bytes", os.path.getsize(path))
                return tracer._call(name, fn, (path,) + args, kwargs)
        elif kind == "refine":
            def hook(*args, **kwargs):
                tracer.hits[site] += 1
                q, wrist, report = tracer._call(name, fn, args, kwargs)
                contacts = args[4]
                tracer.count("retarget.refine_rounds", report.rounds)
                # the loop only stops short of its alternations on a rollback
                tracer.count("retarget.refine_rollbacks",
                             int(report.rounds < contacts.alternations))
                return q, wrist, report
        else:
            def hook(*args, **kwargs):
                tracer.hits[site] += 1
                return tracer._call(name, fn, args, kwargs)

        return functools.wraps(fn)(hook)

    def install(self):
        for mod_name, attr, name, kind, _ in HOOKS:
            module = self.modules[mod_name]
            fn = getattr(module, attr)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._hook(f"{mod_name}.{attr}", name, kind, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def span_table(self, ops):
        """name -> [calls, inclusive seconds, self seconds] over the spans
        of the given operations. Self time is a span's duration minus the
        time its direct children cover."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op in ops:
                row = table[name]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t1 - t0 - child_time[sid]
        return dict(table)

    def check_hooks(self, workload):
        """Problems with the hooks: a hook the workload must reach that saw
        no call, or a bypassed layer that saw one."""
        problems = []
        for mod_name, attr, name, _, expected in HOOKS:
            site = f"{mod_name}.{attr}"
            if workload in expected and self.hits[site] == 0:
                problems.append(f"hook {site} ({name}) was never called")
        called = {span[0] for span in self.spans}
        for name in BYPASSED[workload]:
            if name in called:
                problems.append(f"bypassed layer {name} was called")
        return problems

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
