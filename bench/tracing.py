"""Spans around the program's public functions, installed from outside it.

:class:`Tracer` replaces each traced function by a wrapper in every module
of the package that holds a reference to it (``cli.run_coupled`` as well as
``dynamics.run_coupled``), and each traced method on its class. Spans are
kept in memory, each with its parent span and the op that caused it, and
written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from incentive_dynamics import aggregative, analysis, cli, dynamics, games, routing

# span name -> (module, function). Wrapped wherever the package imported it.
FUNCTIONS = {
    "routing.beckmann_potential": (routing, "beckmann_potential"),
    "routing.wardrop_equilibrium": (routing, "wardrop_equilibrium"),
    "routing.system_optimum": (routing, "system_optimum"),
    "routing.optimal_edge_tolls": (routing, "optimal_edge_tolls"),
    "routing.run_toll_adaptation": (routing, "run_toll_adaptation"),
    "routing.nondegeneracy_check": (routing, "nondegeneracy_check"),
    "dynamics.run_coupled": (dynamics, "run_coupled"),
    "dynamics.strategy_target": (dynamics, "strategy_target"),
    "dynamics.externality": (dynamics, "externality"),
    "aggregative.nash_closed_form": (aggregative, "nash_closed_form"),
    "games.solve_equilibrium_atomic": (games, "solve_equilibrium_atomic"),
    "games.best_response_atomic": (games, "best_response_atomic"),
    "games.certify_nash_atomic": (games, "certify_nash_atomic"),
    "analysis.reproduce_counterexample": (analysis, "reproduce_counterexample"),
    "analysis.verify_fixed_point_optimality": (analysis, "verify_fixed_point_optimality"),
    "analysis.multistart_uniqueness_probe": (analysis, "multistart_uniqueness_probe"),
    "analysis.ode_probe_slow_dynamics": (analysis, "ode_probe_slow_dynamics"),
    "cli.run_experiment": (cli, "run_experiment"),
    "cli.run_analysis": (cli, "run_analysis"),
}
# (span name, class, method). Games built after install bind the wrappers.
METHODS = (
    ("routing.latency", routing.RoutingNetwork, "latency"),
    ("routing.latency_deriv", routing.RoutingNetwork, "latency_deriv"),
    ("routing.network_init", routing.RoutingNetwork, "__post_init__"),
    ("dynamics.record", dynamics.TrajectoryRecord, "append"),
    ("aggregative.social", aggregative.QuadraticAggregativeSpec, "social"),
    ("aggregative.social_grad", aggregative.QuadraticAggregativeSpec, "social_grad"),
    ("aggregative.loss_grad", aggregative.QuadraticAggregativeSpec, "loss_grad"),
    ("aggregative.spec_init", aggregative.QuadraticAggregativeSpec, "__post_init__"),
    ("cli.output", dynamics.TrajectoryRecord, "to_csv"),
    ("cli.output", dynamics.TrajectoryRecord, "to_json_summary"),
)


class _JsonWithTracedDump:
    """Stands in for the json module inside cli, so analysis dumps are spans."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.iterations: dict = {}  # span index -> outer iterations of a coupled run
        self.current_op = -1
        self.enabled = True  # off while the benchmark checks a result
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, iterations=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.failed.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if iterations is not None:
                self.iterations[idx] = iterations(out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "incentive_dynamics" or n.startswith("incentive_dynamics.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            hook = (lambda rec: int(rec.iterations)) if name == "dynamics.run_coupled" else None
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        self._set(cli, "json", _JsonWithTracedDump(self._wrap("cli.output", json.dump)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __len__(self):
        return len(self.start)

    def summarize(self, first: int, last: int) -> dict:
        """Per span name over spans [first, last): calls, fails, self_s, and the
        total duration of top-level spans."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last]
        dur = np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last]
        failed = np.frombuffer(self.failed, dtype=np.int8)[first:last]
        # one thread, so a span's children run one after another inside it
        child = np.zeros(last - first)
        nested = parent >= first
        np.add.at(child, parent[nested] - first, dur[nested])
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            m = names == nid
            out[name] = {"calls": int(m.sum()), "fails": int(failed[m].sum()),
                         "self_s": float(self_t[m].sum()), "total_s": float(dur[m].sum())}
        iters = sum(v for k, v in self.iterations.items() if first <= k < last)
        out["dynamics.run_coupled"]["iterations"] = iters
        return {"spans": out, "top_level_s": float(dur[~nested].sum())}

    def write(self, path: Path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), failed=np.frombuffer(self.failed, dtype=np.int8))
