"""Outside-in tracing of one solve through the program's public boundaries.

While installed, the tracer records a span around

* the problem's ``value`` / ``fg`` / ``grad`` (through a proxy object),
* ``prepare_state`` and ``iterate_once`` as bound in ``stiefelbb.solver``,
* ``direction`` and ``curve_and_slope`` of the engine in ``SolverState``
  and ``eval`` / ``trace_jinv`` of every curve that engine returns,
* ``abb``, ``safeguard`` and ``update_reference`` as bound in
  ``stiefelbb.solver``,
* ``solve`` as bound in ``stiefelbb.auglag`` (one span per outer step).

No file of the program is edited: the tracer swaps module attributes while
installed and restores them afterwards. Spans stay in memory as
``[name, parent, start, end, solve]`` lists until the run writes them out.
"""

import time
from contextlib import contextmanager

import numpy as np

ROOT = "solve"

# layer -> span names whose summed duration is the layer's busy time
LAYERS = {
    "problems": ("problems.value", "problems.grad"),
    "manifold": ("manifold.direction",),
    "retractions": ("retractions.build", "retractions.eval", "retractions.trace_jinv"),
    "stepsize": ("stepsize.abb", "stepsize.safeguard", "stepsize.update_reference"),
}


class Tracer:
    def __init__(self, flops_of):
        self.spans = []
        self.failed_evals = []  # solve index of each eval that raised LinAlgError
        self.call_flops = {}  # solve index -> computed flops of one objective call
        self._stack = []
        self._solve = -1
        self._flops_of = flops_of

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, self._solve]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return timed

    def root(self, index, call):
        """Run ``call`` as solve ``index`` under a root span."""
        self._solve = index
        return self.wrap(ROOT, call)()

    @contextmanager
    def installed(self):
        import stiefelbb.auglag as auglag_mod
        import stiefelbb.solver as solver_mod

        prepare = solver_mod.prepare_state
        tracer = self

        def traced_prepare(problem, x0=None, cfg=None, gc=None):
            state = prepare(_ProblemProxy(problem, tracer), x0, cfg, gc)
            state.engine = _EngineProxy(state.engine, tracer)
            return state

        patches = [
            (solver_mod, "prepare_state", self.wrap("solver.prepare", traced_prepare)),
            (solver_mod, "iterate_once", self.wrap("solver.iterate", solver_mod.iterate_once)),
            (auglag_mod, "solve", self.wrap("auglag.sub_solve", auglag_mod.solve)),
        ]
        for name in ("abb", "safeguard", "update_reference"):
            patches.append((solver_mod, name, self.wrap("stepsize." + name, getattr(solver_mod, name))))
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)


class _ProblemProxy:
    """The problem with timed objective calls; other attributes pass through."""

    def __init__(self, problem, tracer):
        self._problem = problem
        tracer.call_flops[tracer._solve] = tracer._flops_of(problem)
        self.value = tracer.wrap("problems.value", problem.value)
        self.fg = tracer.wrap("problems.grad", problem.fg)
        if hasattr(problem, "grad"):
            self.grad = tracer.wrap("problems.grad", problem.grad)

    def __getattr__(self, name):
        return getattr(self._problem, name)


class _EngineProxy:
    """The solver engine with a timed direction and traced curves."""

    def __init__(self, engine, tracer):
        self._engine = engine
        self.direction = tracer.wrap("manifold.direction", engine.direction)
        build = tracer.wrap("retractions.build", engine.curve_and_slope)

        def curve_and_slope(*args):
            curve, slope = build(*args)
            return _CurveProxy(curve, tracer), slope

        self.curve_and_slope = curve_and_slope

    def __getattr__(self, name):
        return getattr(self._engine, name)


class _CurveProxy:
    """A curve with timed evaluations; a LinAlgError is counted and re-raised."""

    def __init__(self, curve, tracer):
        self._curve = curve
        timed = tracer.wrap("retractions.eval", curve.eval)

        def eval_(tau):
            try:
                return timed(tau)
            except np.linalg.LinAlgError:
                tracer.failed_evals.append(tracer._solve)
                raise

        self.eval = eval_
        if hasattr(curve, "trace_jinv"):
            self.trace_jinv = tracer.wrap("retractions.trace_jinv", curve.trace_jinv)

    def __getattr__(self, name):
        return getattr(self._curve, name)


def per_solve(tracer):
    """Per-solve span totals as {solve: {name: [calls, seconds]}}.

    Besides one entry per span name there are ``<name>.self`` entries for
    ``ROOT``, ``solver.iterate`` and ``auglag.sub_solve`` (duration minus
    their direct children), ``retractions.eval.failed`` and
    ``problems.flops`` (objective calls and their computed flops).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for sid, (name, parent, t0, t1, solve) in enumerate(spans):
        acc = out.setdefault(solve, {})
        dur = t1 - t0
        entry = acc.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += dur
        if name in ("solver.iterate", ROOT, "auglag.sub_solve"):
            own = acc.setdefault(name + ".self", [0, 0.0])
            own[0] += 1
            own[1] += dur - child[sid]
    for solve in tracer.failed_evals:
        out[solve].setdefault("retractions.eval.failed", [0, 0.0])[0] += 1
    for solve, acc in out.items():
        calls = sum(acc.get(n, [0])[0] for n in LAYERS["problems"])
        acc["problems.flops"] = [calls, calls * tracer.call_flops.get(solve, 0.0)]
    return out
