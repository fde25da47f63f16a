"""Span tracing of ddsls layers, installed from outside the package.

The tracer wraps public functions and methods at every name the package
looks them up by: a function imported with ``from .solver import
gamma_search`` lives on in ``ddsls.synth`` as well, so each module
attribute that is the original function object is replaced and later
restored.  Spans are kept in memory.  A wrapper records nothing while no op
(or labelled set-up) is open, so output checks and quality evaluation stay
untraced.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at op level
    op: object  # op index, or a label such as "setup"
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _report(span: Span, result) -> None:
    span.info["iterations"] = int(result.iterations)
    span.info["status"] = str(result.status)


def _search(span: Span, result) -> None:
    span.info["status"] = str(result.status)


def _synthesis(span: Span, result) -> None:
    # Quality metrics of results that an op does not return (compare) are
    # computed from this reference once the op has ended.
    span.info["result"] = result


# (span name, module, attribute path, result extractor)
TARGETS = [
    ("solver.blockdiag.build", "ddsls.solver", "BlockDiagonalProblem.__init__", None),
    ("solver.blockdiag.solve", "ddsls.solver", "BlockDiagonalProblem.solve", _report),
    ("solver.full.build", "ddsls.solver", "CoupledCausalProblem.__init__", None),
    ("solver.full.solve", "ddsls.solver", "CoupledCausalProblem.solve", _report),
    ("solver.gamma_search", "ddsls.solver", "gamma_search", _search),
    ("synth.synth_robust", "ddsls.synth", "synth_robust", _synthesis),
    ("synth.stacked_cost_map", "ddsls.synth", "stacked_cost_map", None),
    ("synth.assemble_responses", "ddsls.synth", "assemble_responses", None),
    ("analysis.bootstrap_epsilon", "ddsls.analysis", "bootstrap_epsilon", None),
    ("lti.generate_ensemble", "ddsls.lti", "generate_ensemble", None),
    ("lti.simulate", "ddsls.lti", "simulate", None),
    ("hankel.build_hankel", "ddsls.hankel", "build_hankel", None),
    ("lqg.dare", "ddsls.lqg", "dare", None),
    ("lqg.optimal_responses", "ddsls.lqg", "optimal_responses", None),
    ("lqg.recover_gstar", "ddsls.lqg", "recover_gstar", None),
    ("sls.recover_controller", "ddsls.sls", "recover_controller", None),
    ("sls.responses_from_controller", "ddsls.sls", "responses_from_controller", None),
    ("sls.sls_cost", "ddsls.sls", "sls_cost", None),
    ("experiments.mpc_run", "ddsls.experiments", "mpc_run", None),
]


class Tracer:
    """Records one span per call of a wrapped function while an op is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if extract is not None:
                extract(span, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [m for n, m in sorted(sys.modules.items()) if n == "ddsls" or n.startswith("ddsls.")]
        for name, module_name, attr, extract in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, extract))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, extract)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential (one caller, no fan-out), so direct children never
    overlap and their union is their sum.
    """
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def outermost(spans: list[Span]) -> list[bool]:
    """True for spans with no enclosing span of the same name (no double count)."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def _share(items, pred) -> float:
    return sum(1 for x in items if pred(x)) / len(items) if items else 0.0


# Per-op call counts and busy/self seconds of layers outside the solver.
PLAIN = [
    ("synth.synth_robust", ("calls", "busy_s", "self_s")),
    ("synth.stacked_cost_map", ("busy_s",)),
    ("synth.assemble_responses", ("busy_s",)),
    ("analysis.bootstrap_epsilon", ("calls", "busy_s")),
    ("lti.generate_ensemble", ("calls", "busy_s")),
    ("lti.simulate", ("busy_s",)),
    ("hankel.build_hankel", ("calls", "busy_s")),
    ("lqg.optimal_responses", ("busy_s",)),
    ("lqg.recover_gstar", ("busy_s",)),
    ("sls.recover_controller", ("busy_s",)),
    ("sls.responses_from_controller", ("busy_s",)),
    ("sls.sls_cost", ("busy_s",)),
    ("experiments.mpc_run", ("calls", "busy_s")),
]
# Metrics that count work rather than time it; they must repeat exactly.
COUNT_SUFFIXES = ("calls", "solves", "iterations", "share", "evals_per_search", "infeasible", "not_pe")


def layer_metrics(spans: list[Span], timed: set, counted: set) -> dict:
    """Per-op layer metrics.

    Times (busy, self, build, seconds per iteration) are averaged over the
    ops in ``timed``; counts and shares over the ops in ``counted``, a fixed
    prefix of the run, so that they repeat exactly for one seed.  Spans
    labelled ``"setup"`` give the set-up cost of the Riccati oracle.
    """
    n_t, n_c = max(len(timed), 1), max(len(counted), 1)
    selfs, outer = self_seconds(spans), outermost(spans)
    busy, self_s, setup = {}, {}, {}
    calls: dict = {}
    raised: dict = {}
    children: dict = {}
    for i, s in enumerate(spans):
        if s.op in timed:
            if outer[i]:
                busy[s.name] = busy.get(s.name, 0.0) + s.seconds
            self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        elif s.op == "setup" and outer[i]:
            setup[s.name] = setup.get(s.name, 0.0) + s.seconds
        if s.op in counted:
            calls[s.name] = calls.get(s.name, 0) + 1
            if "raised" in s.info:
                key = (s.name, s.info["raised"])
                raised[key] = raised.get(key, 0) + 1
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(i)

    m: dict = {}
    searches = [i for i, s in enumerate(spans) if s.name == "solver.gamma_search" and s.op in counted]
    search_solves = [[c for c in children.get(g, []) if spans[c].name.endswith(".solve")] for g in searches]
    for kind in ("blockdiag", "full"):
        p = f"solver.{kind}"
        solves = [s for s in spans if s.name == p + ".solve" and s.op in counted and "status" in s.info]
        finals = [spans[kids[-1]] for kids in search_solves if kids and spans[kids[-1]].name == p + ".solve"]
        iters_timed = sum(s.info.get("iterations", 0) for s in spans if s.name == p + ".solve" and s.op in timed)
        m[p + ".build_s"] = busy.get(p + ".build", 0.0) / n_t
        m[p + ".solves"] = len(solves) / n_c
        m[p + ".busy_s"] = busy.get(p + ".solve", 0.0) / n_t
        m[p + ".iterations"] = sum(s.info["iterations"] for s in solves) / n_c
        m[p + ".s_per_iter"] = busy.get(p + ".solve", 0.0) / iters_timed if iters_timed else 0.0
        m[p + ".maxiter_share"] = _share(solves, lambda s: s.info["status"] == "max-iter")
        m[p + ".final_maxiter_share"] = _share(finals, lambda s: s.info.get("status") == "max-iter")
        m[p + ".closed_form_share"] = _share(solves, lambda s: s.info["iterations"] == 0)
    gs = "solver.gamma_search"
    m[gs + ".calls"] = len(searches) / n_c
    m[gs + ".busy_s"] = busy.get(gs, 0.0) / n_t
    m[gs + ".self_s"] = self_s.get(gs, 0.0) / n_t
    m[gs + ".evals_per_search"] = sum(map(len, search_solves)) / len(searches) if searches else 0.0
    returned = [spans[g] for g in searches if "status" in spans[g].info]
    m[gs + ".optimal_share"] = _share(returned, lambda s: s.info["status"] == "optimal")
    m[gs + ".infeasible"] = raised.get((gs, "InfeasibleEpsilon"), 0) / n_c
    per_op = {"calls": (calls, n_c), "busy_s": (busy, n_t), "self_s": (self_s, n_t)}
    for name, kinds in PLAIN:
        for k in kinds:
            table, n = per_op[k]
            m[f"{name}.{k}"] = table.get(name, 0) / n
    for name in ("synth.synth_robust", "lqg.recover_gstar"):
        m[name + ".not_pe"] = raised.get((name, "NotPersistentlyExciting"), 0) / n_c
    m["lqg.dare.setup_s"] = setup.get("lqg.dare", 0.0)
    m["lqg.optimal_responses.setup_s"] = setup.get("lqg.optimal_responses", 0.0)
    return m


def count_metrics(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
