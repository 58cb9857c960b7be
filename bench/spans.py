"""Outside-in tracing of supopt's layers.

`Tracer.installed()` replaces public supopt functions with timing
wrappers for the duration of a `with` block and restores them after.
Each wrapper is installed wherever the original is looked up: in the
defining module and in every supopt module that bound the same function
object by name at import. `SparseOperator` methods are wrapped on the
class. Spans are aggregated in memory per name (calls, self and total
seconds); a span nested in a span of the same name counts once.
"""

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass

from supopt import superior  # the package import loads every submodule

# span name -> (supopt module, attribute) pairs it wraps; "Class.method"
# names a method wrapped on the class
SPANS = {
    "tomo.build_system": [("tomo", "build_parallel_system")],
    "tomo.phantom": [("tomo", "shepp_logan")],
    "opslin.spmv": [("opslin", "SparseOperator.matvec"),
                    ("opslin", "SparseOperator.rmatvec")],
    "opslin.spmv_diag": [("opslin", "SparseOperator.apply_nocount"),
                         ("opslin", "SparseOperator.applyT_nocount")],
    "opslin.gram_solve": [("opslin", "shifted_gram_solve")],
    "opslin.spectral_norm": [("opslin", "spectral_norm_sq")],
    "regtv.tv_value": [("regtv", "tv_smooth"), ("regtv", "tv_value")],
    "regtv.tv_grad": [("regtv", "tv_smooth_grad")],
    "regtv.prox": [("regtv", "prox_tv_with_info")],
    "basic.step": [("basic", "lw_step"), ("basic", "lw_proj_step"),
                   ("basic", "cg_step")],
    "basic.g_u": [("basic", "g_u"), ("basic", "g_u_mu")],
    "superior.s_grad": [("superior", "s_grad")],
    "superior.s_prox": [("superior", "s_prox"), ("superior", "s_prox_plus")],
    "fbs.pd_step": [("fbs", "pd_noinv_step"), ("fbs", "pd_basic_step")],
    "fbs.cert": [("fbs", "cert_constrained"), ("fbs", "cert_unconstrained")],
    "fbs.prox_ls": [("fbs", "prox_ls_exact")],
    "fbs.grad_h": [("fbs", "grad_h_u")],
    "fbs.dual_gap": [("fbs", "dual_gap")],
    "metrics.record": [("metrics", "make_record")],
    "harness.run_algorithm": [("harness", "run_algorithm")],
}
ROOT_SPAN = "harness.run_algorithm"


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    open: int = 0


def _record_prox(tracer, args, kwargs, result, elapsed):
    _, nit, nfev, warn = result
    tracer.counts["regtv.prox.iters"] += nit
    tracer.counts["regtv.prox.evals"] += nfev
    tracer.counts["regtv.prox.budget_hits"] += int(warn)


_S_GRAD_SIGNATURE = inspect.signature(superior.s_grad)


def _record_s_grad(tracer, args, kwargs, result, elapsed):
    bound = _S_GRAD_SIGNATURE.bind(*args, **kwargs)
    # every trial bumps the shared exponent ell; each of the kappa passes
    # commits exactly one trial
    tracer.counts["superior.s_grad.trials"] += result[1] \
        - bound.arguments["ell"]
    tracer.counts["superior.s_grad.commits"] += bound.arguments["kappa"]


def _record_cert(tracer, args, kwargs, result, elapsed):
    tracer.counts["fbs.cert.accepted"] += int(result.accepted)
    tracer.counts["fbs.cert.fallback"] += int(result.fallback)


def _record_gram_solve(tracer, args, kwargs, result, elapsed):
    tracer.first_s.setdefault("opslin.gram_solve", elapsed)


HOOKS = {
    "regtv.prox": _record_prox,
    "superior.s_grad": _record_s_grad,
    "fbs.cert": _record_cert,
    "opslin.gram_solve": _record_gram_solve,
}


class Tracer:
    """In-memory span aggregates for one traced solve."""

    def __init__(self):
        self.spans = {name: Span() for name in SPANS}
        self.counts = {"regtv.prox.iters": 0, "regtv.prox.evals": 0,
                       "regtv.prox.budget_hits": 0,
                       "superior.s_grad.trials": 0,
                       "superior.s_grad.commits": 0,
                       "fbs.cert.accepted": 0, "fbs.cert.fallback": 0}
        self.first_s = {}
        self._stack = []

    def wrap(self, name, fn):
        span = self.spans[name]
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = span.open == 0
            span.open += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.open -= 1
                span.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if outermost:
                    span.calls += 1
                    span.total_s += elapsed
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "supopt" or n.startswith("supopt.")]
        undo = []
        try:
            for name, targets in SPANS.items():
                for module_name, attr in targets:
                    module = sys.modules[f"supopt.{module_name}"]
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        original = vars(cls)[meth]
                        undo.append((cls, meth, original))
                        setattr(cls, meth, self.wrap(name, original))
                        continue
                    original = getattr(module, attr)
                    wrapper = self.wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, key, original))
                                setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def coverage(self):
        """Share of the root span's time covered by named child spans."""
        root = self.spans[ROOT_SPAN]
        if root.total_s <= 0:
            return 0.0
        return 1.0 - root.self_s / root.total_s
