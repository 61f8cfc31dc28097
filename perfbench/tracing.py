"""Outside-in tracing of gpseries for the benchmark's traced run.

``traced(tracer)`` wraps the public functions listed in ``TARGETS`` and
rebinds every module-level alias of each one inside the gpseries package
(``mul`` is imported by name into ``residues``, ``calculus``,
``identities`` and ``cli``, and re-exported by the package), then restores
the originals on exit.  The untraced run never enters it, so it runs the
library exactly as shipped.

Each wrapped call records an in-memory span ``[name, start, end, parent,
attrs]``; ``attrs`` holds counts computed at the wrapper from the arguments
and the result (pairs, terms kept, bounds), never from inside the library.
``layer_metrics`` turns the spans into the per-layer metrics named in
``LAYER_METRICS``.  A span's self time is its duration minus the durations
of its direct children; calls are synchronous and single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

CASE_SPAN = "bench.case"


class Tracer:
    """In-memory spans, appended in start order (a parent precedes its
    children)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def start(self, name):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(sid)
        return sid

    def stop(self, sid, attrs=None):
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[4] = attrs
        popped = self._open.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} is open")


# -- what to wrap and what to count ------------------------------------------

def _field_tag(f):
    return "q" if f.field.characteristic == 0 else "fp"


def _mul_name(f, g):
    exact = f.box is None and g.box is None
    return "series.mul_exact" if exact else "series.mul_trunc"


def _mul_count(result, f, g):
    return {"pairs": len(f.coeffs) * len(g.coeffs),
            "kept": len(result.coeffs), "field": _field_tag(f)}


def _dyson_name(inst, method="direct"):
    return f"identities.dyson_verify.{method}"


def _residue_count(result, fr):
    return {"read": len(result.coeffs), "numer": len(fr.numerator.coeff.coeffs)}


# (module, function) -> (span name or namer(*args), counter(result, *args))
TARGETS = {
    ("series", "mul"): (_mul_name, _mul_count),
    ("series", "invert"): ("series.invert", None),
    ("series", "power"): ("series.power", None),
    ("series", "substitute"): (
        "series.substitute", lambda r, *a, **k: {"terms_out": len(r.coeffs)}),
    ("series", "factorize"): ("series.factorize", None),
    ("series", "add"): ("series.add", None),
    ("exponents", "certify_cone_below"): (
        "exponents.certify_cone_below", lambda r, *a, **k: {"failed": not r}),
    ("exponents", "power_exhaustion_bound"): (
        "exponents.power_exhaustion_bound", lambda r, *a, **k: {"i_max": r}),
    ("calculus", "dlog_wedge"): ("calculus.dlog_wedge", None),
    ("calculus", "jacobian"): ("calculus.jacobian", None),
    ("residues", "jacobi_coefficient"): ("residues.jacobi_coefficient", None),
    ("residues", "residue"): ("residues.residue", _residue_count),
    ("residues", "represent"): ("residues.represent", None),
    ("residues", "check_parameters"): ("residues.check_parameters", None),
    ("identities", "dyson_verify"): (_dyson_name, None),
    ("cli", "parse"): ("cli.parse", None),
    ("cli", "evaluate"): ("cli.evaluate", None),
    ("cli", "format_series"): ("cli.format", None),
    ("cli", "run"): ("cli.run", None),
}


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        sid = tracer.start(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.stop(sid, {"raised": True})
            raise
        tracer.stop(sid, counter(result, *args, **kwargs) if counter else None)
        return result
    return traced_call


def _package_modules():
    return [m for key, m in sys.modules.items()
            if key == "gpseries" or key.startswith("gpseries.")]


@contextlib.contextmanager
def traced(tracer):
    """Wrap every target and all of its module-level aliases in gpseries;
    restore the originals on exit, also when the body raises."""
    modules = _package_modules()
    patched = []
    try:
        for (modname, attr), (name, counter) in TARGETS.items():
            original = getattr(sys.modules[f"gpseries.{modname}"], attr)
            wrapper = _wrap(tracer, original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


# -- per-layer metrics --------------------------------------------------------

LAYER_METRICS = (
    ("series.mul_exact.calls", "count"),
    ("series.mul_exact.self_s", "s"),
    ("series.mul_exact.pairs", "count"),
    ("series.mul_trunc.calls", "count"),
    ("series.mul_trunc.self_s", "s"),
    ("series.mul_trunc.pairs", "count"),
    ("series.mul_trunc.keep_ratio", "ratio"),
    ("series.invert.calls", "count"),
    ("series.invert.self_s", "s"),
    ("series.power.calls", "count"),
    ("series.power.self_s", "s"),
    ("series.substitute.calls", "count"),
    ("series.substitute.self_s", "s"),
    ("series.substitute.terms_out", "count"),
    ("series.factorize.calls", "count"),
    ("series.factorize.self_s", "s"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("exponents.certify_cone_below.calls", "count"),
    ("exponents.certify_cone_below.self_s", "s"),
    ("exponents.certify_cone_below.fail_ratio", "ratio"),
    ("exponents.power_exhaustion_bound.calls", "count"),
    ("exponents.power_exhaustion_bound.self_s", "s"),
    ("exponents.power_exhaustion_bound.i_max_sum", "count"),
    ("fields.q.ns_per_pair", "ns"),
    ("fields.fp.ns_per_pair", "ns"),
    ("calculus.dlog_wedge.calls", "count"),
    ("calculus.dlog_wedge.self_s", "s"),
    ("calculus.jacobian.calls", "count"),
    ("calculus.jacobian.self_s", "s"),
    ("residues.jacobi_coefficient.calls", "count"),
    ("residues.jacobi_coefficient.self_s", "s"),
    ("residues.jacobi_coefficient.attempts_per_call", "ratio"),
    ("residues.residue.calls", "count"),
    ("residues.residue.read_ratio", "ratio"),
    ("residues.represent.calls", "count"),
    ("residues.represent.self_s", "s"),
    ("residues.check_parameters.calls", "count"),
    ("residues.check_parameters.self_s", "s"),
    ("identities.dyson_verify.direct.calls", "count"),
    ("identities.dyson_verify.direct.self_s", "s"),
    ("identities.dyson_verify.wilson.calls", "count"),
    ("identities.dyson_verify.wilson.self_s", "s"),
    ("identities.dyson_verify.egorychev.calls", "count"),
    ("identities.dyson_verify.egorychev.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.evaluate.self_s", "s"),
    ("cli.format.self_s", "s"),
    ("cli.run.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def self_times(spans):
    """Self time of each span: duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ratio(num, den):
    """num / den, or 0.0 where the layer did no work."""
    return num / den if den else 0.0


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer metrics as {name: (value, unit)}, in ``LAYER_METRICS``
    order; ratios whose base is zero (the layer did not run) read 0."""
    calls = {}
    self_s = {}
    sums = {}

    def bump(key, by):
        sums[key] = sums.get(key, 0) + by

    jacobi_of = []  # id of the innermost enclosing jacobi_coefficient span
    for sid, ((name, _, _, parent, attrs), own) in enumerate(
            zip(spans, self_times(spans))):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        anc = jacobi_of[parent] if parent is not None else None
        jacobi_of.append(sid if name == "residues.jacobi_coefficient" else anc)
        if name == "calculus.dlog_wedge" and anc is not None:
            bump("attempts", 1)
        if not attrs or attrs.get("raised"):
            continue
        for key, value in attrs.items():
            if key != "field":
                bump(f"{name}.{key}", value)
        if name == "series.mul_exact":
            bump(f"exact_pairs.{attrs['field']}", attrs["pairs"])
            bump(f"exact_self_s.{attrs['field']}", own)

    values = {
        "fields.q.ns_per_pair": 1e9 * _ratio(sums.get("exact_self_s.q", 0.0),
                                             sums.get("exact_pairs.q", 0)),
        "fields.fp.ns_per_pair": 1e9 * _ratio(sums.get("exact_self_s.fp", 0.0),
                                              sums.get("exact_pairs.fp", 0)),
        "series.mul_trunc.keep_ratio": _ratio(
            sums.get("series.mul_trunc.kept", 0),
            sums.get("series.mul_trunc.pairs", 0)),
        "exponents.certify_cone_below.fail_ratio": _ratio(
            sums.get("exponents.certify_cone_below.failed", 0),
            calls.get("exponents.certify_cone_below", 0)),
        "exponents.power_exhaustion_bound.i_max_sum": sums.get(
            "exponents.power_exhaustion_bound.i_max", 0),
        "residues.jacobi_coefficient.attempts_per_call": _ratio(
            sums.get("attempts", 0), calls.get("residues.jacobi_coefficient", 0)),
        "residues.residue.read_ratio": _ratio(
            sums.get("residues.residue.read", 0),
            sums.get("residues.residue.numer", 0)),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    out = {}
    for name, unit in LAYER_METRICS:
        if name not in values:  # calls, self_s, or a summed count attribute
            span, quantity = name.rsplit(".", 1)
            values[name] = calls.get(span, 0) if quantity == "calls" \
                else self_s.get(span, 0.0) if quantity == "self_s" \
                else sums.get(name, 0)
        out[name] = (values[name], unit)
    return out
