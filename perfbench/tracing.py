"""Spans around the public functions of modal_qcrb's five layers.

The spans are installed from the benchmark's side: each named function is
replaced, in every ``modal_qcrb`` module namespace that binds it, by a
wrapper that records a span (name, start, end, parent span, call id)
while a workload call is active.  Methods are wrapped on their classes.
A name that a later refactor removes is skipped and reports 0 calls.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Public functions per layer.  ``cli.run_qfim``, ``cli.run_attainability``
# and ``cli.export_detection_modes`` stay unwrapped, so that report
# assembly and writing count as ``cli.main`` self time.
LAYERS = {
    "families": (
        "build_family",
        "gaussian_beam_family",
        "gaussian_pulse_family",
        "displaced_beam_family",
        "transverse_grid",
        "spectral_grid",
        "ParameterFamily.evaluate_mode",
        "ParameterFamily.evaluate",
        "ParameterFamily.analytic_derivative",
        "ParameterFamily.oracle_qfim",
    ),
    "modes": (
        "inner_product",
        "mode_norm",
        "normalized",
        "gram_schmidt",
        "derivative_mode",
        "detection_mode",
        "vacuum_overlap",
        "SampleGrid.uniform",
        "ModeBasis.validate",
    ),
    "states": (
        "make_state",
        "state_from_spec",
        "first_moments",
        "operator_matrix_elements",
        "number_moments",
        "quadrature_covariance",
        "quadratic_operator",
        "number_operator",
    ),
    "engine": (
        "build_generators",
        "generators_from_modes",
        "qfim_unitary",
        "number_information",
        "qfim_mode_split",
        "qfim_single_mode",
        "qfim_mean_field",
        "mean_field_fluctuation_check",
        "attainability",
        "attainability_single_mode",
        "commutator_from_overlaps",
        "crb_bounds",
        "readout_means",
        "gram_schmidt_readout",
        "detection_modes_for",
        "GeneratorCoefficients.total_weights",
    ),
    "cli": (
        "main",
        "RunConfig.from_args",
        "export_detection_modes_for",
    ),
}


def _computed_bytes(args, kwargs, result) -> float:
    # an inner product reads two sample arrays and forms one product array
    return float(args[0].samples.size * 3 * 16)


def _fock_dimension(args, kwargs, result) -> float:
    return float(result.space.dimension)


# Per-span quantities beyond time, keyed by span name.
HOOKS = {
    "modes.inner_product": _computed_bytes,
    "states.make_state": _fock_dimension,
}

# Per-layer metrics: (name, unit, statistic, span or layer).  Each is a
# total over the traced calls divided by the number of traced calls.
METRICS = (
    ("families.build_family.ms", "ms", "ms", "families.build_family"),
    ("families.evaluate_mode.calls", "count", "calls", "families.ParameterFamily.evaluate_mode"),
    ("families.evaluate_mode.ms", "ms", "ms", "families.ParameterFamily.evaluate_mode"),
    ("modes.derivative_mode.calls", "count", "calls", "modes.derivative_mode"),
    ("modes.derivative_mode.ms", "ms", "ms", "modes.derivative_mode"),
    ("modes.inner_product.calls", "count", "calls", "modes.inner_product"),
    ("modes.inner_product.ms", "ms", "ms", "modes.inner_product"),
    ("modes.inner_product.computed_mb", "MB", "hook_mb", "modes.inner_product"),
    ("modes.ModeBasis.validate.calls", "count", "calls", "modes.ModeBasis.validate"),
    ("modes.ModeBasis.validate.ms", "ms", "ms", "modes.ModeBasis.validate"),
    ("modes.gram_schmidt.ms", "ms", "ms", "modes.gram_schmidt"),
    ("states.state_from_spec.ms", "ms", "ms", "states.state_from_spec"),
    ("states.fock_dimension", "count", "hook", "states.make_state"),
    ("states.quadratic_operator.calls", "count", "calls", "states.quadratic_operator"),
    ("states.quadratic_operator.ms", "ms", "ms", "states.quadratic_operator"),
    ("states.first_moments.ms", "ms", "ms", "states.first_moments"),
    ("states.number_moments.ms", "ms", "ms", "states.number_moments"),
    ("states.operator_matrix_elements.ms", "ms", "ms", "states.operator_matrix_elements"),
    ("engine.build_generators.ms", "ms", "ms", "engine.build_generators"),
    ("engine.qfim_mode_split.ms", "ms", "ms", "engine.qfim_mode_split"),
    ("engine.qfim_unitary.calls", "count", "calls", "engine.qfim_unitary"),
    ("engine.qfim_unitary.ms", "ms", "ms", "engine.qfim_unitary"),
    ("engine.attainability.ms", "ms", "ms", "engine.attainability"),
    ("engine.attainability_single_mode.ms", "ms", "ms", "engine.attainability_single_mode"),
    ("engine.crb_bounds.ms", "ms", "ms", "engine.crb_bounds"),
    ("engine.detection_modes_for.ms", "ms", "ms", "engine.detection_modes_for"),
    ("engine.self_ms", "ms", "layer_self_ms", "engine"),
    ("cli.RunConfig.from_args.ms", "ms", "ms", "cli.RunConfig.from_args"),
    ("cli.main.self_ms", "ms", "self_ms", "cli.main"),
    ("cli.export_detection_modes_for.self_ms", "ms", "self_ms", "cli.export_detection_modes_for"),
)


class Tracer:
    """Records spans while ``call_id`` is set; idle wrappers only forward."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, call id, name, start ns, end ns, hook value]
        self.stack: list[int] = []
        self.call_id: int | None = None
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.call_id is None:
                return fn(*args, **kwargs)
            record = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1, tracer.call_id, name, 0, 0, 0.0]
            tracer.spans.append(record)
            tracer.stack.append(record[0])
            record[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter_ns()
                tracer.stack.pop()
            if hook is not None:
                record[6] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "modal_qcrb" or n.startswith("modal_qcrb.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"modal_qcrb.{layer}")
            for qualname in names:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(attr)
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    elif callable(raw):
                        self._set(cls, attr, self._wrap(name, raw))
                    else:
                        continue
                    self.wrapped.add(name)
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
                self.wrapped.add(name)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self, n_calls: int) -> dict[str, float]:
        """Per-layer metrics, each per traced call."""
        duration = {}
        child = defaultdict(int)
        for sid, parent, _, _, start, end, _ in self.spans:
            duration[sid] = end - start
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        hooked = defaultdict(float)
        layer_own = defaultdict(int)
        for sid, _, _, name, _, _, value in self.spans:
            calls[name] += 1
            total[name] += duration[sid]
            own[name] += duration[sid] - child[sid]
            hooked[name] += value
            layer_own[name.split(".")[0]] += duration[sid] - child[sid]
        tables = {
            "calls": (calls, 1.0),
            "ms": (total, 1e-6),
            "self_ms": (own, 1e-6),
            "layer_self_ms": (layer_own, 1e-6),
            "hook": (hooked, 1.0),
            "hook_mb": (hooked, 1e-6),
        }
        out = {}
        for metric, _, stat, key in METRICS:
            table, factor = tables[stat]
            out[metric] = table[key] * factor / max(n_calls, 1)
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, parent, call, name, start, end, value in self.spans:
                fh.write(json.dumps([sid, parent, call, name, start, end, value]) + "\n")
