"""Outside-in tracing of the package's layers.

The tracer wraps named public functions of gauss_extremal (and two numpy
LAPACK entry points) from the benchmark's own code, so the program itself
carries no timers. Each call records one span: layer name, start, end,
parent span and command id. Spans stay in memory until the run ends.

A module-level function is replaced in every gauss_extremal module that
bound it (``from .gauss_model import log_det`` makes a second binding in
``extremal``), plus numpy.linalg for the numpy names. A classmethod is
replaced on its class. A name that no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Layer names are "<module>.<function>" or "<module>.<Class>.<classmethod>";
# the module is relative to gauss_extremal, except for numpy.linalg.
LAYERS = (
    "cli.main",
    "cli.run_verify_sweep",
    "rng.stream",
    "rng.random_pd",
    "gauss_model.mutual_information",
    "gauss_model.log_det",
    "gauss_model.cholesky_pd",
    "gauss_model.schur_conditional_cov",
    "gauss_model.matrix_from_json",
    "gauss_model.GaussianPairModel.scalar",
    "gauss_model.GaussianPairModel.vector",
    "gauss_model.GaussianAuxChannel.linear",
    "gauss_model.GaussianAuxChannel.scalar_corr",
    "gauss_model.GaussianAuxChannel.degenerate_on",
    "gauss_model.GaussianAuxChannel.for_conditional_cov",
    "extremal.scalar_extremal_gap",
    "extremal.vector_extremal_forms",
    "extremal.oohama_gap",
    "extremal.alpha_family_channel",
    "extremal.scalar_dual_closed",
    "extremal.scalar_dual_oracle",
    "rate_region.region_verdict",
    "ellipsoid_codec.run_simulation",
    "ellipsoid_codec.build_shrunk_matrix",
    "ellipsoid_codec.solve_noise_levels",
    "ellipsoid_codec.implied_rates",
    "ellipsoid_codec.trials_csv_rows",
    "ellipsoid_codec.report_to_dict",
    "numpy.linalg.cholesky",
    "numpy.linalg.slogdet",
)

PACKAGE = "gauss_extremal"


def _resolve(layer: str):
    """(module, owner, attribute) for a layer name; owner is the module or a class."""
    if layer.startswith("numpy.linalg."):
        module_name, path = "numpy.linalg", layer[len("numpy.linalg."):].split(".")
    else:
        head, *path = layer.split(".")
        module_name = f"{PACKAGE}.{head}"
    module = importlib.import_module(module_name)
    owner = module
    for part in path[:-1]:
        owner = getattr(owner, part)
    return module, owner, path[-1]


class Tracer:
    """Installs span-recording wrappers and aggregates per-layer totals."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.spans: list = []  # (layer, start, end, parent span index or -1, command id)
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (namespace, attribute, original), in install order

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.command)

        return traced

    def _patch(self, namespace, attribute: str, value) -> None:
        # vars(), not getattr(): a classmethod must be restored as the descriptor.
        self._patches.append((namespace, attribute, vars(namespace)[attribute]))
        setattr(namespace, attribute, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for layer in self.layers:
            try:
                module, owner, attribute = _resolve(layer)
                raw = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(layer)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    self._patch(owner, attribute, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, raw)
            namespaces = [module] + [
                mod for name, mod in sorted(sys.modules.items())
                if name.startswith(PACKAGE) and mod is not module
            ]
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is raw:
                        self._patch(namespace, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds). Self time is a span's duration
        minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: [0, 0.0] for layer in self.layers}
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            entry = totals[layer]
            entry[0] += 1
            entry[1] += end - start - child[index]
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,layer,start_s,end_s,command\n")
            for index, (layer, start, end, parent, command) in enumerate(self.spans):
                fh.write(f"{index},{parent},{layer},{start!r},{end!r},{command}\n")
