"""Outside-in spans around dsc_codec's public functions, for the traced run.

Wrappers are installed on the names as bound in each calling module (for
example ``dsc_codec.pipeline.generate_scene`` or ``dsc_codec.codec.rans_encode``)
and on ``Message.to_bytes`` / ``Message.from_bytes``, then removed again, so
the program under test is never edited. A span's self time is its duration
minus the time of the spans it encloses. Counters are taken at the same
boundaries from each call's arguments and result; the time spent taking them
is kept out of every span and reported separately.

A target that no longer exists (a later refactor may merge or rename a
function), or a counter whose argument was renamed, is reported as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wiresections import message_sections


def _digest(arr: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).data, digest_size=16).digest()


def _observe_scene(tracer, name, args, result):
    tracer.keys[name].add((args["cfg"], args["t"]))


def _observe_observe(tracer, name, args, result):
    tracer.keys[name].add((args["cfg"], args["scene"].t, args["agent_id"]))


def _observe_mask(tracer, name, args, result):
    tracer.counts["pruning.kept_cells"] += result.count()
    tracer.counts["pruning.cells"] += result.bits.size


def _observe_quantize(tracer, name, args, result):
    tracer.counts["quantizer.quantize_map.vectors"] += len(result)


def _observe_kmeans(tracer, name, args, result):
    tracer.counts["quantizer.kmeans_fit.iterations"] += len(result[1]) - 1


def _observe_rans_encode(tracer, name, args, result):
    tracer.counts["rans.encoded_symbols"] += len(args["idx"])


def _observe_rans_decode(tracer, name, args, result):
    tracer.counts["rans.decoded_symbols"] += len(result)


def _observe_to_bytes(tracer, name, args, result):
    tracer.counts["wire.messages"] += 1
    for section, size in message_sections(result).items():
        tracer.counts[f"wire.{section}_bytes"] += size


def _observe_encode(tracer, name, args, result):
    key = (
        _digest(args["f_pruned"].values),
        _digest(args["mask"].bits),
        _digest(args["params"].projection),
        args["cb"].version_hash,
        args.get("precision"),
    )
    tracer.keys[name].add(key)


def _observe_run_link(tracer, name, args, result):
    tracer.counts["pipeline.link_failures"] += int(bool(result.failed))


@dataclass(frozen=True)
class Target:
    """One public function, the places it is bound, and its counter hook."""

    name: str
    owners: tuple[str, ...]
    attr: str
    observe: Callable | None = None


# Owners are modules, or "module:Class" for methods. Each owner is where a
# caller looks the name up: the program's calling modules, plus the defining
# module where the benchmark itself calls the function.
TARGETS = (
    Target("simulate.generate_scene", ("pipeline", "simulate"), "generate_scene", _observe_scene),
    Target("simulate.observe", ("pipeline", "simulate"), "observe", _observe_observe),
    Target("simulate.perturb_pose", ("pipeline",), "perturb_pose"),
    Target("pruning.score_map", ("pipeline", "pruning"), "score_map"),
    Target("pruning.mask_from_scores", ("pipeline", "pruning"), "mask_from_scores", _observe_mask),
    Target("features.apply_mask", ("features",), "apply_mask"),
    Target("features.elementwise_max", ("pipeline",), "elementwise_max"),
    Target("features.mse", ("pipeline",), "mse"),
    Target("quantizer.quantize_map", ("codec",), "quantize_map", _observe_quantize),
    Target("quantizer.kmeans_fit", ("quantizer",), "kmeans_fit", _observe_kmeans),
    Target("rans.build_freq_table", ("codec",), "build_freq_table"),
    Target("rans.rans_encode", ("codec",), "rans_encode", _observe_rans_encode),
    Target("rans.rans_decode", ("codec",), "rans_decode", _observe_rans_decode),
    Target("wire.to_bytes", ("wire:Message",), "to_bytes", _observe_to_bytes),
    Target("wire.from_bytes", ("wire:Message",), "from_bytes"),
    Target("codec.project_cells", ("codec", "pipeline"), "project_cells"),
    Target("codec.encode_message", ("codec", "pipeline"), "encode_message", _observe_encode),
    Target("codec.si_context", ("codec",), "si_context"),
    Target("codec.decode_message", ("codec", "pipeline"), "decode_message"),
    Target("codec.decode_unconditional", ("codec", "pipeline"), "decode_unconditional"),
    Target("codec.fit_encoder_projection", ("pipeline",), "fit_encoder_projection"),
    Target("codec.fit_conditional_decoder", ("pipeline",), "fit_conditional_decoder"),
    Target("pipeline.fit_codec", ("pipeline",), "fit_codec"),
    Target("pipeline.run_link", ("pipeline",), "run_link", _observe_run_link),
    Target("pipeline.evaluate_point", ("pipeline",), "evaluate_point"),
    Target("pipeline.fuse_all", ("pipeline",), "fuse_all"),
)


class Tracer:
    """In-memory span and counter store; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.observer_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        # One [child_ns, observer_ns] accumulator per open span.
        self._stack: list[list[int]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, observe):
        if not self.active:
            return fn(*args, **kwargs)
        with self.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            start = time.perf_counter_ns()
            self.active = False
            try:
                bound = _signature(fn).bind(*args, **kwargs).arguments
                observe(self, name, bound, result)
            except (KeyError, AttributeError):
                # A renamed parameter or field: the span stays, its counters are missing.
                if f"{name} counters" not in self.missing:
                    self.missing.append(f"{name} counters")
            finally:
                self.active = True
                spent = time.perf_counter_ns() - start
                if self._stack:
                    self._stack[-1][0] += spent
                    self._stack[-1][1] += spent
        return result

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        acc = [0, 0]
        self._stack.append(acc)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
                self._stack[-1][1] += acc[1]
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - acc[0]
            self.observer_ns[name] += acc[1]

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def self_ms(self, name: str) -> float:
        return self.self_ns[name] / 1e6

    def distinct_ratio(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.keys[name]) / calls if calls else 0.0


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable) -> inspect.Signature:
    return inspect.signature(fn)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(f"dsc_codec.{module_name}")
    return getattr(module, class_name) if class_name else module


def _wrap(tracer: Tracer, target: Target, original):
    if isinstance(original, classmethod):
        func = original.__func__

        @functools.wraps(func)
        def class_wrapper(cls, *args, **kwargs):
            return tracer.call(target.name, func, (cls, *args), kwargs, target.observe)

        return classmethod(class_wrapper)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(target.name, original, args, kwargs, target.observe)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists and record while inside; restore the
    originals on exit."""
    patches = []
    try:
        for target in TARGETS:
            found = False
            for owner_name in target.owners:
                try:
                    owner = _resolve(owner_name)
                except (ImportError, AttributeError):
                    continue
                original = vars(owner).get(target.attr)
                if not callable(original) and not isinstance(original, classmethod):
                    continue
                found = True
                patches.append((owner, target.attr, original))
                setattr(owner, target.attr, _wrap(tracer, target, original))
            if not found:
                tracer.missing.append(target.name)
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
