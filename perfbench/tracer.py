"""Per-layer tracer for the geomatch pipeline, kept outside the program.

A `Tracer` replaces each listed function with a wrapper, in place, for as
long as it is installed. A function imported by name into several modules
(`knn_graph`, `keypoint_positions`, `solve_ik`, ...) is found by identity
and rebound in every `geomatch.*` module namespace, so a call through any of
those names is seen. A method is wrapped on its class.

A timed layer records calls, total time and self time: its own duration
minus the durations of traced layers called from inside it. The self times
of all layers therefore never overlap, and their sum over a stage is the
part of the stage spent inside some traced layer. A counted layer records
calls only and costs one increment, for functions called so often that a
timing wrapper would distort what it measures; its time stays in the self
time of its caller.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "geomatch"


@dataclass(frozen=True)
class Layer:
    label: str          # metric prefix, e.g. "sparse.matmul"
    module: str         # defining module, e.g. "geomatch.sparse"
    attr: str           # "matmul", or "SparseCOO.matmul" for a method
    timed: bool = True


class Tracer:
    """Install with `with tracer:`; read `stats` and `counters` afterwards."""

    def __init__(self, layers, probes=()):
        self.layers = tuple(layers)
        # label -> [calls, total_s, self_s]
        self.stats = {layer.label: [0, 0.0, 0.0] for layer in self.layers}
        self.counters: dict[str, float] = {}
        self._probes = {}
        for probe in probes:
            probe.attach(self)
            self._probes[probe.label] = probe
        # one child-time accumulator per active timed call; the bottom entry
        # collects the time of top-level layers
        self._frames = [[0.0]]
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, stat):
        frames = self._frames
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat[0] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                stat[1] += dt
                stat[2] += dt - frame[0]
                frames[-1][0] += dt

        return traced

    @staticmethod
    def _counted(fn, stat):
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            owner, name = _resolve(layer)
            original = getattr(owner, name)
            fn = original
            if layer.label in self._probes:
                fn = self._probes[layer.label].wrap(fn)
            stat = self.stats[layer.label]
            wrapper = (self._timed(fn, stat) if layer.timed
                       else self._counted(fn, stat))
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every statistic and counter, for differences by stage."""
        out = {label: tuple(stat) for label, stat in self.stats.items()}
        out.update(self.counters)
        return out

    def self_time(self, snap: dict) -> float:
        """Summed self time of all timed layers in a snapshot."""
        return sum(snap[layer.label][2] for layer in self.layers if layer.timed)


def difference(after: dict, before: dict) -> dict:
    """What happened between two snapshots of one tracer."""
    out = {}
    for key, value in after.items():
        prior = before.get(key, 0)
        if isinstance(value, tuple):
            prior = prior or (0,) * len(value)
            out[key] = tuple(a - b for a, b in zip(value, prior))
        else:
            out[key] = value - prior
    return out


def _resolve(layer: Layer):
    owner = importlib.import_module(layer.module)
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{layer.module}.{layer.attr} not found")
    return owner, name
