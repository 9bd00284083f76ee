"""The training worker thread of `geomatch.diffnet`.

Training runs each dense layer's weight-gradient product and half of Adam
on one worker thread. The reference for every result is the same code
with the executor replaced by one that runs each job at submission, on the
calling thread.
"""

import importlib
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from geomatch import diffnet as dn
from geomatch.dataset import load_records
from geomatch.model import GeoMatchModel, ModelConfig
from test_model import tiny_sample
from test_trace_names import LAYERS

SMALL = ModelConfig(gcn_hidden=(64, 64, 64), gcn_out=64, proj_dim=16,
                    ar_hidden=(64, 64, 64))


class InlineExecutor:
    """Runs each job at submission, on the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class Boom(Exception):
    pass


def step(model, sample):
    total, _, _ = model.total_loss(sample)
    dn.backward(total)
    dn.adam_step(model.store, lr=1e-3)
    return total.data.tobytes()


def train_state(config, samples, seed):
    """Losses, values and Adam moments, as bytes, after one step per sample."""
    model = GeoMatchModel(config, seed=seed)
    losses = [step(model, s) for s in samples]
    store = model.store
    return (losses, [p.data.tobytes() for _, p in store.items()],
            [store._m[n].tobytes() for n in store.names()],
            [store._v[n].tobytes() for n in store.names()])


def record_threads(monkeypatch, owner, name, seen, label=None):
    """Wrap `owner.name` so each call appends (label, thread ident)."""
    fn = vars(owner)[name]

    def recorded(*args, **kwargs):
        seen.append((label or name, threading.get_ident()))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return fn, recorded


@pytest.fixture(autouse=True)
def spare_cpu(monkeypatch):
    # the worker runs only where a CPU is spare; test it on any host
    monkeypatch.setattr(dn, "_SPARE_CPU", True)


@pytest.fixture(scope="module")
def toy_samples(toy_dataset):
    return load_records(toy_dataset, split="train")[:4]


@pytest.fixture()
def fast_switching():
    # hand the interpreter lock between threads far more often than usual
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def test_same_bits_as_inline(monkeypatch, toy_samples, fast_switching):
    """The full network on the S = 64 fixture trains to the same bytes with
    the worker, with every job run at submission, and without a spare CPU
    (where `dense` keeps its single-threaded loop)."""
    jobs = []
    for name in ("_matmuls", "_adam_update"):
        record_threads(monkeypatch, dn, name, jobs)
    threaded = train_state(ModelConfig(), toy_samples, 11)
    main = threading.get_ident()
    assert {name for name, t in jobs if t != main} == {"_matmuls", "_adam_update"}
    monkeypatch.setattr(dn, "_POOL", InlineExecutor())
    jobs.clear()
    assert train_state(ModelConfig(), toy_samples, 11) == threaded
    assert {t for _, t in jobs} == {main}
    monkeypatch.setattr(dn, "_SPARE_CPU", False)
    assert train_state(ModelConfig(), toy_samples, 11) == threaded


def test_no_spare_cpu_runs_every_job_inline(monkeypatch, rng_np):
    class NoPool:
        def submit(self, *args):
            pytest.fail("job submitted without a spare CPU")

    monkeypatch.setattr(dn, "_SPARE_CPU", False)
    monkeypatch.setattr(dn, "_POOL", NoPool())
    jobs = []
    for name in ("_matmuls", "_adam_update"):
        record_threads(monkeypatch, dn, name, jobs)
    step(GeoMatchModel(SMALL, seed=2), tiny_sample(rng_np))
    assert jobs and {t for _, t in jobs} == {threading.get_ident()}


@pytest.mark.parametrize("cpus, env, spare", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (8, {"OMP_NUM_THREADS": " 1 "}, True),
    (2, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    (2, {}, False),                                 # BLAS takes every CPU
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    (2, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
])
def test_spare_cpu(monkeypatch, cpus, env, spare):
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(dn.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert dn._spare_cpu() is spare


def test_worker_runs_no_traced_function(monkeypatch, rng_np):
    """Every traced layer and every Tensor is built on the main thread."""
    sample = tiny_sample(rng_np)
    model = GeoMatchModel(SMALL, seed=2)
    seen = []
    for layer in LAYERS:
        owner = importlib.import_module(layer.module)
        *path, name = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original, recorded = record_threads(monkeypatch, owner, name, seen,
                                            layer.label)
        if isinstance(owner, type):
            continue
        # rebind names imported into other modules, as the tracer does
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("geomatch."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, recorded)
    record_threads(monkeypatch, dn.Tensor, "__init__", seen, "Tensor.__init__")
    jobs = []
    for name in ("_matmuls", "_adam_update"):
        record_threads(monkeypatch, dn, name, jobs)
    step(model, sample)
    main = threading.get_ident()
    assert {"model.total_loss", "diffnet.backward", "diffnet.adam_step",
            "Tensor.__init__"} <= {label for label, _ in seen}
    assert {t for _, t in seen} == {main}
    assert any(t != main for _, t in jobs)


class TestWorkerErrors:
    @pytest.fixture()
    def submitted(self, monkeypatch, rng_np):
        """Every future submitted to the worker, once it is running."""
        step(GeoMatchModel(SMALL, seed=1), tiny_sample(rng_np))
        futures = []
        submit = dn._POOL.submit

        def recording_submit(*args):
            futures.append(submit(*args))
            return futures[-1]

        monkeypatch.setattr(dn._POOL, "submit", recording_submit)
        return futures

    @staticmethod
    def fail_on_worker(monkeypatch, name):
        job = vars(dn)[name]

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise Boom(name)
            return job(*args)

        monkeypatch.setattr(dn, name, failing)

    def test_dense_product_error_surfaces_from_backward(
            self, monkeypatch, rng_np, submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        self.fail_on_worker(monkeypatch, "_matmuls")
        with pytest.raises(Boom):
            dn.backward(total)
        assert submitted and all(f.done() for f in submitted)

    def test_adam_error_surfaces_from_adam_step(self, monkeypatch, rng_np,
                                                submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        dn.backward(total)
        self.fail_on_worker(monkeypatch, "_adam_update")
        submitted.clear()
        with pytest.raises(Boom):
            dn.adam_step(model.store)
        assert len(submitted) == 1 and submitted[0].done()

    def test_main_thread_error_waits_for_the_job(self, monkeypatch, rng_np,
                                                 submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        dn.backward(total)
        finished = []

        def slow_or_failing(*args):
            if threading.current_thread() is threading.main_thread():
                raise Boom("main")
            time.sleep(0.05)
            finished.append(True)

        monkeypatch.setattr(dn, "_adam_update", slow_or_failing)
        submitted.clear()
        with pytest.raises(Boom, match="main"):
            dn.adam_step(model.store)
        assert finished and len(submitted) == 1 and submitted[0].done()
