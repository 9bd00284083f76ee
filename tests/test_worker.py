"""The worker thread of `geomatch.worker`.

Through `worker.split`, the one hand-off, the worker runs about half of
every dense chain forward (the first row half of each large chain, whole
chains below the size gate), the first half by multiply-adds of each dense
layer's gradient products (its weight-gradient products come first), the
first half of every sparse product's row blocks and half of Adam. The
reference for every result is the same code with the executor replaced by
one that runs each job at submission, on the calling thread, and the same
code without a spare CPU. No other module of the package reaches the
thread pool.
"""

import hashlib
import importlib
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from geomatch import diffnet as dn
from geomatch import sparse, worker
from geomatch.cli import main
from geomatch.dataset import generate_toy_dataset, load_records
from geomatch.model import GeoMatchModel, ModelConfig, save_model
from test_model import tiny_sample
from test_trace_names import LAYERS

SMALL = ModelConfig(gcn_hidden=(64, 64, 64), gcn_out=64, proj_dim=16,
                    ar_hidden=(64, 64, 64))


# every job the worker runs, by the module that hands it over
JOBS = ((dn, "_forward_chains"), (sparse, "_blocks"), (dn, "_matmuls"),
        (dn, "_adam_update"))
JOB_NAMES = {name for _, name in JOBS}


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


def record_jobs(monkeypatch, jobs):
    for owner, name in JOBS:
        record_threads(monkeypatch, owner, name, jobs)


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
    monkeypatch.setattr(worker, "SPARE_CPU", True)


@pytest.fixture(scope="module")
def toy_samples(toy_dataset):
    return load_records(toy_dataset, split="train")[:4]


@pytest.fixture()
def small_blocks(monkeypatch):
    # 1 KB blocks: every sparse product of `big_sample` in `SMALL` has at
    # least two of them
    monkeypatch.setattr(sparse, "_BLOCK_ELEMENTS", 1 << 7)


def big_sample(rng):
    return tiny_sample(rng, s_o=300, s_g=64)


@pytest.fixture()
def fast_switching():
    # hand the interpreter lock between threads far more often than usual
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def assert_same_bits_in_three_modes(monkeypatch, config, samples, jobs):
    """Train with the worker, with every job run at submission and without
    a spare CPU; every mode gives the same bytes, and each job ran on the
    worker in the first."""
    threaded = train_state(config, samples, 11)
    main = threading.get_ident()
    assert {name for name, t in jobs if t != main} == JOB_NAMES
    monkeypatch.setattr(worker, "_POOL", InlineExecutor())
    jobs.clear()
    assert train_state(config, samples, 11) == threaded
    assert {t for _, t in jobs} == {main}
    monkeypatch.setattr(worker, "SPARE_CPU", False)
    assert train_state(config, samples, 11) == threaded


def test_same_bits_as_inline(monkeypatch, toy_samples, fast_switching):
    """The full network on the S = 64 fixture: the head chains split, and
    the sparse products of 256 columns have several blocks."""
    jobs = []
    record_jobs(monkeypatch, jobs)
    assert_same_bits_in_three_modes(monkeypatch, ModelConfig(), toy_samples, jobs)


def test_same_bits_with_split_products(monkeypatch, rng_np, small_blocks,
                                       fast_switching):
    """Every sparse product, 3 columns wide or 64, splits its blocks."""
    products, jobs = [], []
    record_threads(monkeypatch, sparse, "_product", products)
    record_jobs(monkeypatch, jobs)
    samples = [big_sample(rng_np) for _ in range(2)]
    step(GeoMatchModel(SMALL, seed=2), samples[0])
    main = threading.get_ident()
    on_worker = [t for name, t in jobs if name == "_blocks" and t != main]
    assert len(on_worker) == len(products) > 0
    jobs.clear()
    assert_same_bits_in_three_modes(monkeypatch, SMALL, samples, jobs)


def test_same_bits_in_row_halves(monkeypatch, rng_np, fast_switching):
    """One step of the full network at S_O = 512, where the heads and the
    object encoder's 256-wide dense layers each run in two row halves."""
    second_halves = []
    job = dn._forward_chains
    monkeypatch.setattr(dn, "_forward_chains", lambda items: (
        second_halves.extend(rows.start for _, rows in items if rows.start),
        job(items))[1])
    jobs = []
    record_jobs(monkeypatch, jobs)
    samples = [tiny_sample(rng_np, s_o=512, s_g=64)]
    assert_same_bits_in_three_modes(monkeypatch, ModelConfig(), samples, jobs)
    # 5 heads and 3 encoder layers, in each of three modes
    assert second_halves == [256] * 8 * 3


class TestPinnedTraining:
    """Losses, values and Adam moments after full-size steps, hashed: four
    steps on the S = 64 toy fixture, and one at S_O = 512, where the heads
    and the wide encoder layers run in row halves. The digests are per
    OpenBLAS kernel (numpy 2.4, OpenBLAS 0.3.31, x86-64): the kernels round
    some products differently."""

    DIGESTS = {
        "SkylakeX": {
            "toy": "1e7abbd855086696cbb3679050d37ae1e85cf3e830592ed3f2e53e6618478b8f",
            "halves": "0fbabb1862979907649ccedc3b5d4af900bae2df8fac6d6c078582807b9e1d09",
        },
        "Haswell": {
            "toy": "92e1c2a752e74fbee551fe9474ee8133e764211d8b7e27c1700e0cd2d10e470f",
            "halves": "7805e7d324be1705e43fe8293e6fb0e4acb52a3feca81a7b6f7d61b139040529",
        },
        "Sandybridge": {
            "toy": "1bbf43468312703dd7d5615f8ee12f578bd45dbc0e654e20b5c65c790a7fc67b",
            "halves": "d15205d703f1cbe6bfcef82c5d5d6f1fd4ff69c41b4fcd41d98dbdba4b9798bb",
        },
    }

    @pytest.mark.parametrize("case", ["toy", "halves"])
    def test_training_unchanged(self, toy_samples, rng_np, blas_kernel, case):
        assert blas_kernel in self.DIGESTS, f"no digests pinned for the {blas_kernel} kernel"
        samples = (toy_samples if case == "toy"
                   else [tiny_sample(rng_np, s_o=512, s_g=64)])
        losses, values, m, v = train_state(ModelConfig(), samples, 11)
        digest = hashlib.sha256(b"".join(losses + values + m + v)).hexdigest()
        assert digest == self.DIGESTS[blas_kernel][case], f"{case} on the {blas_kernel} kernel"


@pytest.mark.parametrize("case", ["small", "halves"])
def test_infer_same_bytes_in_three_modes(monkeypatch, toy_dataset, tmp_path,
                                        small_blocks, case):
    """`infer` writes the same proposals with the worker, with every job
    run at submission and without a spare CPU: a small network on the
    S = 64 fixture, and the full-size network at S_O = 256, where rows x
    weight elements reach 2^25 and every head step of a rollout runs in
    two row halves."""
    if case == "small":
        config, data = SMALL, toy_dataset
    else:
        config = ModelConfig()
        data = generate_toy_dataset(seed=11, out_dir=tmp_path / "data", s_o=256,
                                    s_g=64, object_ids=["sphere_small"])
    save_model(GeoMatchModel(config, seed=3), tmp_path / "w")
    halves = []     # (layers, first row) of every chain item run
    job = dn._forward_chains
    monkeypatch.setattr(dn, "_forward_chains", lambda items: (
        halves.extend((len(plan[1]), rows.start) for plan, rows in items),
        job(items))[1])

    def infer(name):
        out = tmp_path / name
        halves.clear()
        assert main(["infer", "--weights", str(tmp_path / "w"), "--manifest",
                     data.base_dir, "--split", "all", "--ranks",
                     "0,5,11", "--out", str(out)]) == 0
        if case == "halves":
            # the five heads are the only chains of more than one layer
            steps = 5 * len(out.read_text().splitlines())
            assert Counter(row for layers, row in halves if layers > 1) == {
                0: steps, 128: steps}
        return out.read_bytes()

    jobs = []
    record_jobs(monkeypatch, jobs)
    threaded = infer("threaded.jsonl")
    assert any(t != threading.get_ident() for _, t in jobs)
    monkeypatch.setattr(worker, "_POOL", InlineExecutor())
    assert infer("inline.jsonl") == threaded
    monkeypatch.setattr(worker, "SPARE_CPU", False)
    assert infer("alone.jsonl") == threaded


class RecordingPool:
    """Runs each job at submission and records it with its first argument."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append((fn, args[0]))
        return InlineExecutor().submit(fn, *args)


def split_parts(items, sizes, *args):
    """The parts `worker.split(job, items, sizes, *args)` ran, in item
    order, each (items, whether it ran on the worker, args), as the job
    recorded them."""
    seen, main = [], threading.get_ident()

    def job(part, *job_args):
        seen.append((list(part), threading.get_ident() != main, job_args))

    worker.split(job, items, sizes, *args)
    seen.sort(key=lambda part: not part[1])     # the worker runs the first
    assert [x for part, _, _ in seen for x in part] == list(items)
    return seen


def cut_of(items, sizes):
    """The cut `split` made: the length of the part the worker ran, or 0
    where the job ran once, here."""
    seen = split_parts(items, sizes)
    if len(seen) == 1:
        assert not seen[0][1]
        return 0
    (first, on_worker, _), (_, here_on_worker, _) = seen
    assert on_worker and not here_on_worker
    return len(first)


class TestSplit:
    @pytest.mark.parametrize("n", range(7))
    def test_equal_sizes_cut_in_half(self, n):
        seen = split_parts(range(n), [1] * n)
        if n > 1:
            assert seen == [(list(range(n // 2)), True, ()),
                            (list(range(n // 2, n)), False, ())]
        else:
            assert seen == [(list(range(n)), False, ())]

    @pytest.mark.parametrize("sizes, cut", [
        ([], 0), ([3], 0), ([1, 1], 1), ([5, 1], 1), ([1, 5], 1),
        ([1, 2, 1], 1),            # cuts 1 and 2 tie: the lower one
        ([4, 0, 0], 0),            # every cut ties
        ([2, 2, 2, 2], 2), ([0, 0, 4], 0), ([1, 1, 1, 9], 3),
    ])
    def test_given_sizes_cut_nearest_half(self, sizes, cut):
        assert cut_of(list(range(len(sizes))), sizes) == cut

    @pytest.mark.parametrize("config", [ModelConfig(), SMALL], ids=["full", "small"])
    def test_store_cut_matches_argmin(self, config):
        """The cut `adam_step` made with numpy before `split` took it over."""
        sizes = [p.data.size for _, p in GeoMatchModel(config, seed=0).store.items()]
        ends = np.cumsum([0] + sizes)
        cut = int(np.argmin(np.abs(2 * ends - ends[-1])))
        assert 0 < cut < len(sizes)
        assert cut_of(sizes, sizes) == cut

    def test_cut_zero_submits_nothing(self, monkeypatch):
        pool = RecordingPool()
        monkeypatch.setattr(worker, "_POOL", pool)
        assert split_parts([7], [1]) == [([7], False, ())]
        assert split_parts([7, 8], [0, 5]) == [([7, 8], False, ())]
        assert pool.submitted == []
        assert split_parts([7, 8], [1, 1], "a") == [([7], False, ("a",)),
                                                    ([8], False, ("a",))]
        assert [items for _, items in pool.submitted] == [[7]]

    @pytest.mark.parametrize("sizes", ["equal", "given"])
    def test_same_results_in_every_mode(self, monkeypatch, sizes):
        items = [np.arange(k, dtype=float) for k in range(1, 9)]
        sizes = [1] * len(items) if sizes == "equal" else [x.size for x in items]

        def job(part, out, scale):
            for i in part:
                out[i] = items[i] * scale + 1.0

        def run():
            out = [None] * len(items)
            worker.split(job, range(len(items)), sizes, out, 0.5)
            return [x.tobytes() for x in out]

        want = [(x * 0.5 + 1.0).tobytes() for x in items]
        assert run() == want
        monkeypatch.setattr(worker, "_POOL", InlineExecutor())
        assert run() == want
        monkeypatch.setattr(worker, "SPARE_CPU", False)
        assert run() == want

    def test_no_spare_cpu_runs_the_job_once_here(self, monkeypatch):
        monkeypatch.setattr(worker, "SPARE_CPU", False)
        assert split_parts(range(5), [1] * 5, 3) == [([0, 1, 2, 3, 4], False, (3,))]

    def test_main_thread_error_waits_for_the_first_part(self):
        finished = []

        def job(part):
            if threading.current_thread() is threading.main_thread():
                raise Boom("main")
            time.sleep(0.05)
            finished.append(part)

        with pytest.raises(Boom, match="main"):
            worker.split(job, [1, 2], [1, 1])
        assert finished == [[1]]

    def test_worker_error_surfaces_with_its_type(self):
        def job(part):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("worker")

        with pytest.raises(Boom, match="worker"):
            worker.split(job, [1, 2], [1, 1])


SRC = Path(__file__).resolve().parent.parent / "src" / "geomatch"
HAND_OFFS = re.compile(r"\b(import threading|from threading|concurrent\.futures"
                       r"|SPARE_CPU|_POOL|worker\.(?!split\b)\w+)\b")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_worker_reaches_the_thread(path):
    """Every hand-off goes through `worker.split`, the one name other
    modules use from `worker`, so a new hand-rolled one fails here first."""
    hits = [ln for ln, line in enumerate(path.read_text().splitlines(), start=1)
            if HAND_OFFS.search(line)]
    if path.name == "worker.py":
        assert hits, "worker.py should hold the pool"
    else:
        assert not hits, f"{path.name} reaches the worker thread itself at lines {hits}"


def test_no_spare_cpu_runs_every_job_inline(monkeypatch, rng_np, small_blocks):
    class NoPool:
        def submit(self, *args):
            pytest.fail("job submitted without a spare CPU")

    monkeypatch.setattr(worker, "SPARE_CPU", False)
    monkeypatch.setattr(worker, "_POOL", NoPool())
    jobs = []
    record_jobs(monkeypatch, jobs)
    step(GeoMatchModel(SMALL, seed=2), big_sample(rng_np))
    assert {name for name, _ in jobs} == JOB_NAMES
    assert {t for _, t in jobs} == {threading.get_ident()}


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
    monkeypatch.setattr(worker.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    assert worker.spare_cpu() is spare


def test_worker_runs_no_traced_function(monkeypatch, rng_np, small_blocks):
    """Every traced layer and every Tensor is built on the main thread,
    while the worker runs every kind of job."""
    sample = big_sample(rng_np)
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
    record_jobs(monkeypatch, jobs)
    step(model, sample)
    main = threading.get_ident()
    assert {"model.total_loss", "model.ar_logits", "sparse.matmul",
            "sparse.rmatmul", "diffnet.backward", "diffnet.adam_step",
            "Tensor.__init__"} <= {label for label, _ in seen}
    assert {t for _, t in seen} == {main}
    assert {name for name, t in jobs if t != main} == JOB_NAMES


class TestWorkerErrors:
    @pytest.fixture()
    def submitted(self, monkeypatch, rng_np, small_blocks):
        """Every future submitted to the worker, once it is running."""
        step(GeoMatchModel(SMALL, seed=1), tiny_sample(rng_np))
        futures = []
        submit = worker._POOL.submit

        def recording_submit(*args):
            futures.append(submit(*args))
            return futures[-1]

        monkeypatch.setattr(worker._POOL, "submit", recording_submit)
        return futures

    @staticmethod
    def fail_on_worker(monkeypatch, owner, name):
        job = vars(owner)[name]

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise Boom(name)
            return job(*args)

        monkeypatch.setattr(owner, name, failing)

    @pytest.mark.parametrize("owner, name", [(dn, "_forward_chains"),
                                             (sparse, "_blocks")],
                             ids=["chains", "blocks"])
    def test_forward_error_surfaces_from_total_loss(
            self, monkeypatch, rng_np, submitted, owner, name):
        model = GeoMatchModel(SMALL, seed=1)
        self.fail_on_worker(monkeypatch, owner, name)
        with pytest.raises(Boom, match=name):
            model.total_loss(big_sample(rng_np))
        assert submitted and all(f.done() for f in submitted)

    def test_block_error_surfaces_from_backward(self, monkeypatch, rng_np,
                                                submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(big_sample(rng_np))
        self.fail_on_worker(monkeypatch, sparse, "_blocks")
        submitted.clear()
        with pytest.raises(Boom):
            dn.backward(total)
        assert submitted and all(f.done() for f in submitted)

    def test_dense_product_error_surfaces_from_backward(
            self, monkeypatch, rng_np, submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        self.fail_on_worker(monkeypatch, dn, "_matmuls")
        submitted.clear()
        with pytest.raises(Boom):
            dn.backward(total)
        assert submitted and all(f.done() for f in submitted)

    def test_adam_error_surfaces_from_adam_step(self, monkeypatch, rng_np,
                                                submitted):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        dn.backward(total)
        self.fail_on_worker(monkeypatch, dn, "_adam_update")
        submitted.clear()
        with pytest.raises(Boom):
            dn.adam_step(model.store)
        assert len(submitted) == 1 and submitted[0].done()

    @pytest.mark.parametrize("owner, name", [(dn, "_forward_chains"),
                                             (dn, "_adam_update")],
                             ids=["chains", "adam"])
    def test_main_thread_error_waits_for_the_job(self, monkeypatch, rng_np,
                                                 submitted, owner, name):
        model = GeoMatchModel(SMALL, seed=1)
        total, _, _ = model.total_loss(tiny_sample(rng_np))
        dn.backward(total)
        finished = []
        job = vars(owner)[name]

        def slow_or_failing(items, *args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
                finished.append(True)
            elif len(items) > 1:
                # below the gate an encoder `dense` call is one item, run here
                raise Boom("main")
            else:
                return job(items, *args)

        monkeypatch.setattr(owner, name, slow_or_failing)
        submitted.clear()
        with pytest.raises(Boom, match="main"):
            if name == "_adam_update":
                dn.adam_step(model.store)
            else:
                model.total_loss(tiny_sample(rng_np))
        assert finished and submitted and all(f.done() for f in submitted)
