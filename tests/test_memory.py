"""Each large array is held once: one training tape at a time, no encoder
tape while `infer`'s rollouts run, and weight files written and read
without a second copy of the values.

A Tensor takes no weak reference (its `__slots__`), so the checks follow
its array, which dies with it: a dense layer's output is held only by its
Tensor and by the tape node's backward closure. No check calls `gc`: what
it finds dead was freed by reference counting, as in a CLI run.
"""

import tracemalloc
import weakref

from geomatch import diffnet as dn
from geomatch import inference as inf
from geomatch.cli import main
from geomatch.model import GeoMatchModel, save_model, train
from test_model import TINY, tiny_sample

MB = 1 << 20


def record_dense_outputs(monkeypatch, refs: list) -> None:
    """Append a weak reference to every `dn.dense` output's array to `refs`:
    the encoders' layers, each a node of the tape."""
    dense = dn.dense

    def recording(*args, **kwargs):
        out = dense(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(dn, "dense", recording)


def test_train_frees_each_step_before_the_next(monkeypatch, rng_np, pincer):
    refs = []           # the last step's losses and encoder layer outputs
    checked = []
    record_dense_outputs(monkeypatch, refs)
    total_loss = GeoMatchModel.total_loss

    def wrapped(self, *args, **kwargs):
        alive = sum(r() is not None for r in refs)
        assert alive == 0, f"{alive} arrays of the previous step are alive"
        checked.append(len(refs))
        refs.clear()
        losses = total_loss(self, *args, **kwargs)
        refs.extend(weakref.ref(t.data) for t in losses)
        return losses

    monkeypatch.setattr(GeoMatchModel, "total_loss", wrapped)
    samples = [tiny_sample(rng_np, ee=pincer) for _ in range(2)]
    train(GeoMatchModel(TINY, seed=3), samples, epochs=2, lr=1e-3, seed=9)
    # 4 steps; each later one checked 3 losses and 8 encoder layers
    assert checked == [0, 11, 11, 11]


def test_infer_holds_no_encoder_tape_during_rollouts(monkeypatch, toy_dataset,
                                                     tmp_path):
    save_model(GeoMatchModel(TINY, seed=3), tmp_path / "w")
    refs = []
    checked = []
    record_dense_outputs(monkeypatch, refs)
    propose = inf.propose_grasps

    def wrapped(*args, **kwargs):
        alive = sum(r() is not None for r in refs)
        assert refs and alive == 0, f"{alive} encoder layer outputs are alive"
        checked.append(len(refs))
        return propose(*args, **kwargs)

    monkeypatch.setattr(inf, "propose_grasps", wrapped)
    assert main(["infer", "--weights", str(tmp_path / "w"), "--manifest",
                 toy_dataset.base_dir, "--split", "all", "--ranks", "0,5",
                 "--out", str(tmp_path / "proposals.jsonl")]) == 0
    # one call per (object, gripper) pair
    assert len(checked) == (len({r.object_id for r in toy_dataset.records})
                            * len(toy_dataset.end_effectors))


def traced_peak(fn, *args) -> int:
    """The peak of traced allocations while `fn(*args)` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_weights_holds_no_copy_of_the_store(tmp_path):
    store = GeoMatchModel(seed=None).store
    largest = max(p.data.nbytes for _, p in store.items())
    peak = traced_peak(dn.save_weights, store, tmp_path)
    assert peak <= largest + MB, f"save_weights peaked at {peak / MB:.2f} MB"


def test_load_weights_reads_into_one_array(tmp_path):
    dn.save_weights(GeoMatchModel(seed=None).store, tmp_path)
    size = (tmp_path / "weights.bin").stat().st_size
    store = GeoMatchModel(seed=None).store
    peak = traced_peak(dn.load_weights, store, tmp_path)
    assert peak <= size + MB, f"load_weights peaked at {peak / MB:.2f} MB"
    # every parameter is a view of the one array read
    assert len({id(p.data.base) for _, p in store.items()}) == 1
