"""Harness round trips: train -> checkpoint -> load -> generate, at tiny sizes."""

import contextlib
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from moldiff import codec, flows, gnn, harness
from moldiff.chem import Dataset, parse_smiles, write_smiles
from moldiff.diffcore import load_params, save_params
from moldiff.diffcore import tensor as T
from moldiff.harness.generate import NegativeCount, sample_clouds

from conftest import ancestral_generate

pytestmark = pytest.mark.slow

EXPERIMENTS = ("gnn_gaussian", "input_space_gaussian", "heat_1d", "flow_matching")
ALL_EXPERIMENTS = (*EXPERIMENTS, "egnn_gaussian")
SAMPLERS = {"gnn_gaussian": "ddpm_generate", "input_space_gaussian": "ddpm_generate",
            "heat_1d": "heat_generate", "flow_matching": "fm_generate"}
COUNT = 3


def small_dataset(mols) -> Dataset:
    return Dataset.of(mols, source="test")


def test_each_named_stream_is_its_child_of_the_seed():
    """Stream k of a run is child k of ``SeedSequence(seed)``, as it was
    when the table was shorter, so every run keeps its draws."""
    assert harness.train.STREAMS == ("init", "subset", "ae", "flow", "generate", "latent")
    for seed in (0, 3):
        rngs = harness.train.run_streams(seed)
        children = np.random.SeedSequence(seed).spawn(len(rngs) + 2)
        for k, name in enumerate(harness.train.STREAMS):
            want = np.random.default_rng(children[k]).random(4)
            assert rngs[name].random(4).tobytes() == want.tobytes()


# Per experiment, at z = 2 (heat at 1): the trainable scalars of the codec,
# the bond-type model and the flow, and the SHA-256 of the JSON list of
# [name, shape] of their parameters in that order, the layout that
# codec.mdl1 and flow.mdl1 store. A change here breaks every checkpoint.
LAYOUTS = {
    "gnn_gaussian": ((5091, 3428, 42629),
                     "2b470fbd91170962d1666d034390192f223a5a0e18f4aec7c7c19d086eb6e8dd"),
    "egnn_gaussian": ((4323, 3428, 100228),
                      "4599db27476ac139dbcb061a6b9f85ddf9ec3e17b6751d1508cea724282842c9"),
    "input_space_gaussian": ((5003, 3428, 42115),
                             "4c6682260cb6be301a24bfd8dfd55f44a53d235863e27a58a671e352af7db700"),
    "heat_1d": ((4449, 3428, 9091),
                "45e7a9f8a970f734c25d04343fda237c45153894ccb634d9e1148c0f5ad01814"),
    "flow_matching": ((5091, 3428, 43460),
                      "8365a65880cb9d687fe39f42961ac2aa05428d5d0517e41996df294a928ac647"),
}


@pytest.mark.parametrize("exp", ALL_EXPERIMENTS)
def test_parameter_layout_is_pinned(exp):
    kinds = harness.config.EXPERIMENTS[exp]
    rng = np.random.default_rng(0)
    built = codec.build(kinds.codec, 1 if exp == "heat_1d" else 2, rng)
    parts = [built, codec.EdgeTypeModel(rng), flows.build(kinds.flow, built.width, rng)]
    counts = tuple(sum(p.data.size for _, p in part.named_params()) for part in parts)
    layout = [[name, list(p.data.shape)] for part in parts for name, p in part.named_params()]
    assert (counts, hashlib.sha256(json.dumps(layout).encode()).hexdigest()) == LAYOUTS[exp]


@pytest.fixture(scope="module")
def dataset():
    return harness.synthetic_dataset(80, seed=3)


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    pipes = {}
    for exp in ALL_EXPERIMENTS:
        cfg = harness.ExperimentConfig(experiment=exp, epochs=1, subset=12, seed=2,
                                       output_dir=str(out))
        pipes[exp] = harness.train_experiment(cfg, dataset)
    return pipes


def smiles(pipe, seed: int = 9) -> list[str]:
    mols = harness.generate_molecules(pipe, COUNT, np.random.default_rng(seed))
    return [write_smiles(m) for m in mols]


def rewrite_flow_meta(cfg, **changes) -> None:
    """Update the meta of a run's flow.mdl1; a value of None drops the key."""
    path = cfg.run_dir / "flow.mdl1"
    named, meta = load_params(path)
    meta.update(changes)
    save_params(path, named, meta={k: v for k, v in meta.items() if v is not None})


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_loaded_pipeline_generates_the_same(exp, trained, dataset):
    pipe = trained[exp]
    assert smiles(harness.load_pipeline(pipe.cfg, dataset)) == smiles(pipe)


@pytest.mark.parametrize("exp", ALL_EXPERIMENTS)
def test_generation_same_without_frozen_blocks(exp, trained, monkeypatch):
    """One block around the whole call, the samplers' blocks nested in it,
    gives the molecules that no block at all gives."""
    got = harness.generate_molecules(trained[exp], 12, np.random.default_rng(9))
    monkeypatch.setattr(T, "frozen_params", contextlib.nullcontext)
    assert harness.generate_molecules(trained[exp], 12, np.random.default_rng(9)) == got


@pytest.mark.parametrize("exp", ALL_EXPERIMENTS)
def test_generation_resolves_each_plan_once(exp, trained, monkeypatch):
    """Sampling, decoding and bond typing run in one block, so each stack
    is resolved once per row count for all the molecules of a call."""
    made = []
    plan = T._plan

    def counting(layers, shape, propagated):
        made.append((tuple(id(t) for layer in layers for t in layer), shape[-2:], propagated))
        return plan(layers, shape, propagated)

    monkeypatch.setattr(T, "_plan", counting)
    harness.generate_molecules(trained[exp], 12, np.random.default_rng(9))
    assert made
    assert len(made) == len(set(made))


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_one_sampler_call_per_molecule(exp, trained, monkeypatch):
    name = SAMPLERS[exp]
    calls = []
    original = getattr(flows, name)
    monkeypatch.setattr(flows, name, lambda *a: calls.append(1) or original(*a))
    smiles(trained[exp])
    assert len(calls) == COUNT


@pytest.mark.parametrize("exp", ["gnn_gaussian", "input_space_gaussian"])
def test_fifty_ddpm_steps_give_the_ancestral_smiles(exp, trained, monkeypatch):
    strided = flows.ddpm_generate
    monkeypatch.setattr(flows, "ddpm_generate", lambda *a: strided(*a, steps=50))
    got = smiles(trained[exp])
    monkeypatch.setattr(flows, "ddpm_generate", ancestral_generate)
    assert got == smiles(trained[exp])


def training_sizes(pipe) -> Counter:
    """The atom counts of the molecules whose clouds trained the flow."""
    return Counter(m.n for m in harness.train.cloud_molecules(pipe))


# 50 molecules decode in several chunks per size
@pytest.mark.parametrize("exp, count", [
    *(pytest.param(exp, 2 * COUNT, id=exp) for exp in EXPERIMENTS),
    *(pytest.param(exp, 50, id=f"{exp}-50") for exp in EXPERIMENTS)])
def test_sizes_drawn_as_per_molecule(exp, count, trained):
    """One cumulative table per call draws the sizes that ``rng.choice``
    over the training sizes drew for every molecule, and decoding in chunks
    returns the molecules in the order they were drawn."""
    pipe = trained[exp]
    rng = np.random.default_rng(9)
    want = []
    for _ in range(count):
        histogram = training_sizes(pipe)
        sizes = np.array(sorted(histogram))
        p = np.array([histogram[n] for n in sizes], dtype=np.float64)
        n = int(rng.choice(sizes, p=p / p.sum()))
        points = pipe.standardizer.invert(pipe.flow.sample(pipe.codec.rows(n), rng))
        if pipe.input_ae is not None:
            candidate = codec.input_space_decode(pipe.input_ae, points, n)
        else:
            candidate = codec.decode(pipe.graph_ae, pipe.atom_ae, points)
        want.append(write_smiles(codec.predict_edge_types(pipe.edge_type, candidate)[0]))
    got = harness.generate_molecules(pipe, count, np.random.default_rng(9))
    assert [write_smiles(m) for m in got] == want


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_decode_chunks_of_one_size(exp, trained, monkeypatch):
    pipe = trained[exp]
    assert harness.generate_molecules(pipe, 0, np.random.default_rng(9)) == []
    name = "decode_batch" if pipe.input_ae is None else "input_space_decode_batch"
    chunks = []  # (clouds, atom count) per decoder call
    original = getattr(codec, name)

    def watched(ae, *args):
        if pipe.input_ae is None:
            _, clouds = args
            n = clouds.shape[1]
        else:
            clouds, n = args
            assert clouds.shape[1] == n + n * (n - 1) // 2
        chunks.append((len(clouds), n))
        return original(ae, *args)

    monkeypatch.setattr(codec, name, watched)
    mols = harness.generate_molecules(pipe, 50, np.random.default_rng(9))
    assert len(mols) == 50
    assert all(size <= 8 for size, _ in chunks)
    drawn = Counter(m.n for m in mols)
    for n, count in drawn.items():
        sizes = [size for size, at in chunks if at == n]
        # every chunk but a size's last is full
        assert sum(sizes) == count
        assert sizes[:-1] == [8] * (len(sizes) - 1)
    assert {n for _, n in chunks} == set(drawn) <= set(training_sizes(pipe))
    assert len(drawn) >= 3


def test_sizes_are_those_of_the_training_clouds(tmp_path):
    """The input-space codec encodes no 1-atom molecule, so its flow is
    never asked for a 1-atom cloud, however many the dataset holds."""
    single = [parse_smiles(s) for s in ("C", "N", "O", "C", "F", "N", "C", "O")]
    dataset = small_dataset(harness.synthetic_dataset(16, seed=3).molecules + single)
    cfg = harness.ExperimentConfig(experiment="input_space_gaussian", epochs=1, seed=2,
                                   output_dir=str(tmp_path))
    pipe = harness.train_experiment(cfg, dataset)
    assert 1 in dataset.size_histogram and 1 not in training_sizes(pipe)
    mols = harness.generate_molecules(pipe, 40, np.random.default_rng(9))
    assert {m.n for m in mols} <= set(training_sizes(pipe))


@pytest.mark.parametrize("exp, molecules, message", [
    pytest.param("input_space_gaussian", ("C", "N", "O"), "needs molecules of 2 atoms or more",
                 id="below-min-atoms"),
    pytest.param("gnn_gaussian", (), "no molecules to train on", id="empty"),
])
def test_no_training_cloud_is_a_dataset_error(exp, molecules, message, trained):
    """A pipeline loaded with a dataset that gives the flow no cloud has no
    size to draw: it raises before drawing, and a count of 0 draws nothing."""
    dataset = small_dataset([parse_smiles(s) for s in molecules])
    pipe = harness.load_pipeline(trained[exp].cfg, dataset)
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    assert harness.generate_molecules(pipe, 0, rng) == []
    with pytest.raises(harness.DatasetError, match=message):
        harness.generate_molecules(pipe, 3, rng)
    assert rng.bit_generator.state == state  # nothing drawn


def test_heat_loaded_without_a_training_cloud_is_a_dataset_error(trained):
    """Heat's seed pool is its training clouds, so it is refused at load."""
    with pytest.raises(harness.DatasetError, match="no molecules to train on"):
        harness.load_pipeline(trained["heat_1d"].cfg, small_dataset([]))


@pytest.mark.parametrize("bad", [0, 2])
def test_non_finite_cloud_raises_where_it_is_drawn(bad, trained, monkeypatch):
    """The loop stops at the bad cloud, so the caller's generator has made
    exactly the draws of the first bad + 1 molecules."""
    pipe = trained["gnn_gaussian"]
    calls = []
    original = flows.ddpm_generate

    def sampler(*args):
        calls.append(1)
        cloud = original(*args)
        return np.full_like(cloud, np.nan) if len(calls) == bad + 1 else cloud

    monkeypatch.setattr(flows, "ddpm_generate", sampler)
    rng = np.random.default_rng(9)
    with pytest.raises(codec.NonFiniteCloud):
        harness.generate_molecules(pipe, 5, rng)
    assert len(calls) == bad + 1
    monkeypatch.setattr(flows, "ddpm_generate", original)
    drawn = np.random.default_rng(9)
    list(sample_clouds(pipe, bad + 1, drawn))
    assert rng.bit_generator.state == drawn.bit_generator.state


def count_encodes(monkeypatch) -> list:
    calls = []
    original = codec.encode_t
    monkeypatch.setattr(codec, "encode_t", lambda *a: calls.append(1) or original(*a))
    return calls


def test_heat_generation_encodes_nothing(trained, monkeypatch):
    calls = count_encodes(monkeypatch)
    smiles(trained["heat_1d"])
    assert calls == []


@pytest.mark.parametrize("exp", ALL_EXPERIMENTS)
def test_generation_caches_nothing_per_candidate(exp, trained):
    """The codec's caches are keyed by training molecules, so sampling more
    candidates does not grow them."""
    caches = [f for f in vars(codec).values() if hasattr(f, "cache_info")]
    sizes = [f.cache_info().currsize for f in caches]
    harness.generate_molecules(trained[exp], 20, np.random.default_rng(4))
    assert [f.cache_info().currsize for f in caches] == sizes


def test_loading_encodes_the_subset_only_for_heat(trained, dataset, monkeypatch):
    calls = count_encodes(monkeypatch)
    harness.load_pipeline(trained["gnn_gaussian"].cfg, dataset)
    assert calls == []
    harness.load_pipeline(trained["heat_1d"].cfg, dataset)
    assert len(calls) == len(trained["heat_1d"].subset)


def test_stored_schedule_constants_are_used(trained, dataset):
    cfg = trained["gnn_gaussian"].cfg
    rewrite_flow_meta(cfg, steps=7)
    try:
        loaded = harness.load_pipeline(cfg, dataset)
        assert loaded.flow.sched.steps == 7
        assert loaded.flow.meta()["steps"] == 7
    finally:
        rewrite_flow_meta(cfg, steps=50)


def test_heat_checkpoint_keeps_its_stored_levels(trained, dataset, monkeypatch):
    """A heat checkpoint written with 50 levels, the old default, loads and
    samples its 50 levels, not today's default."""
    cfg = trained["heat_1d"].cfg
    _, meta = load_params(cfg.run_dir / "flow.mdl1")
    rewrite_flow_meta(cfg, steps=50)
    try:
        loaded = harness.load_pipeline(cfg, dataset)
    finally:
        rewrite_flow_meta(cfg, steps=meta["steps"])
    assert loaded.flow.sched.steps == 50
    calls = []
    original = flows.HeatModel.delta
    monkeypatch.setattr(flows.HeatModel, "delta",
                        lambda self, x: calls.append(1) or original(self, x))
    smiles(loaded)
    assert len(calls) == 50 * COUNT


def test_flow_matching_checkpoint_keeps_its_stored_steps(trained, dataset, monkeypatch):
    """A flow-matching checkpoint written with 25 RK4 steps, the budget of
    unpaired training, loads and samples 25 steps (100 velocity calls per
    molecule), not today's default."""
    cfg = trained["flow_matching"].cfg
    _, meta = load_params(cfg.run_dir / "flow.mdl1")
    rewrite_flow_meta(cfg, ode_steps=25)
    try:
        loaded = harness.load_pipeline(cfg, dataset)
    finally:
        rewrite_flow_meta(cfg, ode_steps=meta["ode_steps"])
    assert loaded.flow.ode_steps == 25
    calls = []
    original = gnn.FlowFieldNet.velocity
    monkeypatch.setattr(gnn.FlowFieldNet, "velocity",
                        lambda self, t, x: calls.append(1) or original(self, t, x))
    smiles(loaded)
    assert len(calls) == 100 * COUNT


@pytest.mark.parametrize("change", [{"eta": None}, {"kl_mean": 20.0}])
def test_flow_meta_must_match_the_flow(change, trained, dataset):
    cfg = trained["heat_1d"].cfg
    _, meta = load_params(cfg.run_dir / "flow.mdl1")
    rewrite_flow_meta(cfg, **change)
    try:
        with pytest.raises(harness.CheckpointMismatch):
            harness.load_pipeline(cfg, dataset)
    finally:
        rewrite_flow_meta(cfg, **{k: meta.get(k) for k in change})


@pytest.mark.parametrize("freq", [None, 1000.0])
def test_flow_matching_meta_of_another_time_encoding_is_refused(freq, trained, dataset):
    """A checkpoint written before the encoding was recorded (no key), or
    with other time features, does not load as a different model."""
    cfg = trained["flow_matching"].cfg
    _, meta = load_params(cfg.run_dir / "flow.mdl1")
    rewrite_flow_meta(cfg, time_max_freq=freq)
    try:
        with pytest.raises(harness.CheckpointMismatch, match="time_max_freq"):
            harness.load_pipeline(cfg, dataset)
    finally:
        rewrite_flow_meta(cfg, time_max_freq=meta["time_max_freq"])


@pytest.mark.parametrize("file", ["codec.mdl1", "flow.mdl1"])
def test_a_stored_parameter_the_model_lacks_is_refused(file, trained, dataset):
    cfg = trained["gnn_gaussian"].cfg
    path = cfg.run_dir / file
    original = path.read_bytes()
    named, meta = load_params(path)
    save_params(path, {**named, "graphae.stale.W": np.zeros((2, 2))}, meta=meta)
    try:
        with pytest.raises(harness.CheckpointMismatch, match="graphae.stale.W"):
            harness.load_pipeline(cfg, dataset)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("key", ["standardizer.mean", "standardizer.std"])
def test_a_flow_checkpoint_without_its_standardizer_is_refused(key, trained, dataset):
    cfg = trained["gnn_gaussian"].cfg
    path = cfg.run_dir / "flow.mdl1"
    original = path.read_bytes()
    named, meta = load_params(path)
    del named[key]
    save_params(path, named, meta=meta)
    try:
        with pytest.raises(harness.CheckpointMismatch, match=f"missing parameter {key}"):
            harness.load_pipeline(cfg, dataset)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("record", [None, "{not json"], ids=["missing", "malformed"])
def test_loading_does_not_read_the_training_record(record, trained, dataset):
    """Without a readable ``training.json`` a run loads, reports the trained
    parameter count and generates the same molecules."""
    pipe = trained["gnn_gaussian"]
    path = pipe.cfg.run_dir / "training.json"
    original = path.read_text()
    if record is None:
        path.unlink()
    else:
        path.write_text(record)
    try:
        loaded = harness.load_pipeline(pipe.cfg, dataset)
    finally:
        path.write_text(original)
    assert loaded.param_count == pipe.param_count == json.loads(original)["param_count"]
    assert smiles(loaded) == smiles(pipe)


def test_a_negative_count_is_refused(trained):
    pipe = trained["gnn_gaussian"]
    rng = np.random.default_rng(0)
    with pytest.raises(NegativeCount):
        harness.generate_molecules(pipe, -3, rng)
    assert harness.generate_molecules(pipe, 0, rng) == []
    assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn


def test_egnn_trains_with_a_one_atom_molecule(tmp_path):
    mols = [parse_smiles(s) for s in ("C", "CO", "CCN", "C=O")]
    cfg = harness.ExperimentConfig(experiment="egnn_gaussian", epochs=1, seed=0,
                                   output_dir=str(tmp_path))
    pipe = harness.train_experiment(cfg, small_dataset(mols))
    assert len(pipe.history["flow"]) == 1
    assert np.isfinite(pipe.history["flow"][0])


def test_run_experiment_writes_its_report(dataset, tmp_path):
    cfg = harness.ExperimentConfig(experiment="gnn_gaussian", epochs=1, subset=12, seed=1,
                                   sample_count=3, repetitions=2, output_dir=str(tmp_path))
    report, _ = harness.run_experiment(cfg, dataset)
    assert json.loads((cfg.run_dir / "metrics.json").read_text()) == report.to_dict()
    assert math.isfinite(report.latent_mmd)
    assert report.count == 3 * 2  # counts accumulate over repetitions
    for pct in (report.validity, report.uniqueness, report.novelty):
        assert 0.0 <= pct <= 100.0


def test_egnn_training_stays_finite(tmp_path):
    # without normalised difference vectors this loss reached 1e36
    cfg = harness.ExperimentConfig(experiment="egnn_gaussian", latent_z=6, epochs=1,
                                   subset=12, seed=0, output_dir=str(tmp_path))
    pipe = harness.train_experiment(cfg, harness.synthetic_dataset(1000, seed=0))
    assert pipe.history["flow"][0] < 10.0
    rng = np.random.default_rng(0)
    for _ in range(3):
        assert np.all(np.isfinite(flows.ddpm_generate(pipe.flow, 9, rng)))


ONE_ATOM = ("C", "N", "O", "C")


@pytest.fixture()
def train_loops(monkeypatch):
    """Count the training loops train_experiment starts."""
    from moldiff.harness import train
    calls = []
    loop = train._train_loop

    def counting(*args):
        calls.append(1)
        return loop(*args)

    monkeypatch.setattr(train, "_train_loop", counting)
    return calls


@pytest.mark.parametrize("exp, mols, cause", [
    ("gnn_gaussian", (), "no molecules"),
    ("input_space_gaussian", ONE_ATOM, "of 2 atoms"),
])
def test_no_flow_cloud_raises_before_training(exp, mols, cause, train_loops, tmp_path):
    cfg = harness.ExperimentConfig(experiment=exp, epochs=1, seed=0, output_dir=str(tmp_path))
    with pytest.raises(harness.DatasetError, match=cause):
        harness.train_experiment(cfg, small_dataset([parse_smiles(s) for s in mols]))
    assert not train_loops


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_epoch_without_a_step_records_nan(tmp_path, monkeypatch):
    """In memory as nan; in the strict-JSON training.json as null.
    training.json also records the BLAS threads."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    # one-atom molecules have no bonds, so the bond-type model takes no step
    cfg = harness.ExperimentConfig(experiment="gnn_gaussian", epochs=2, seed=0,
                                   output_dir=str(tmp_path))
    pipe = harness.train_experiment(cfg, small_dataset([parse_smiles(s) for s in ONE_ATOM]))
    assert np.isnan(pipe.history["edge_type"]).all() and len(pipe.history["edge_type"]) == 2
    assert np.isfinite(pipe.history["ae"]).all() and np.isfinite(pipe.history["flow"]).all()
    record = json.loads((cfg.run_dir / "training.json").read_text(),
                        parse_constant=_refuse_constant)
    assert record["history"]["edge_type"] == [None, None]
    assert record["history"]["ae"] == pipe.history["ae"]
    assert record["threads"]["OMP_NUM_THREADS"] == "1"
    assert record["threads"]["MKL_NUM_THREADS"] is None
    assert "OPENBLAS_NUM_THREADS" in record["threads"]


def _trained_state(exp, dataset, out) -> list[bytes]:
    cfg = harness.ExperimentConfig(experiment=exp, epochs=1, subset=6, seed=4,
                                   output_dir=str(out))
    pipe = harness.train_experiment(cfg, dataset)
    arrays = [p.data for _, p in pipe.codec_params() + pipe.flow.named_params()]
    arrays += [pipe.standardizer.mean, pipe.standardizer.std]
    arrays += [np.array(pipe.history[k]) for k in sorted(pipe.history)]
    return [a.tobytes() for a in arrays] + [s.encode() for s in smiles(pipe)]


@pytest.mark.parametrize("exp", ALL_EXPERIMENTS)
def test_training_is_reproducible(exp, dataset, tmp_path):
    """Two trainings from one seed give the same bits: every trained array,
    the standardizer, the history and the generated SMILES."""
    first = _trained_state(exp, dataset, tmp_path / "a")
    assert _trained_state(exp, dataset, tmp_path / "b") == first
