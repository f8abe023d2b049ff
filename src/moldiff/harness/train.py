"""Training orchestration: the codec first, then the flow on frozen embeddings.

Each is built by kind (``codec.build``, ``flows.build``) and used through its
interface only. A run writes two checkpoints to the run directory: ``codec.mdl1``
(codec, then bond-type classifier) and ``flow.mdl1``
(restoration model plus the embedding standardizer, with the flow's
``meta()`` in the metadata header). Loading rebuilds the flow from the
stored schedule constants, not from the defaults. Wall-clock seconds for
the two phases, the parameter count, the history and the BLAS threads go
in ``training.json``, which is strict JSON: a non-finite epoch loss is ``null``.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .. import codec, flows
from ..chem import Dataset, MolGraph
from ..diffcore import AdamState, Tape, adam_step, backward, load_params, save_params
from .config import CODEC_KINDS, FLOW_KINDS, ExperimentConfig
from .data import DatasetError, resolve_dataset


class CheckpointMismatch(ValueError):
    pass


# the arrays ``flow.mdl1`` holds besides the flow's parameters
STANDARDIZER_KEYS = ("standardizer.mean", "standardizer.std")


@dataclass
class Standardizer:
    """Per-column affine map fitted on the training embedding rows."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "Standardizer":
        """Map rows to mean 0 and standard deviation 1 per column."""
        return cls(mean=rows.mean(axis=0), std=np.maximum(rows.std(axis=0), 1e-6))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class TrainedPipeline:
    cfg: ExperimentConfig
    dataset: Dataset
    subset: list[MolGraph]
    codec: codec.GraphCodec | codec.InputSpaceAutoencoder
    edge_type: codec.EdgeTypeModel
    flow: flows.DdpmModel | flows.HeatModel | flows.FlowField | None
    standardizer: Standardizer | None
    ae_seconds: float = 0.0
    flow_seconds: float = 0.0
    param_count: int = 0
    history: dict = field(default_factory=dict)

    def codec_params(self) -> list:
        """Named parameters of the codec, then of the bond-type model."""
        return self.codec.named_params() + self.edge_type.named_params()

    # Read-only views by codec kind, for bench/workloads.py (pipeline_arrays,
    # Train.quality_checks); nothing in the program reads them.
    @property
    def graph_ae(self) -> codec.GraphCodec | None:
        return self.codec if isinstance(self.codec, codec.GraphCodec) else None

    @property
    def atom_ae(self) -> codec.AtomTypeAutoencoder | None:
        return self.graph_ae and self.graph_ae.atoms

    @property
    def input_ae(self) -> codec.InputSpaceAutoencoder | None:
        return None if self.graph_ae else self.codec


def _spawn(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _param_list(named):
    return [p for _, p in named]


def _train_loop(loss_fn, items, epochs, params, lr, rng) -> list[float]:
    """Generic per-item training loop; returns mean loss per epoch.

    An item whose ``loss_fn`` returns None takes no step. An epoch in which
    no item took a step has no mean loss and records nan.
    """
    state = AdamState(params, lr=lr)
    epoch_losses = []
    idx = np.arange(len(items))
    for _ in range(epochs):
        rng.shuffle(idx)
        total, counted = 0.0, 0
        for i in idx:
            with Tape() as tape:
                loss = loss_fn(items[i])
                if loss is None:
                    continue
                grads = backward(tape, loss)
            adam_step(state, grads)
            total += float(loss.data)
            counted += 1
        epoch_losses.append(total / counted if counted else float("nan"))
    return epoch_losses


def _select_subset(dataset: Dataset, cfg: ExperimentConfig,
                   rng: np.random.Generator) -> list[MolGraph]:
    mols = dataset.molecules
    if cfg.subset is None or cfg.subset >= len(mols):
        return list(mols)
    picks = rng.choice(len(mols), size=cfg.subset, replace=False)
    return [mols[int(i)] for i in picks]


def _untrained(cfg: ExperimentConfig, dataset: Dataset, init_rng: np.random.Generator,
               subset_rng: np.random.Generator) -> TrainedPipeline:
    """Freshly initialised codec parts on the selected subset; no flow yet."""
    return TrainedPipeline(
        cfg=cfg, dataset=dataset, subset=_select_subset(dataset, cfg, subset_rng),
        codec=codec.build(CODEC_KINDS[cfg.experiment], cfg.latent_z, init_rng),
        edge_type=codec.EdgeTypeModel(init_rng), flow=None, standardizer=None)


def _cloud_molecules(pipe: TrainedPipeline) -> list[MolGraph]:
    """The training molecules the codec can encode: each gives the flow a cloud."""
    return [m for m in pipe.subset if m.n >= pipe.codec.min_atoms]


def standardized_clouds(pipe: TrainedPipeline) -> Iterator[np.ndarray]:
    """The flow's training clouds, as the standardizer maps them, each
    encoded when the iterator reaches it."""
    return (pipe.standardizer.apply(pipe.codec.encode(m)) for m in _cloud_molecules(pipe))


def train_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None) -> TrainedPipeline:
    """Run both training phases and write checkpoints under cfg.run_dir.

    Raises :class:`DatasetError`, before any training, when no training
    molecule would give the flow a cloud.
    """
    if dataset is None:
        dataset = resolve_dataset(cfg)
    init_rng, subset_rng, ae_rng, flow_rng, _ = _spawn(cfg.seed, 5)
    pipe = _untrained(cfg, dataset, init_rng, subset_rng)
    mols = _cloud_molecules(pipe)
    if not mols:
        if not pipe.subset:
            raise DatasetError(f"{dataset.source}: no molecules to train on")
        raise DatasetError(f"{dataset.source}: {cfg.experiment} needs molecules of"
                           f" {pipe.codec.min_atoms} atoms or more for the flow, and all"
                           f" {len(pipe.subset)} training molecules have fewer")

    # phase 1: the codec plus the bond-type classifier
    t0 = time.perf_counter()
    ae_params = _param_list(pipe.codec.named_params())
    ae_hist = _train_loop(pipe.codec.loss, mols, cfg.epochs, ae_params, cfg.lr, ae_rng)
    et_params = _param_list(pipe.edge_type.named_params())
    et_hist = _train_loop(lambda m: codec.edge_type_loss(pipe.edge_type, m),
                          pipe.subset, cfg.epochs, et_params, cfg.lr, ae_rng)
    pipe.ae_seconds = time.perf_counter() - t0

    # phase 2: flow on frozen-encoder embeddings
    clouds = [pipe.codec.encode(m) for m in mols]
    pipe.standardizer = Standardizer.fit(np.concatenate(clouds, axis=0))
    flow_data = [pipe.standardizer.apply(c) for c in clouds]
    pipe.flow = flows.build(FLOW_KINDS[cfg.experiment], pipe.codec.width, init_rng,
                            flow_data)
    flow_params = _param_list(pipe.flow.named_params())

    t0 = time.perf_counter()
    flow_hist = _train_loop(lambda c: pipe.flow.loss(c, flow_rng), flow_data,
                            cfg.epochs, flow_params, cfg.lr, flow_rng)
    pipe.flow_seconds = time.perf_counter() - t0

    pipe.param_count = sum(p.data.size for p in ae_params + et_params + flow_params)
    pipe.history = {"ae": ae_hist, "edge_type": et_hist, "flow": flow_hist}
    save_pipeline(pipe)
    return pipe


# ---------------------------------------------------------------------------
# checkpoint I/O


def _named_arrays(named) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in named}


def save_pipeline(pipe: TrainedPipeline) -> None:
    cfg = pipe.cfg
    run_dir = cfg.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)

    codec_meta = {"experiment": cfg.experiment, "latent_z": cfg.latent_z}
    save_params(run_dir / "codec.mdl1", _named_arrays(pipe.codec_params()),
                meta=codec_meta)

    flow_named = _named_arrays(pipe.flow.named_params())
    flow_named["standardizer.mean"] = pipe.standardizer.mean
    flow_named["standardizer.std"] = pipe.standardizer.std
    save_params(run_dir / "flow.mdl1", flow_named, meta={**codec_meta, **pipe.flow.meta()})

    record = {
        "config": json.loads(cfg.to_json()),
        "ae_seconds": pipe.ae_seconds,
        "flow_seconds": pipe.flow_seconds,
        "param_count": pipe.param_count,
        "history": {k: [v if np.isfinite(v) else None for v in losses]
                    for k, losses in pipe.history.items()},
        "dataset": pipe.dataset.source,
        "subset_size": len(pipe.subset),
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    (run_dir / "training.json").write_text(json.dumps(record, indent=2, allow_nan=False))


def _restore(named_params, stored: dict[str, np.ndarray], path, extra=()) -> None:
    """Load each named parameter from ``stored``. A parameter missing there,
    of another shape, or stored but neither named nor in ``extra``, raises
    :class:`CheckpointMismatch`."""
    stale = sorted(stored.keys() - {name for name, _ in named_params} - set(extra))
    if stale:
        raise CheckpointMismatch(f"{path}: stored parameters the model does not have: {stale}")
    for name, p in named_params:
        if name not in stored:
            raise CheckpointMismatch(f"{path}: missing parameter {name}")
        if stored[name].shape != p.data.shape:
            raise CheckpointMismatch(
                f"{path}: {name} has shape {stored[name].shape}, expected {p.data.shape}")
        p.data = stored[name].copy()


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _read_record(path) -> dict:
    """The fields of ``training.json`` that loading reads, checked; {} when
    there is no such file. A record that is not a JSON object, or whose
    seconds are not numbers, whose ``param_count`` is not an integer, or
    whose ``history`` is not a dict of lists of numbers or null, raises
    :class:`CheckpointMismatch`."""
    if not path.exists():
        return {}
    try:
        record = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointMismatch(f"{path}: not JSON: {exc}") from None
    if not isinstance(record, dict):
        raise CheckpointMismatch(f"{path}: not a JSON object")
    for key in ("ae_seconds", "flow_seconds"):
        if key in record and not _number(record[key]):
            raise CheckpointMismatch(f"{path}: {key} is not a number: {record[key]!r}")
    count = record.get("param_count", 0)
    if not isinstance(count, int) or isinstance(count, bool):
        raise CheckpointMismatch(f"{path}: param_count is not an integer: {count!r}")
    history = record.get("history", {})
    if not (isinstance(history, dict)
            and all(isinstance(v, list) and all(x is None or _number(x) for x in v)
                    for v in history.values())):
        raise CheckpointMismatch(f"{path}: history is not a dict of lists of numbers or null")
    return record


def load_pipeline(cfg: ExperimentConfig, dataset: Dataset | None = None) -> TrainedPipeline:
    """Rebuild a pipeline from the checkpoints in cfg.run_dir.

    The flow is rebuilt with the schedule constants stored in ``flow.mdl1``;
    a constant missing there, or one the flow does not have (as a name or,
    for a fixed constant, as a value), raises :class:`CheckpointMismatch`,
    as do a missing standardizer array and a malformed ``training.json``.
    """
    if dataset is None:
        dataset = resolve_dataset(cfg)
    run_dir = cfg.run_dir
    codec_path, flow_path = run_dir / "codec.mdl1", run_dir / "flow.mdl1"
    codec_stored, codec_meta = load_params(codec_path)
    if codec_meta.get("experiment") != cfg.experiment or codec_meta.get("latent_z") != cfg.latent_z:
        raise CheckpointMismatch(
            f"{run_dir}: checkpoint is for {codec_meta.get('experiment')}"
            f" z={codec_meta.get('latent_z')}, config wants {cfg.experiment} z={cfg.latent_z}")

    rng = np.random.default_rng(0)
    pipe = _untrained(cfg, dataset, rng, _spawn(cfg.seed, 5)[1])
    _restore(pipe.codec_params(), codec_stored, codec_path)

    flow_stored, flow_meta = load_params(flow_path)
    kind = FLOW_KINDS[cfg.experiment]
    if flow_meta.get("flow") != kind:
        raise CheckpointMismatch(
            f"{run_dir}: flow checkpoint is {flow_meta.get('flow')}, config wants {kind}")
    for key in STANDARDIZER_KEYS:
        if key not in flow_stored:
            raise CheckpointMismatch(f"{flow_path}: missing parameter {key}")
    pipe.standardizer = Standardizer(mean=flow_stored["standardizer.mean"],
                                     std=flow_stored["standardizer.std"])
    # lazy: only a flow that reads them (heat) pays for encoding the subset
    clouds = standardized_clouds(pipe)
    constants = {k: v for k, v in flow_meta.items()
                 if k not in ("flow", "experiment", "latent_z")}
    try:
        pipe.flow = flows.build(kind, pipe.codec.width, rng, clouds, **constants)
    except (TypeError, flows.FixedConstant) as exc:  # a constant this flow does not have
        raise CheckpointMismatch(f"{flow_path}: {exc}") from None
    missing = sorted(pipe.flow.meta().keys() - flow_meta.keys())
    if missing:
        raise CheckpointMismatch(f"{flow_path}: flow meta lacks {missing}")
    _restore(pipe.flow.named_params(), flow_stored, flow_path, extra=STANDARDIZER_KEYS)

    record = _read_record(run_dir / "training.json")
    pipe.ae_seconds = record.get("ae_seconds", 0.0)
    pipe.flow_seconds = record.get("flow_seconds", 0.0)
    pipe.param_count = record.get("param_count", 0)
    pipe.history = {k: [np.nan if v is None else v for v in losses]
                    for k, losses in record.get("history", {}).items()}
    return pipe
