"""Training orchestration: the codec first, then the flow on frozen embeddings.

Each is built by kind (``codec.build``, ``flows.build``) and used through its
interface only. A run writes two checkpoints to the run directory: ``codec.mdl1``
(codec, then bond-type classifier) and ``flow.mdl1``
(restoration model plus the embedding standardizer, with the flow's
``meta()`` in the metadata header). Loading rebuilds the flow from the
stored schedule constants, not from the defaults. Wall-clock seconds for
the two phases, the parameter count, the history and the BLAS threads go
in ``training.json``, which is strict JSON: a non-finite epoch loss is ``null``.
It is a record of the run for readers; loading does not read it.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import codec, flows
from ..chem import Dataset, MolGraph
from ..diffcore import AdamState, Tape, adam_step, backward, load_params, save_params
from .config import CODEC_KINDS, FLOW_KINDS, ExperimentConfig
from .data import DatasetError, resolve_dataset


class CheckpointMismatch(ValueError):
    pass


# the arrays ``flow.mdl1`` holds besides the flow's parameters, in the
# order of Standardizer's fields
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
    history: dict = field(default_factory=dict)

    def codec_params(self) -> list:
        """Named parameters of the codec, then of the bond-type model."""
        return self.codec.named_params() + self.edge_type.named_params()

    @property
    def param_count(self) -> int:
        """Trainable scalars of the codec, the bond-type model and the flow."""
        return sum(p.data.size for _, p in self.codec_params() + self.flow.named_params())

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


# A run's random streams: stream k is child k of SeedSequence(cfg.seed). A child
# does not depend on how many are spawned, so appending a name keeps the others.
STREAMS = ("init", "subset", "ae", "flow", "generate", "latent")


def run_streams(seed: int) -> dict[str, np.random.Generator]:
    """A fresh generator for each of a run's named streams."""
    children = np.random.SeedSequence(seed).spawn(len(STREAMS))
    return {name: np.random.default_rng(c) for name, c in zip(STREAMS, children)}


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


def _untrained(cfg: ExperimentConfig, dataset: Dataset, rngs: dict) -> TrainedPipeline:
    """Freshly initialised codec parts on the selected subset; no flow yet."""
    return TrainedPipeline(
        cfg=cfg, dataset=dataset, subset=_select_subset(dataset, cfg, rngs["subset"]),
        codec=codec.build(CODEC_KINDS[cfg.experiment], cfg.latent_z, rngs["init"]),
        edge_type=codec.EdgeTypeModel(rngs["init"]), flow=None, standardizer=None)


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
    rngs = run_streams(cfg.seed)
    pipe = _untrained(cfg, dataset, rngs)
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
    ae_hist = _train_loop(pipe.codec.loss, mols, cfg.epochs, ae_params, cfg.lr, rngs["ae"])
    et_params = _param_list(pipe.edge_type.named_params())
    et_hist = _train_loop(lambda m: codec.edge_type_loss(pipe.edge_type, m),
                          pipe.subset, cfg.epochs, et_params, cfg.lr, rngs["ae"])
    pipe.ae_seconds = time.perf_counter() - t0

    # phase 2: flow on frozen-encoder embeddings
    clouds = [pipe.codec.encode(m) for m in mols]
    pipe.standardizer = Standardizer.fit(np.concatenate(clouds, axis=0))
    flow_data = [pipe.standardizer.apply(c) for c in clouds]
    pipe.flow = flows.build(FLOW_KINDS[cfg.experiment], pipe.codec.width, rngs["init"],
                            flow_data)
    flow_params = _param_list(pipe.flow.named_params())

    t0 = time.perf_counter()
    flow_hist = _train_loop(lambda c: pipe.flow.loss(c, rngs["flow"]), flow_data,
                            cfg.epochs, flow_params, cfg.lr, rngs["flow"])
    pipe.flow_seconds = time.perf_counter() - t0

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
    flow_named.update(zip(STANDARDIZER_KEYS, (pipe.standardizer.mean, pipe.standardizer.std)))
    save_params(run_dir / "flow.mdl1", flow_named, meta={**codec_meta, **pipe.flow.meta()})

    record = {
        "config": asdict(cfg),
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


def load_pipeline(cfg: ExperimentConfig, dataset: Dataset | None = None) -> TrainedPipeline:
    """Rebuild a pipeline from the checkpoints in cfg.run_dir.

    The flow is rebuilt with the schedule constants stored in ``flow.mdl1``;
    a constant missing there, or one the flow does not have (as a name or,
    for a fixed constant, as a value), raises :class:`CheckpointMismatch`,
    as does a missing standardizer array. Only the two checkpoints are
    read: ``training.json`` is not, so the loaded pipeline's seconds and
    history stay empty.
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

    rngs = run_streams(cfg.seed)
    # the initial weights are overwritten from the checkpoints
    pipe = _untrained(cfg, dataset, rngs)
    _restore(pipe.codec_params(), codec_stored, codec_path)

    flow_stored, flow_meta = load_params(flow_path)
    kind = FLOW_KINDS[cfg.experiment]
    if flow_meta.get("flow") != kind:
        raise CheckpointMismatch(
            f"{run_dir}: flow checkpoint is {flow_meta.get('flow')}, config wants {kind}")
    for key in STANDARDIZER_KEYS:
        if key not in flow_stored:
            raise CheckpointMismatch(f"{flow_path}: missing parameter {key}")
    pipe.standardizer = Standardizer(*(flow_stored[key] for key in STANDARDIZER_KEYS))
    # lazy: only a flow that reads them (heat) pays for encoding the subset
    clouds = standardized_clouds(pipe)
    constants = {k: v for k, v in flow_meta.items()
                 if k not in ("flow", "experiment", "latent_z")}
    try:
        pipe.flow = flows.build(kind, pipe.codec.width, rngs["init"], clouds, **constants)
    except (TypeError, flows.FixedConstant) as exc:  # a constant this flow does not have
        raise CheckpointMismatch(f"{flow_path}: {exc}") from None
    missing = sorted(pipe.flow.meta().keys() - flow_meta.keys())
    if missing:
        raise CheckpointMismatch(f"{flow_path}: flow meta lacks {missing}")
    _restore(pipe.flow.named_params(), flow_stored, flow_path, extra=STANDARDIZER_KEYS)
    return pipe
