"""The three workloads: ``train``, ``generate`` and ``score``.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), computes the expected outcomes apart from the program in
``reference`` (untimed), and then runs identical rounds of public-API calls.
Only the API calls are timed; each call's output is checked right after its
clock stops, and a call that raises or fails a check counts as failed.
``final_checks`` runs once after the timed rounds.

The four experiments leave out ``egnn_gaussian``: it cannot train on
one-atom molecules and its samples go non-finite (see CHANGES.md).
"""

from __future__ import annotations

import contextlib
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import speed
from spans import Patches
from moldiff import chem, codec, flows, harness

EXPERIMENTS = ("gnn_gaussian", "input_space_gaussian", "heat_1d", "flow_matching")


@dataclass
class RoundResult:
    work: int = 0             # molecules (train: molecule-epochs; score: SMILES lines)
    seconds: float = 0.0      # wall time inside the timed API calls
    ref_seconds: float = 0.0  # the same in reference seconds (see speed.py)
    attempted: int = 0
    failed: int = 0


def _no_span(name: str, work: int = 0):
    return contextlib.nullcontext()


def _child_seed(seed: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *path])


def stratified_dataset(pool: list, quota: tuple[tuple[int, int], ...], source: str) -> chem.Dataset:
    """The first ``k`` molecules of each size ``n`` in ``quota`` ((n, k) pairs).

    A fixed size make-up keeps the cost of a round nearly the same for every
    seed, since the decoders and restorers run over complete graphs.
    """
    mols = []
    for n, k in quota:
        picked = [m for m in pool if m.n == n][:k]
        if len(picked) < k:
            raise RuntimeError(f"pool holds {len(picked)} molecules of size {n}, need {k}")
        mols.extend(picked)
    return chem.Dataset(molecules=mols, canonical_keys={chem.canonical_key(m) for m in mols},
                        size_histogram=dict(Counter(m.n for m in mols)), skipped=0,
                        source=source)


def pipeline_arrays(pipe) -> dict[str, np.ndarray]:
    """Every trained array of a pipeline, by name."""
    named = []
    for part in (pipe.graph_ae, pipe.atom_ae, pipe.input_ae, pipe.edge_type, pipe.flow):
        if part is not None:
            named.extend(part.named_params())
    out = {name: p.data for name, p in named}
    out["standardizer.mean"] = pipe.standardizer.mean
    out["standardizer.std"] = pipe.standardizer.std
    return out


def array_mismatches(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    if a.keys() != b.keys():
        return [f"parameter names differ: {sorted(a.keys() ^ b.keys())}"]
    return [k for k in a if a[k].shape != b[k].shape or not np.array_equal(a[k], b[k])]


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, seed: int, scratch: Path, sizes):
        self.seed = seed
        self.scratch = scratch
        self.sizes = sizes
        self.quality: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed expectations computed with :mod:`checks`."""

    def round(self, span=_no_span) -> RoundResult:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def quality_checks(self) -> None:
        """Untimed quality figures for the traced run."""

    def _call(self, result: RoundResult, fn, *args):
        """Time one API call; on an exception count it failed and return None."""
        result.attempted += 1
        try:
            out, wall, ref = speed.timed(fn, *args)
        except Exception:  # the benchmark keeps going and reports the failure
            result.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        result.seconds += wall
        result.ref_seconds += ref
        return out

    def _verdict(self, result: RoundResult, what: str, problems: list[str]) -> bool:
        if problems:
            result.failed += 1
            print(f"check failed: {self.name} {what}: {problems[:5]}", file=sys.stderr)
        return not problems


# ---------------------------------------------------------------------------
# train


@dataclass(frozen=True)
class TrainSizes:
    pool: int = 1000                                   # synthetic_dataset(pool, seed)
    quota: tuple = ((9, 10), (8, 4), (7, 2))           # (atoms, molecules) trained on
    epochs: int = 2
    held_out: int = 20                                 # for the reconstruction rate


class Train(Workload):
    """Repeated ``train_experiment`` calls on a prebuilt, size-stratified set."""

    name = "train"
    work_unit = "molecule-epochs"

    def setup(self) -> None:
        s = self.sizes
        self.pool = harness.synthetic_dataset(s.pool, seed=self.seed)
        self.dataset = stratified_dataset(self.pool.molecules, s.quota,
                                          f"stratified:{self.pool.source}")
        self.cfgs = {e: harness.ExperimentConfig(
            experiment=e, latent_z=2, epochs=s.epochs, seed=self.seed,
            output_dir=str(self.scratch / "train")) for e in EXPERIMENTS}
        self.first: dict[str, tuple[dict, dict]] = {}
        self.last: dict = {}
        self.phase_ms: dict[str, list[float]] = {"ae": [], "flow": []}

    def round(self, span=_no_span) -> RoundResult:
        res = RoundResult()
        for exp in EXPERIMENTS:
            cfg = self.cfgs[exp]
            mol_epochs = len(self.dataset) * cfg.epochs
            with span(f"train.{exp}", mol_epochs):
                pipe = self._call(res, harness.train_experiment, cfg, self.dataset)
            if pipe is None or not self._verdict(res, exp, self._check(exp, pipe)):
                continue
            res.work += mol_epochs
            self.phase_ms["ae"].append(1e3 * pipe.ae_seconds / mol_epochs)
            self.phase_ms["flow"].append(1e3 * pipe.flow_seconds / mol_epochs)
            self.last[exp] = pipe
        return res

    def _check(self, exp: str, pipe) -> list[str]:
        h = pipe.history
        problems = [f"{k} loss not finite" for k in ("ae", "edge_type", "flow")
                    if len(h[k]) != self.cfgs[exp].epochs or not np.all(np.isfinite(h[k]))]
        for k in ("ae", "edge_type"):
            if not h[k][-1] < h[k][0]:
                problems.append(f"{k} loss did not fall: {h[k]}")
        for f in ("codec.mdl1", "flow.mdl1"):
            if not (self.cfgs[exp].run_dir / f).is_file():
                problems.append(f"{f} not written")
        arrays = pipeline_arrays(pipe)
        if exp not in self.first:
            self.first[exp] = (h, arrays)
        else:
            h0, arrays0 = self.first[exp]
            if h != h0:
                problems.append("history differs from the first training of this config")
            problems.extend(f"parameter {k} differs from the first training"
                            for k in array_mismatches(arrays0, arrays))
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        for exp in EXPERIMENTS:
            loaded = harness.load_pipeline(self.cfgs[exp], self.dataset)
            problems.extend(f"{exp}: load_pipeline changed {k}" for k in
                            array_mismatches(pipeline_arrays(self.last[exp]),
                                             pipeline_arrays(loaded)))
        return problems

    def quality_checks(self) -> None:
        trained = {id(m) for m in self.dataset.molecules}
        held = [m for m in self.pool.molecules if id(m) not in trained and m.n >= 2]
        held = held[:self.sizes.held_out]
        exact = total = 0
        for pipe in self.last.values():
            for m in held:
                if pipe.input_ae is not None:
                    latent = pipe.input_ae.encode_t(codec.build_edges_as_nodes(m)).data
                    cand = codec.input_space_decode(pipe.input_ae, latent, m.n)
                else:
                    cloud = codec.encode(pipe.graph_ae, pipe.atom_ae, m)
                    cand = codec.decode(pipe.graph_ae, pipe.atom_ae, cloud)
                mol, _ = codec.predict_edge_types(pipe.edge_type, cand)
                exact += checks.isomorphic(mol, m)
                total += 1
        self.quality["codec.recon_exact_ratio"] = exact / max(total, 1)


# ---------------------------------------------------------------------------
# generate


@dataclass(frozen=True)
class GenerateSizes:
    pool: int = 1000
    quota: tuple = ((9, 14), (8, 4), (7, 2))
    epochs: int = 2
    # molecules per generate_molecules call, sized so each flow takes a
    # similar share of a round (per-molecule cost differs about 15-fold)
    counts: tuple = (("gnn_gaussian", 24), ("input_space_gaussian", 4),
                     ("heat_1d", 64), ("flow_matching", 4))
    check_counts: tuple = (("gnn_gaussian", 6), ("input_space_gaussian", 2),
                           ("heat_1d", 6), ("flow_matching", 2))


class Generate(Workload):
    """Repeated ``generate_molecules`` calls on briefly trained pipelines."""

    name = "generate"
    work_unit = "molecules"

    def setup(self) -> None:
        s = self.sizes
        pool = harness.synthetic_dataset(s.pool, seed=self.seed)
        self.dataset = stratified_dataset(pool.molecules, s.quota, f"stratified:{pool.source}")
        self.cfgs, self.pipes = {}, {}
        for exp in EXPERIMENTS:
            cfg = harness.ExperimentConfig(experiment=exp, latent_z=2, epochs=s.epochs,
                                           seed=self.seed,
                                           output_dir=str(self.scratch / "generate"))
            self.cfgs[exp] = cfg
            self.pipes[exp] = harness.train_experiment(cfg, self.dataset)
        self.rngs = {e: np.random.default_rng(_child_seed(self.seed, 1, k))
                     for k, e in enumerate(EXPERIMENTS)}
        self.generated = self.valid = 0

    def round(self, span=_no_span) -> RoundResult:
        res = RoundResult()
        for exp, count in self.sizes.counts:
            with span(f"generate.{exp}", count):
                mols = self._call(res, harness.generate_molecules, self.pipes[exp], count,
                                  self.rngs[exp])
            if mols is None or not self._verdict(res, exp, self._check(exp, mols, count)):
                continue
            res.work += count
        return res

    def _check(self, exp: str, mols, count: int) -> list[str]:
        if len(mols) != count:
            return [f"asked for {count} molecules, got {len(mols)}"]
        sizes = self.pipes[exp].dataset.size_histogram
        problems = [f"{m.n} atoms is not a training size" for m in mols if m.n not in sizes]
        problems.extend(f"atoms {checks.over_valence_atoms(m)} over valence"
                        for m in mols if checks.over_valence_atoms(m))
        self.generated += len(mols)
        self.valid += sum(checks.is_valid(m) for m in mols)
        return problems

    def final_checks(self) -> list[str]:
        problems = []
        for k, (exp, count) in enumerate(self.sizes.check_counts):
            seed = _child_seed(self.seed, 2, k)
            clouds: list[np.ndarray] = []
            with capture_clouds(clouds):
                first = harness.generate_molecules(self.pipes[exp], count, np.random.default_rng(seed))
            again = harness.generate_molecules(self.pipes[exp], count, np.random.default_rng(seed))
            loaded = harness.load_pipeline(self.cfgs[exp], self.dataset)
            reloaded = harness.generate_molecules(loaded, count, np.random.default_rng(seed))
            if len(clouds) != count or not all(np.all(np.isfinite(c)) for c in clouds):
                problems.append(f"{exp}: a sampled cloud is not finite")
            if again != first:
                problems.append(f"{exp}: the same generator seed gave other molecules")
            if reloaded != first:
                problems.append(f"{exp}: molecules differ after load_pipeline")
        return problems

    def quality_checks(self) -> None:
        self.quality["harness.valid_ratio"] = self.valid / max(self.generated, 1)


@contextlib.contextmanager
def capture_clouds(out: list):
    """Collect every cloud the three samplers return while active."""
    def keep(fn):
        def wrapped(*args, **kwargs):
            cloud = fn(*args, **kwargs)
            out.append(cloud)
            return cloud
        return wrapped

    patches = Patches()
    for name in ("ddpm_generate", "heat_generate", "fm_generate"):
        patches.set(flows, name, keep(getattr(flows, name)))
    try:
        yield out
    finally:
        patches.undo()


# ---------------------------------------------------------------------------
# score


@dataclass(frozen=True)
class ScoreSizes:
    training: int = 600    # lines in the training SMILES file
    novel: int = 160       # other synthetic molecules (some may repeat training ones)
    copies: int = 120      # training molecules written in another atom order
    pairs: int = 60        # two molecules joined by '.'
    over: int = 60         # one atom pushed past its valence with extra F atoms


def disjoint_union(a, b):
    shift = a.n
    bonds = set(a.bonds) | {(i + shift, j + shift, t) for i, j, t in b.bonds}
    return chem.MolGraph(a.atoms + b.atoms, frozenset(bonds))


def over_valence(m, atom: int):
    """``m`` with single-bonded F atoms added to ``atom`` until it exceeds
    its valence by one."""
    used = sum(t.half_order for i, j, t in m.bonds if atom in (i, j))
    extra = (2 * m.atoms[atom].max_valence - used) // 2 + 1
    atoms = m.atoms + (chem.Element.F,) * extra
    bonds = set(m.bonds) | {(atom, m.n + k, chem.BondType.SINGLE) for k in range(extra)}
    return chem.MolGraph(atoms, frozenset(bonds))


class Score(Workload):
    """The ``moldiff evaluate`` path: load a training file, parse and score
    a candidate file."""

    name = "score"
    work_unit = "SMILES lines"

    def setup(self) -> None:
        s = self.sizes
        rng = np.random.default_rng(_child_seed(self.seed, 3))
        self.training = chem.synthetic_molecules(s.training, seed=self.seed)
        novel = chem.synthetic_molecules(s.novel, seed=int(_child_seed(self.seed, 4).generate_state(1)[0]))
        cands: list[tuple[str, object, str]] = []   # (kind, graph, SMILES)
        for m in novel:
            cands.append(("novel", m, chem.write_smiles(m)))
        for i in rng.integers(len(self.training), size=s.copies):
            m = self.training[int(i)]
            copy = m.permuted([int(p) for p in rng.permutation(m.n)])
            cands.append(("copy", copy, chem.write_smiles(copy)))
        for _ in range(s.pairs):
            a = novel[int(rng.integers(len(novel)))]
            b = self.training[int(rng.integers(len(self.training)))]
            cands.append(("pair", disjoint_union(a, b),
                          chem.write_smiles(a) + "." + chem.write_smiles(b)))
        for _ in range(s.over):
            m = novel[int(rng.integers(len(novel)))]
            bad = over_valence(m, int(rng.integers(m.n)))
            cands.append(("over", bad, chem.write_smiles(bad)))
        self.candidates = [cands[int(i)] for i in rng.permutation(len(cands))]
        self.train_path = self.scratch / "training.smi"
        self.cand_path = self.scratch / "candidates.smi"
        self.train_path.write_text(
            "# training molecules\n" + "\n".join(chem.write_smiles(m) for m in self.training) + "\n",
            encoding="utf-8")
        self.cand_path.write_text(
            "# candidates\n" + "\n".join(c[2] for c in self.candidates) + "\n", encoding="utf-8")

    def reference(self) -> None:
        expect_valid = {"novel": True, "copy": True, "pair": False, "over": False}
        for kind, g, _ in self.candidates:
            if checks.is_valid(g) != expect_valid[kind]:
                raise RuntimeError(f"candidate generator made a {kind} with faults {checks.validity_faults(g)}")
        valid = [g for kind, g, _ in self.candidates if expect_valid[kind]]
        classes = checks.iso_classes(valid)
        training_pool = checks.bucket(self.training)
        novel = sum(not checks.contains_isomorph(training_pool, valid[c[0]]) for c in classes)
        self.expected = {
            "validity": 100.0 * len(valid) / len(self.candidates),
            "uniqueness": 100.0 * len(classes) / len(valid),
            "novelty": 100.0 * novel / len(classes),
        }
        self.training_classes = len(checks.iso_classes(self.training))
        self.lines = len(self.training) + len(self.candidates)

    def _score(self, training):
        cands = []
        for line in self.cand_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                cands.append(chem.parse_smiles(line))
        return harness.evaluate(cands, training)

    def round(self, span=_no_span) -> RoundResult:
        res = RoundResult()
        with span("score.load", len(self.training)):
            ds = self._call(res, chem.load_dataset, self.train_path)
        if ds is None or not self._verdict(res, "load_dataset", self._check_load(ds)):
            return res
        with span("score.evaluate", len(self.candidates)):
            report = self._call(res, self._score, ds)
        if report is not None and self._verdict(res, "evaluate", self._check_report(report)):
            res.work = self.lines
        return res

    def _check_load(self, ds) -> list[str]:
        problems = []
        if len(ds) != len(self.training) or ds.skipped:
            problems.append(f"loaded {len(ds)} of {len(self.training)}, skipped {ds.skipped}")
        if len(ds.canonical_keys) != self.training_classes:
            problems.append(f"{len(ds.canonical_keys)} canonical keys for "
                            f"{self.training_classes} isomorphism classes")
        return problems

    def _check_report(self, report) -> list[str]:
        problems = [f"{k} {getattr(report, k)} != {v}" for k, v in self.expected.items()
                    if abs(getattr(report, k) - v) > 1e-9]
        if report.count != len(self.candidates):
            problems.append(f"scored {report.count} of {len(self.candidates)}")
        return problems

    def final_checks(self) -> list[str]:
        return [f"write/parse round trip changed {chem.write_smiles(m)}"
                for m in self.training
                if not checks.isomorphic(chem.parse_smiles(chem.write_smiles(m)), m)]


WORKLOADS = {"train": (Train, TrainSizes()), "generate": (Generate, GenerateSizes()),
             "score": (Score, ScoreSizes())}
