"""Where the traced run wraps ``moldiff``, and the per-layer metrics it reads.

Every per-layer metric is reported by every traced run. A layer that the
workload's timed rounds never call reads 0; on ``score`` that shows
``diffcore``, ``gnn`` and ``flows`` idle. Times are the median inclusive
duration per call unless the name says per molecule; per-molecule figures
are totals divided by molecules (train: molecule-epochs).
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable, Tracer

GNN_CLASSES = ("PnaLayer", "GcnStack", "GraphConvLayer", "FlowFieldNet")
FIELD_SPANS = ("flows.GnnRestorer.predict_noise", "flows.HeatModel.delta",
               "gnn.FlowFieldNet.untaped")

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("harness.ae_phase_ms_per_mol", "ms/mol", "lower"),
    ("harness.flow_phase_ms_per_mol", "ms/mol", "lower"),
    ("codec.reconstruction_loss_us", "us", "lower"),
    ("codec.input_space_loss_us", "us", "lower"),
    ("codec.edge_type_loss_us", "us", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.input_space_decode_us", "us", "lower"),
    ("codec.predict_edge_types_us", "us", "lower"),
    ("codec.encode_t_calls_per_gen_call", "count", "lower"),
    ("codec.edges_kept_ratio", "ratio", "higher"),
    ("flows.ddpm_loss_us", "us", "lower"),
    ("flows.heat_loss_us", "us", "lower"),
    ("flows.fm_loss_us", "us", "lower"),
    ("flows.ddpm_generate_ms_per_mol.gnn_gaussian", "ms/mol", "lower"),
    ("flows.ddpm_generate_ms_per_mol.input_space_gaussian", "ms/mol", "lower"),
    ("flows.heat_generate_ms_per_mol", "ms/mol", "lower"),
    ("flows.fm_generate_ms_per_mol", "ms/mol", "lower"),
    ("flows.finite_cloud_ratio", "ratio", "higher"),
    *[(f"gnn.{c}_us.{mode}", "us", "lower") for c in GNN_CLASSES for mode in ("taped", "untaped")],
    ("gnn.field_evals_per_mol.gnn_gaussian", "count", "lower"),
    ("gnn.field_evals_per_mol.input_space_gaussian", "count", "lower"),
    ("gnn.field_evals_per_mol.heat_1d", "count", "lower"),
    ("gnn.field_evals_per_mol.flow_matching", "count", "lower"),
    ("diffcore.backward_us", "us", "lower"),
    ("diffcore.adam_step_us", "us", "lower"),
    ("diffcore.tape_ops_per_step", "count", "lower"),
    ("diffcore.tensors_per_train_mol", "count", "lower"),
    ("diffcore.save_params_ms", "ms", "lower"),
    ("diffcore.ode_integrate_ms", "ms", "lower"),
    ("diffcore.tensors_per_gen_mol", "count", "lower"),
    ("chem.load_dataset_us_per_mol", "us/mol", "lower"),
    ("chem.parse_smiles_us", "us", "lower"),
    ("chem.check_validity_us", "us", "lower"),
    ("chem.canonical_key_us", "us", "lower"),
    ("harness.evaluate_us_per_mol", "us/mol", "lower"),
    ("chem.synthetic_molecules_ms", "ms", "lower"),
    ("codec.recon_exact_ratio", "ratio", "higher"),
    ("harness.valid_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def install(tracer: Tracer) -> None:
    """Wrap each layer boundary where its caller looks the name up."""
    from moldiff import chem, codec, flows, gnn, harness
    from moldiff.chem import dataset as chem_dataset
    from moldiff.diffcore import tensor
    from moldiff.harness import data, metrics, train

    counts = tracer.counts

    def tape_ops(args, _out):
        counts["tape_ops"] += len(args[0])

    def edges(args, out):
        counts["edges_decoded"] += len(args[1].edges)
        counts["edges_typed"] += len(out[0].bonds)

    def finite(_args, cloud):
        counts["clouds"] += 1
        counts["clouds_finite"] += bool(np.all(np.isfinite(cloud)))

    w = tracer.wrap
    w(harness, "train_experiment", "harness.train_experiment")
    w(harness, "generate_molecules", "harness.generate_molecules")
    w(harness, "evaluate", "harness.evaluate")
    w(train, "backward", "diffcore.backward", after=tape_ops)
    w(train, "adam_step", "diffcore.adam_step")
    w(train, "save_params", "diffcore.save_params")
    for fn in ("reconstruction_loss", "input_space_loss", "edge_type_loss", "decode",
               "input_space_decode", "encode_t"):
        w(codec, fn, f"codec.{fn}")
    w(codec, "predict_edge_types", "codec.predict_edge_types", after=edges)
    for fn in ("ddpm_loss", "heat_loss", "fm_loss", "ode_integrate"):
        w(flows, fn, f"flows.{fn}")
    for fn in ("ddpm_generate", "heat_generate", "fm_generate"):
        w(flows, fn, f"flows.{fn}", after=finite)
    w(flows.GnnRestorer, "predict_noise", "flows.GnnRestorer.predict_noise")
    w(flows.HeatModel, "delta", "flows.HeatModel.delta")
    for cls in GNN_CLASSES:
        tracer.wrap_tape_split(getattr(gnn, cls), "__call__", f"gnn.{cls}", tensor)
    w(chem, "load_dataset", "chem.load_dataset")
    w(chem, "parse_smiles", "chem.parse_smiles")
    w(chem_dataset, "parse_smiles", "chem.parse_smiles")
    w(chem_dataset, "canonical_key", "chem.canonical_key")
    w(metrics, "check_validity", "chem.check_validity")
    w(metrics, "canonical_key", "chem.canonical_key")
    w(data, "synthetic_molecules", "chem.synthetic_molecules")
    w(chem, "synthetic_molecules", "chem.synthetic_molecules")
    tracer.count_calls(tensor.Tensor, "__init__", "tensors")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, workload, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric, read from the spans of the timed rounds."""
    t = SpanTable(tracer)
    wl = f"{workload.name}."
    c = tracer.counts
    m: dict[str, float] = {}

    def work(prefix: str) -> int:
        return sum(tracer.work[i] for i in t.roots(prefix))

    def tensors(prefix: str) -> int:
        return sum(tracer.tensors[i] for i in t.roots(prefix))

    def total(name: str, prefix: str) -> float:
        return float(t.durations(name, prefix).sum())

    ms = getattr(workload, "phase_ms", {})
    m["harness.ae_phase_ms_per_mol"] = float(np.median(ms["ae"])) if ms.get("ae") else 0.0
    m["harness.flow_phase_ms_per_mol"] = float(np.median(ms["flow"])) if ms.get("flow") else 0.0
    for fn in ("reconstruction_loss", "input_space_loss", "edge_type_loss", "decode",
               "input_space_decode", "predict_edge_types"):
        m[f"codec.{fn}_us"] = t.median(f"codec.{fn}", wl)
    m["codec.encode_t_calls_per_gen_call"] = _ratio(
        t.count("codec.encode_t", "generate."), t.count("harness.generate_molecules", "generate."))
    m["codec.edges_kept_ratio"] = _ratio(c["edges_typed"], c["edges_decoded"])
    for fn in ("ddpm_loss", "heat_loss", "fm_loss"):
        m[f"flows.{fn}_us"] = t.median(f"flows.{fn}", wl)
    for exp in ("gnn_gaussian", "input_space_gaussian"):
        m[f"flows.ddpm_generate_ms_per_mol.{exp}"] = 1e3 * _ratio(
            total("flows.ddpm_generate", f"generate.{exp}"), work(f"generate.{exp}"))
    m["flows.heat_generate_ms_per_mol"] = 1e3 * _ratio(
        total("flows.heat_generate", "generate.heat_1d"), work("generate.heat_1d"))
    m["flows.fm_generate_ms_per_mol"] = 1e3 * _ratio(
        total("flows.fm_generate", "generate.flow_matching"), work("generate.flow_matching"))
    m["flows.finite_cloud_ratio"] = _ratio(c["clouds_finite"], c["clouds"])
    for cls in GNN_CLASSES:
        for mode in ("taped", "untaped"):
            m[f"gnn.{cls}_us.{mode}"] = t.median(f"gnn.{cls}.{mode}", wl)
    for exp in ("gnn_gaussian", "input_space_gaussian", "heat_1d", "flow_matching"):
        evals = sum(t.count(name, f"generate.{exp}") for name in FIELD_SPANS)
        m[f"gnn.field_evals_per_mol.{exp}"] = _ratio(evals, work(f"generate.{exp}"))
    m["diffcore.backward_us"] = t.median("diffcore.backward", wl)
    m["diffcore.adam_step_us"] = t.median("diffcore.adam_step", wl)
    m["diffcore.tape_ops_per_step"] = _ratio(c["tape_ops"], t.count("diffcore.backward", wl))
    m["diffcore.tensors_per_train_mol"] = _ratio(tensors("train."), work("train."))
    m["diffcore.save_params_ms"] = t.median("diffcore.save_params", wl, scale=1e3)
    m["diffcore.ode_integrate_ms"] = t.median("flows.ode_integrate", wl, scale=1e3)
    m["diffcore.tensors_per_gen_mol"] = _ratio(tensors("generate."), work("generate."))
    m["chem.load_dataset_us_per_mol"] = 1e6 * _ratio(total("chem.load_dataset", wl),
                                                     work("score.load"))
    for fn in ("parse_smiles", "check_validity", "canonical_key"):
        m[f"chem.{fn}_us"] = t.median(f"chem.{fn}", wl)
    m["harness.evaluate_us_per_mol"] = 1e6 * _ratio(total("harness.evaluate", wl),
                                                    work("score.evaluate"))
    m["chem.synthetic_molecules_ms"] = t.median("chem.synthetic_molecules", "setup", scale=1e3)
    m["codec.recon_exact_ratio"] = workload.quality.get("codec.recon_exact_ratio", 0.0)
    m["harness.valid_ratio"] = workload.quality.get("harness.valid_ratio", 0.0)
    m["trace.overhead_pct"] = overhead_pct
    missing = {name for name, _, _ in PER_LAYER} ^ m.keys()
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return m


def self_time_table(tracer: Tracer, workload_name: str, top: int = 20) -> list[str]:
    """The spans of the timed rounds with the most self time."""
    rows = SpanTable(tracer).self_time_by_name(f"{workload_name}.")
    total = sum(s for _, s in rows.values()) or 1.0
    lines = [f"{'span':<44} {'calls':>9} {'self s':>9} {'share':>7}"]
    for name, (calls, secs) in sorted(rows.items(), key=lambda kv: -kv[1][1])[:top]:
        lines.append(f"{name:<44} {calls:>9} {secs:>9.3f} {100 * secs / total:>6.1f}%")
    return lines
