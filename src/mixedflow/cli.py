"""Command-line surface.

Subcommands: simulate, train, infer, calibrate, evaluate, report. Every
run writes a manifest (configuration hash, seed, versions) next to its
outputs. Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, MixedFlowError, NumericError
from . import io as mfio
from .metrics import aggregate, evaluate_dataset, ingest_external_samples, split_report
from .model import load_model
from .pipeline import REFINE_MODES, infer_one, posterior_draws
from .refine import ALPHA_GRID, ConformalTable, calibrate
from .report import render_table, svg_coverage_curve, svg_scatter, write_report_csv
from .seeding import substream
from .simulate import PriorSpec, SimConfig, simulate_conjugate_dataset, simulate_dataset
from .train import TrainConfig, train

__all__ = ["main"]


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return int(parts[0]), int(parts[1])


def _alpha_list(text: str) -> tuple[float, ...]:
    return tuple(float(a) for a in text.split(","))


def _load_json(path, build, what: str):
    """build(obj) for the JSON in `path`; bad JSON or content is a DataFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"{path}: bad {what} file ({type(exc).__name__}: {exc})") from None


def _load_prior(path) -> PriorSpec:
    return _load_json(path, lambda obj: PriorSpec(
        np.asarray(obj["nu_beta"], dtype=np.float64),
        np.asarray(obj["tau_beta"], dtype=np.float64),
        np.asarray(obj.get("tau_sigma", []), dtype=np.float64),
        float(obj["tau_eps"])), "prior")


def _conformal_table(args) -> ConformalTable | None:
    """The --conformal-table, read only when --refine uses it; checked
    before any model is loaded."""
    if args.refine not in ("conformal", "both"):
        return None
    if not args.conformal_table:
        raise ConfigError("conformal refinement needs a calibration table")
    return _load_json(args.conformal_table, ConformalTable.from_json, "conformal table")


def _read_input_datasets(args):
    path = Path(args.data)
    if path.suffix == ".csv":
        return [mfio.read_observations_csv(path, q=args.q)]
    return mfio.load_datasets(path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = SimConfig(m_range=args.m_range, n_range=args.n_range, toy=args.toy)
    datasets = []
    for i in range(args.count):
        rng = substream(args.seed, "sim", i)
        ds_id = f"sim-{args.seed}-{i}"
        if args.family == "conjugate":
            datasets.append(simulate_conjugate_dataset(args.d, rng, n_range=args.n_range,
                                                       dataset_id=ds_id))
        else:
            datasets.append(simulate_dataset(args.d, args.q, rng, cfg, dataset_id=ds_id))
    mfio.save_datasets(args.out, datasets)
    mfio.write_manifest(str(args.out) + ".manifest.json", "simulate",
                        {**vars_for_manifest(args)}, args.seed, outputs=[str(args.out)])
    print(f"wrote {len(datasets)} datasets to {args.out}")
    return 0


def cmd_train(args) -> int:
    fields = dict(d=args.d, q=args.q, budget=args.budget, batch_size=args.batch,
                  seed=args.seed, toy=args.toy)
    if args.config:
        fields.update(_load_json(args.config, lambda obj: {
            k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}, "config"))
    try:
        cfg = TrainConfig(**fields)
    except TypeError as exc:  # an unknown or ill-typed field
        raise ConfigError(f"bad training configuration ({exc})") from None
    result = train(cfg, args.out, resume=args.resume, progress=True)
    mfio.write_manifest(Path(args.out) / "manifest.json", "train", asdict(cfg), cfg.seed,
                        outputs=[result.best_path, result.last_path, result.curve_path])
    print(f"best validation loss {result.best_val:.4f} after {result.steps_run} steps")
    print(f"checkpoint {result.checkpoint_id[:12]} at {result.best_path}")
    return 0


def cmd_infer(args) -> int:
    table = _conformal_table(args)
    model, manifest, _ = load_model(args.checkpoint)
    datasets = _read_input_datasets(args)
    prior = _load_prior(args.prior) if args.prior else None
    records = []
    for i, ds in enumerate(datasets):
        draws, intervals = infer_one(model, ds, args.k, substream(args.seed, "infer", i),
                                     refine=args.refine, table=table, prior=prior,
                                     alphas=args.alphas)
        records.append(mfio.draws_to_record(draws, intervals=intervals))
    mfio.save_draws(args.out, records)
    mfio.write_manifest(str(args.out) + ".manifest.json", "infer",
                        vars_for_manifest(args), args.seed,
                        inputs={"checkpoint": manifest.get("checkpoint_id", ""),
                                "data": str(args.data)},
                        outputs=[str(args.out)])
    print(f"wrote draws for {len(records)} datasets to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    model, manifest, _ = load_model(args.checkpoint)
    datasets = mfio.load_datasets(args.sets)
    table = calibrate(model, datasets, k=args.k, seed=args.seed, alphas=args.alphas,
                      refine=args.refine, checkpoint_id=manifest.get("checkpoint_id", ""))
    mfio.write_json(args.out, table.to_json())
    mfio.write_manifest(str(args.out) + ".manifest.json", "calibrate",
                        vars_for_manifest(args), args.seed,
                        inputs={"checkpoint": manifest.get("checkpoint_id", "")},
                        outputs=[str(args.out)])
    for role, adj in table.adjustments.items():
        print(f"{role}: " + ", ".join(f"a={a}: {v:+.4f}" for a, v in zip(table.alphas, adj)))
    return 0


def cmd_evaluate(args) -> int:
    table = _conformal_table(args)
    model, manifest, _ = load_model(args.checkpoint)
    datasets = mfio.load_datasets(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, evals = [], []
    for i, ds in enumerate(datasets):
        draws = posterior_draws(model, ds, args.k, substream(args.seed, "eval", i), args.refine)
        records.append(mfio.draws_to_record(draws))
        evals.append(evaluate_dataset(ds, draws, table, args.alphas))
    mfio.save_draws(out_dir / "draws.jsonl", records)
    name = args.name or "model"
    reports = {name: aggregate(evals, args.alphas,
                               {"checkpoint": manifest.get("checkpoint_id", "")[:12],
                                "refine": args.refine})}
    _emit_reports(out_dir, reports, evals, args.alphas)
    mfio.write_manifest(out_dir / "manifest.json", "evaluate", vars_for_manifest(args),
                        args.seed, outputs=[str(out_dir / "draws.jsonl")])
    print(render_table(reports))
    return 0


def cmd_report(args) -> int:
    datasets = {ds.dataset_id: ds for ds in mfio.load_datasets(args.data)}
    reports, all_evals = {}, {}
    for spec_item in args.draws:
        if "=" in spec_item:
            name, path = spec_item.split("=", 1)
        else:
            name, path = Path(spec_item).stem, spec_item
        if path.endswith(".csv"):
            pairs = [ingest_external_samples(path)]
            draw_list = [(pairs[0][0], {"dataset_id": pairs[0][0].dataset_id})]
        else:
            draw_list = mfio.load_draws(path)
        evals, skipped = [], []
        for draws, rec in draw_list:
            ds = datasets.get(draws.dataset_id)
            if ds is None:
                skipped.append(draws.dataset_id)
                continue
            evals.append(evaluate_dataset(ds, draws, None, args.alphas))
        if skipped:
            print(f"warning: {name}: no matching dataset for ids {skipped[:5]}"
                  + (" ..." if len(skipped) > 5 else ""), file=sys.stderr)
        if not evals:
            raise ConfigError(f"{name}: no draw records matched the truth file")
        reports[name] = aggregate(evals, args.alphas, {"source": path})
        all_evals[name] = evals
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit_reports(out_dir, reports, next(iter(all_evals.values())), args.alphas)
    for name, evals in all_evals.items():
        if len(evals) >= 2:
            for key in ("n", "snr"):
                top, bottom = split_report(evals, key, args.alphas)
                write_report_csv(out_dir / f"split_{key}_{name}.csv",
                                 {f"{name}-{key}-top": top, f"{name}-{key}-bottom": bottom})
    table_text = render_table(reports)
    mfio.write_file(out_dir / "report.txt", table_text + "\n")
    mfio.write_manifest(out_dir / "manifest.json", "report", vars_for_manifest(args),
                        None, outputs=[str(out_dir / "report.csv")])
    print(table_text)
    return 0


def _emit_reports(out_dir: Path, reports, evals, alphas):
    write_report_csv(out_dir / "report.csv", reports)
    truths = np.concatenate([e.truths["fixed"] for e in evals])
    means = np.concatenate([e.means["fixed"] for e in evals])
    svg_scatter(out_dir / "recovery_fixed.svg", truths, means, title="fixed effects")
    coverage = {}
    for name, rep in reports.items():
        role_stats = rep.per_role.get("fixed")
        if role_stats:
            coverage[name] = [role_stats["ce"][a] + (1 - a) for a in alphas]
    if coverage:
        svg_coverage_curve(out_dir / "coverage_fixed.svg", list(alphas), coverage,
                           title="fixed-effect coverage")
    rows = []
    for name, rep in reports.items():
        for role, stats in rep.per_role.items():
            for a in alphas:
                rows.append(f"{name},{role},{a},{stats['ce'][a] + (1 - a):.4f}")
    mfio.write_file(out_dir / "coverage.csv",
                    "model,role,alpha,coverage\n" + "\n".join(rows) + "\n")


def vars_for_manifest(args) -> dict:
    skip = {"func"}
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedflow",
        description="Amortized Bayesian inference for linear mixed-effects regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_default=1000):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=k_default, help="posterior draws per dataset")
        p.add_argument("--alphas", type=_alpha_list, default=ALPHA_GRID)

    p = sub.add_parser("simulate", help="generate hierarchical regression datasets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m-range", type=_int_pair, default=(5, 30))
    p.add_argument("--n-range", type=_int_pair, default=(5, 70))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--family", choices=("full", "conjugate"), default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a posterior model")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--config", help="JSON file with TrainConfig overrides")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="draw posteriors for datasets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset file (.jsonl[.gz]) or observations .csv")
    p.add_argument("--q", type=int, default=1, help="random-effect count for CSV input")
    p.add_argument("--prior", help="JSON prior file (required when data has no recorded prior)")
    p.add_argument("--refine", choices=REFINE_MODES, default="none")
    p.add_argument("--conformal-table", help="JSON table from the calibrate command")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("calibrate", help="fit conformal border adjustments")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sets", required=True, help="calibration dataset file with truth")
    p.add_argument("--refine", choices=("none", "is"), default="none")
    p.add_argument("--out", required=True)
    common(p, k_default=500)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="infer over simulated data and score against truth")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--refine", choices=REFINE_MODES, default="none")
    p.add_argument("--conformal-table")
    p.add_argument("--name", help="model label in reports")
    p.add_argument("--out", required=True)
    common(p, k_default=500)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="tabulate and plot metrics from draw files")
    p.add_argument("--draws", nargs="+", required=True,
                   help="draw files, optionally labeled name=path; .csv files "
                        "are treated as external chain samples")
    p.add_argument("--data", required=True, help="dataset file with truth")
    p.add_argument("--alphas", type=_alpha_list, default=ALPHA_GRID)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MixedFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
