"""Command-line surface.

Subcommands: simulate, train, infer, calibrate, evaluate, report. Every
run writes a manifest (configuration hash, seed, versions) next to its
outputs. Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 I/O or format error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, MixedFlowError, NumericError
from . import io as mfio
from .metrics import aggregate, evaluate_dataset, ingest_external_samples, split_report
from .model import PosteriorModel, load_model
from .pipeline import REFINE_MODES, infer_one, posterior_draws
from .refine import ALPHA_GRID, ConformalTable, calibrate
from .report import render_table, svg_coverage_curve, svg_scatter, write_report_csv
from .seeding import substream
from .simulate import SimConfig, simulate_dataset
from .train import TrainConfig, train

__all__ = ["main"]

# (error type, stderr label and exit code), the first that matches applies
_EXIT_CODES = [(ConfigError, ("configuration error", 2)), (NumericError, ("numeric failure", 3)),
              (DataFormatError, ("format error", 4)), (OSError, ("i/o error", 4)),
              (MixedFlowError, ("error", 2))]


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return int(parts[0]), int(parts[1])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _alpha_list(text: str) -> tuple[float, ...]:
    alphas = tuple(sorted({float(a) for a in text.split(",")}))
    if not all(0.0 < a < 1.0 for a in alphas):
        raise argparse.ArgumentTypeError(f"every alpha must lie in (0, 1), got {text!r}")
    return alphas


def _model_and_table(args) -> tuple[PosteriorModel, dict, ConformalTable | None]:
    """The checkpoint's model and manifest, and the --conformal-table --refine uses."""
    conformal = args.refine in ("conformal", "both")
    if conformal != bool(args.conformal_table):
        raise ConfigError(f"--refine {args.refine} {'needs' if conformal else 'takes no'} --conformal-table")
    table = mfio.load_table(args.conformal_table) if conformal else None
    model, manifest, _ = load_model(args.checkpoint)
    if table is not None and table.checkpoint_id not in ("", manifest["checkpoint_id"]):
        raise ConfigError(f"{args.conformal_table} was calibrated on checkpoint "
                          f"{table.checkpoint_id[:12]}, not on {manifest['checkpoint_id'][:12]}")
    return model, manifest, table


def _read_input_datasets(args):
    if Path(args.data).suffix == ".csv":
        return [mfio.read_observations_csv(args.data, q=args.q)]
    return mfio.load_datasets(args.data)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = SimConfig(m_range=args.m_range, n_range=args.n_range, toy=args.toy, family=args.family)
    datasets = (simulate_dataset(args.d, args.q, substream(args.seed, "sim", i), cfg,
                                 dataset_id=f"sim-{args.seed}-{i}") for i in range(args.count))
    mfio.save_datasets(args.out, datasets)
    mfio.write_manifest(str(args.out) + ".manifest.json", "simulate",
                        {**vars_for_manifest(args)}, args.seed, outputs=[str(args.out)])
    print(f"wrote {args.count} datasets to {args.out}")
    return 0


def cmd_train(args) -> int:
    fields = dict(d=args.d, q=args.q, budget=args.budget, batch_size=args.batch,
                  seed=args.seed, toy=args.toy)
    if args.config:
        fields.update(mfio.load_json(args.config, lambda obj: {
            k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}, "config"))
    try:
        cfg = TrainConfig(**fields)
    except TypeError as exc:  # an unknown field
        raise ConfigError(f"bad training configuration ({exc})") from None
    train_log = logging.getLogger("mixedflow.train")   # progress lines on stderr
    handler, level = logging.StreamHandler(sys.stderr), train_log.level
    train_log.addHandler(handler)
    train_log.setLevel(logging.INFO)
    try:
        result = train(cfg, args.out, resume=args.resume)
    finally:
        train_log.removeHandler(handler)
        train_log.setLevel(level)
    mfio.write_manifest(Path(args.out) / "manifest.json", "train", asdict(cfg), cfg.seed,
                        outputs=[result.best_path, result.last_path, result.curve_path])
    print(f"best validation loss {result.best_val:.4f} after {result.steps_run} steps")
    print(f"checkpoint {result.checkpoint_id[:12]} at {result.best_path}")
    return 0


def cmd_infer(args) -> int:
    model, manifest, table = _model_and_table(args)
    datasets = _read_input_datasets(args)
    prior = mfio.load_prior(args.prior, datasets[0].d, datasets[0].q) if args.prior else None

    def records():
        for i, ds in enumerate(datasets):
            draws, intervals = infer_one(model, ds, args.k, substream(args.seed, "infer", i),
                                         refine=args.refine, table=table, prior=prior,
                                         alphas=args.alphas)
            yield mfio.draws_to_record(draws, intervals=intervals)

    mfio.save_draws(args.out, records())
    mfio.write_manifest(str(args.out) + ".manifest.json", "infer",
                        vars_for_manifest(args), args.seed,
                        inputs={"checkpoint": manifest.get("checkpoint_id", ""),
                                "data": str(args.data)},
                        outputs=[str(args.out)])
    print(f"wrote draws for {len(datasets)} datasets to {args.out}")
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
    model, manifest, table = _model_and_table(args)
    datasets = mfio.load_datasets(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evals = []

    def records():   # the per-set summaries are kept, the draws are not
        for i, ds in enumerate(datasets):
            draws = posterior_draws(model, ds, args.k, substream(args.seed, "eval", i), args.refine)
            evals.append(evaluate_dataset(ds, draws, table, args.alphas))
            yield mfio.draws_to_record(draws)

    mfio.save_draws(out_dir / "draws.jsonl", records())
    name = args.name or "model"
    reports = {name: aggregate(evals, args.alphas,
                               {"checkpoint": manifest.get("checkpoint_id", "")[:12],
                                "refine": args.refine})}
    outputs = [str(out_dir / "draws.jsonl"), *_emit_reports(out_dir, reports, evals, args.alphas)]
    mfio.write_manifest(out_dir / "manifest.json", "evaluate", vars_for_manifest(args),
                        args.seed, outputs=outputs)
    print(render_table(reports))
    return 0


def cmd_report(args) -> int:
    datasets = {ds.dataset_id: ds for ds in mfio.load_datasets(args.data)}
    reports, all_evals = {}, {}
    for spec_item in args.draws:
        name, labeled, path = spec_item.partition("=")
        name, path = (name, path) if labeled else (Path(spec_item).stem, spec_item)
        draw_list = ([ingest_external_samples(path)] if path.endswith(".csv")
                     else mfio.load_draws(path))
        evals, skipped = [], []
        for draws, rec in draw_list:
            ds = datasets.get(draws.dataset_id)
            if ds is None:
                skipped.append(draws.dataset_id)
                continue
            if draws.local_std is not None and draws.m != ds.m:
                raise DataFormatError(f"{path}: draws for {draws.dataset_id} have {draws.m} "
                                      f"groups, the dataset has {ds.m}")
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
    outputs = _emit_reports(out_dir, reports, next(iter(all_evals.values())), args.alphas)
    for name, evals in all_evals.items():
        if len(evals) >= 2:
            for key in ("n", "snr"):
                top, bottom = split_report(evals, key, args.alphas)
                outputs.append(str(out_dir / f"split_{key}_{name}.csv"))
                write_report_csv(outputs[-1],
                                 {f"{name}-{key}-top": top, f"{name}-{key}-bottom": bottom})
    table_text = render_table(reports)
    outputs.append(str(out_dir / "report.txt"))
    mfio.write_file(outputs[-1], table_text + "\n")
    mfio.write_manifest(out_dir / "manifest.json", "report", vars_for_manifest(args),
                        None, outputs=outputs)
    print(table_text)
    return 0


def _emit_reports(out_dir: Path, reports, evals, alphas) -> list[str]:
    """Write report.csv, coverage.csv and the fixed-effect recovery and
    coverage plots; returns their paths."""
    paths = [out_dir / name for name in ("report.csv", "recovery_fixed.svg",
                                         "coverage_fixed.svg", "coverage.csv")]
    write_report_csv(paths[0], reports)
    truths = np.concatenate([e.truths["fixed"] for e in evals])
    means = np.concatenate([e.means["fixed"] for e in evals])
    svg_scatter(paths[1], truths, means, title="fixed effects")
    coverage = {name: {role: [stats["ce"][a] + (1 - a) for a in alphas]
                       for role, stats in rep.per_role.items()}
                for name, rep in reports.items()}
    svg_coverage_curve(paths[2], list(alphas),
                       {name: cov["fixed"] for name, cov in coverage.items()},
                       title="fixed-effect coverage")
    rows = [f"{name},{role},{a},{c:.4f}" for name, cov in coverage.items()
            for role, per_alpha in cov.items() for a, c in zip(alphas, per_alpha)]
    mfio.write_file(paths[3], "model,role,alpha,coverage\n" + "\n".join(rows) + "\n")
    return [str(path) for path in paths]


def vars_for_manifest(args) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(args).items() if k != "func"}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedflow",
        description="Amortized Bayesian inference for linear mixed-effects regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_default=1000):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=_positive_int, default=k_default,
                       help="posterior draws per dataset")
        p.add_argument("--alphas", type=_alpha_list, default=ALPHA_GRID)

    p = sub.add_parser("simulate", help="generate hierarchical regression datasets")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m-range", type=_int_pair, default=(5, 30))
    p.add_argument("--n-range", type=_int_pair, default=(5, 70))
    p.add_argument("--count", type=_positive_int, required=True)
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
    except (MixedFlowError, OSError) as exc:
        label, code = next(out for kind, out in _EXIT_CODES if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
