"""File formats.

Dataset files (hier-dataset/2): line-delimited JSON, one dataset per
record, gzip-compressed when the path ends in .gz. Record field order:
schema, id, d, q, m, group_sizes, x, y, prior, truth. The arrays x (the
unmasked observations' rows, (n_total, d)), y and truth.noise ((n_total,))
and truth.alpha ((m, q)) are numeric blocks; counts, the prior and the
other truth fields are plain JSON. The random-effect design is not stored:
a dataset derives it as the first q columns of x.

Posterior draw files (posterior-draws/2): same container style, one record
per dataset with the k-by-parameter draw blocks, flow log densities, the
standardization record, optional importance weights and optional interval
tables.

A numeric block is one ASCII string, the base64 of the array's
little-endian float64 bytes in C order (null when absent): exact for every
value, strict JSON, and without the cost of float-to-text conversion.
Version 1 records of either kind, with number lists in place of blocks,
still load. Counts must be JSON integers, and observations and truth
values must be finite.

Observation CSV: one row per observation with columns
group_id, y, x_1..x_p; the intercept column is synthesized, so the model
dimension is d = p + 1. Categorical predictors must arrive pre-encoded.

Run manifests: a JSON sidecar recording command, configuration hash, seed
and library versions, so artifacts can be regenerated byte-for-byte.

Writing: every file the package produces goes through write_file, which
takes the finished content, writes it to a temporary file beside the
target, fsyncs it and renames it over the target. A reader therefore sees
the old file or the new one, never a cut one, and a write that fails
leaves no temporary file behind. A .gz target is gzip-compressed with a
zero timestamp and no embedded name, so equal content gives equal bytes.
"""

from __future__ import annotations

import base64
import csv
import gzip
import hashlib
import json
import math
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError
from .simulate import GlobalParams, HierDataset, LocalParams, PriorSpec, Truth
from .standardize import StandardizationRecord

__all__ = [
    "save_datasets", "load_datasets", "dataset_to_record", "dataset_from_record",
    "save_draws", "load_draws", "draws_to_record", "draws_from_record",
    "read_observations_csv", "write_manifest", "write_json", "write_file", "config_hash",
]

DATASET_SCHEMA = "hier-dataset/2"
DRAWS_SCHEMA = "posterior-draws/2"


def _open(path):
    """Read handle for bytes; a .gz path is a gzip stream."""
    return (gzip.open if Path(path).suffix == ".gz" else open)(path, "rb")


def write_file(path, data: str | bytes):
    """Replace `path` atomically with `data` (a str is written as UTF-8).

    The bytes go to a temporary file in the same directory, which is
    flushed, fsynced and renamed over `path`; if any step raises, the
    temporary file is removed and `path` is left as it was. A .gz path
    gets a gzip member with mtime 0, so its bytes depend on `data` alone.
    """
    path = Path(path)
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if path.suffix == ".gz":
        raw = gzip.compress(raw, mtime=0)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline."""
    write_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _save_records(path, records):
    """One JSON record per line; the mirror of _load_records."""
    write_file(path, "".join(json.dumps(rec) + "\n" for rec in records))


# ---------------------------------------------------------------------------
# numeric blocks


def _block(a) -> str | None:
    """A numeric block as base64 of its little-endian float64 bytes, C order."""
    return None if a is None else base64.b64encode(np.asarray(a, "<f8").tobytes()).decode()


def _block_array(rec: dict, key: str, count: int) -> np.ndarray:
    """The `count` float64 values of block `key` (dotted for a nested field,
    as in "truth.noise"): base64 text in a version 2 record, a number list
    in a version 1 record."""
    raw = rec
    for part in key.split("."):
        raw = raw[part]
    if rec["schema"].endswith("/1"):
        values = np.asarray(raw, dtype=np.float64).reshape(-1)
    else:
        try:  # not text, a non-base64 character, or not whole float64 values
            values = np.frombuffer(base64.b64decode(raw, validate=True), dtype="<f8")
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"block {key!r} is not base64 float64 ({exc})") from None
    if values.size != count:
        raise DataFormatError(f"block {key!r} holds {values.size} values, expected {count}")
    return values.astype(np.float64)


# ---------------------------------------------------------------------------
# datasets


def dataset_to_record(ds: HierDataset) -> dict:
    rec = {
        "schema": DATASET_SCHEMA,
        "id": ds.dataset_id,
        "d": ds.d, "q": ds.q, "m": ds.m,
        "group_sizes": ds.group_sizes.tolist(),
        "x": _block(ds.X[ds.mask]),
        "y": _block(ds.y[ds.mask]),
        "prior": None,
        "truth": None,
    }
    if ds.truth is not None:
        rec["prior"] = ds.truth.prior.to_json()
        gp, lp = ds.truth.global_params, ds.truth.local_params
        rec["truth"] = {"beta": gp.beta.tolist(),
                        "sigma_alpha": gp.sigma_alpha.tolist(),
                        "sigma_eps": gp.sigma_eps,
                        "alpha": _block(lp.alpha),
                        "noise": _block(ds.truth.noise[ds.mask])}
    return rec


def _count(value, name: str) -> int:
    """A JSON integer (not a bool, not a float with an integral value)."""
    if type(value) is not int:
        raise DataFormatError(f"{name}: {value!r} is not an integer")
    return value


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise DataFormatError(f"{name} holds a non-finite value")
    return values


def dataset_from_record(rec: dict) -> HierDataset:
    if rec.get("schema") not in (DATASET_SCHEMA, "hier-dataset/1"):
        raise DataFormatError(f"not a {DATASET_SCHEMA} record: schema={rec.get('schema')!r}")
    d, q, m = (_count(rec[key], key) for key in ("d", "q", "m"))
    if not 0 <= q <= d or d < 1:
        raise DataFormatError(f"d={d}, q={q}: need d >= 1 and q in [0, d]")
    sizes = np.array([_count(n, "group_sizes") for n in rec["group_sizes"]], dtype=np.int64)
    if sizes.shape[0] != m:
        raise DataFormatError("group_sizes length disagrees with m")
    if m < 1 or sizes.min() < 1:
        raise DataFormatError("group_sizes needs m >= 1 groups of at least one observation")
    n_total = int(sizes.sum())
    x = _finite(_block_array(rec, "x", n_total * d), "x")
    y_flat = _finite(_block_array(rec, "y", n_total), "y")
    n_max = int(sizes.max())
    X = np.zeros((m, n_max, d))
    y = np.zeros((m, n_max))
    mask = np.arange(n_max)[None, :] < sizes[:, None]
    X[mask] = x.reshape(n_total, d)
    y[mask] = y_flat
    truth = None
    if rec.get("truth") is not None:
        t, prior = rec["truth"], PriorSpec.from_json(rec["prior"])
        beta, sigma_alpha = (np.asarray(t[k], dtype=np.float64) for k in ("beta", "sigma_alpha"))
        for name, values, count in (
                ("truth.beta", beta, d), ("truth.sigma_alpha", sigma_alpha, q),
                ("prior.nu_beta", prior.nu_beta, d), ("prior.tau_sigma", prior.tau_sigma, q)):
            if values.shape != (count,):
                raise DataFormatError(f"{name} has shape {values.shape}, expected ({count},) "
                                      f"for d={d}, q={q}, m={m} and {n_total} observations")
        alpha = _finite(_block_array(rec, "truth.alpha", m * q), "truth.alpha")
        noise_flat = _finite(_block_array(rec, "truth.noise", n_total), "truth.noise")
        _finite(beta, "truth.beta")
        sigma_eps = float(t["sigma_eps"])
        for name, values in (("truth.sigma_eps", np.array([sigma_eps])),
                             ("truth.sigma_alpha", sigma_alpha)):
            if not ((values >= 0) & (values < np.inf)).all():
                raise DataFormatError(f"{name} {values.tolist()}: std devs must be finite and >= 0")
        noise = np.zeros((m, n_max))
        noise[mask] = noise_flat
        truth = Truth(prior, GlobalParams(beta, sigma_alpha, sigma_eps),
                      LocalParams(alpha.reshape(m, q)), noise)
    return HierDataset(X=X, y=y, mask=mask, q=q, truth=truth,
                       dataset_id=str(rec.get("id", "")))


def save_datasets(path, datasets: list[HierDataset]):
    _save_records(path, (dataset_to_record(ds) for ds in datasets))


def _load_records(path, parse, kind: str) -> list:
    """parse(record) for every non-blank line of a record file. A record
    that does not parse or decode (bad UTF-8, a cut or corrupt gzip
    stream) is a DataFormatError naming its line."""
    out, lineno = [], 0
    try:
        with _open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    out.append(parse(json.loads(line.decode("utf-8"))))
    except (DataFormatError, ValueError, KeyError, TypeError, AttributeError, EOFError,
            OverflowError, zlib.error) as exc:
        raise DataFormatError(f"{path}:{lineno}: bad {kind} record "
                              f"({type(exc).__name__}: {exc})") from None
    if not out:
        raise DataFormatError(f"{path}: no {kind} records")
    return out


def load_datasets(path) -> list[HierDataset]:
    return _load_records(path, dataset_from_record, "dataset")


# ---------------------------------------------------------------------------
# posterior draws


def draws_to_record(draws: PosteriorDraws, intervals: dict | None = None) -> dict:
    rec = {
        "schema": DRAWS_SCHEMA,
        "dataset_id": draws.dataset_id,
        "k": draws.k, "d": draws.d, "q": draws.q,
        "infer_noise": draws.infer_noise,
        "param_names": draws.param_names(),
        "global": _block(draws.global_std),
        "log_q_global": _block(draws.log_q_global),
        "local": _block(draws.local_std), "log_q_local": _block(draws.log_q_local),
        "weights": _block(draws.weights), "local_weights": _block(draws.local_weights),
        "standardization": draws.rec.to_json(),
        "intervals": intervals,
    }
    if draws.local_std is not None:
        rec["m"] = draws.m
    return rec


def draws_from_record(rec: dict) -> PosteriorDraws:
    if rec.get("schema") not in (DRAWS_SCHEMA, "posterior-draws/1"):
        raise DataFormatError(f"not a {DRAWS_SCHEMA} record: schema={rec.get('schema')!r}")
    k, d, q = int(rec["k"]), int(rec["d"]), int(rec["q"])
    infer_noise = bool(rec["infer_noise"])
    p = d + q + (1 if infer_noise else 0)
    global_std = _block_array(rec, "global", k * p).reshape(k, p)
    local = log_q_local = weights = local_weights = None
    if rec.get("local") is not None:
        m = int(rec["m"])
        local = _block_array(rec, "local", k * m * q).reshape(k, m, q)
        log_q_local = _block_array(rec, "log_q_local", k * m).reshape(k, m)
        if rec.get("local_weights") is not None:
            local_weights = _block_array(rec, "local_weights", k * m).reshape(k, m)
    if rec.get("weights") is not None:
        weights = _block_array(rec, "weights", k)
    return PosteriorDraws(
        global_std=global_std,
        log_q_global=_block_array(rec, "log_q_global", k),
        d=d, q=q, infer_noise=infer_noise,
        rec=StandardizationRecord.from_json(rec["standardization"]),
        local_std=local, log_q_local=log_q_local,
        weights=weights, local_weights=local_weights,
        dataset_id=str(rec.get("dataset_id", "")))


def save_draws(path, records: list[dict]):
    _save_records(path, records)


def load_draws(path) -> list[tuple[PosteriorDraws, dict]]:
    """Returns (draws, full record) pairs so interval tables stay available."""
    return _load_records(path, lambda rec: (draws_from_record(rec), rec), "draw")


# ---------------------------------------------------------------------------
# observation CSV (real-data shaped)


def read_observations_csv(path, q: int) -> HierDataset:
    """Build a dataset from one-row-per-observation CSV with columns
    group_id, y, x_1..x_p (intercept synthesized as column 0)."""
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip() != "group_id" \
                or header[1].strip() != "y":
            raise DataFormatError(f"{path}: expected header group_id,y,x_1..x_d")
        p = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 + p:
                raise DataFormatError(f"{path}:{lineno}: expected {2 + p} fields, got {len(row)}")
            try:
                gid = row[0].strip()
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric value ({exc})")
            for name, v in zip(header[1:], vals):
                if not math.isfinite(v):
                    raise DataFormatError(f"{path}:{lineno}: {name.strip()} is {v}, "
                                          "not a finite number")
            if gid not in groups:
                groups[gid] = []
                order.append(gid)
            groups[gid].append(vals)
    if not order:
        raise DataFormatError(f"{path}: header but no observation rows")
    d = p + 1
    if q > d:
        raise ConfigError(f"q={q} exceeds d={d} (including the synthesized intercept)")
    m = len(order)
    sizes = np.array([len(groups[g]) for g in order], dtype=np.int64)
    n_max = int(sizes.max())
    X = np.zeros((m, n_max, d))
    y = np.zeros((m, n_max))
    mask = np.arange(n_max)[None, :] < sizes[:, None]
    for i, gid in enumerate(order):
        arr = np.asarray(groups[gid], dtype=np.float64)
        X[i, :sizes[i], 0] = 1.0
        X[i, :sizes[i], 1:] = arr[:, 1:]
        y[i, :sizes[i]] = arr[:, 0]
    return HierDataset(X=X, y=y, mask=mask, q=q, dataset_id=Path(path).stem)


# ---------------------------------------------------------------------------
# run manifests


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_manifest(path, command: str, config: dict, seed: int | None,
                   inputs: dict | None = None, outputs: list[str] | None = None):
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "mixedflow": _package_version(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": inputs or {},
        "outputs": outputs or [],
    }
    write_json(path, manifest)
    return manifest


def _package_version() -> str:
    from . import __version__
    return __version__
