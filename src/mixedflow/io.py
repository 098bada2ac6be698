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
still load.

Reading: dataset and draw records, conformal tables and prior files are
read field by field, without coercion, by four typed readers: _int (JSON
integers in a range, never a bool or 5.0), _flag (true or false), _numbers
(finite float64 values above a bound; a numeric block in a version 2
block field) and _schema (versions /1 and /2). A broken field is a
DataFormatError naming it ("truth.noise"); the loaders add file and line.

Observation CSV: one row per observation with columns
group_id, y, x_1..x_p; the intercept column is synthesized, so the model
dimension is d = p + 1. Categorical predictors must arrive pre-encoded.

Run manifests: a JSON sidecar recording command, configuration hash, seed
and library versions, so artifacts can be regenerated byte-for-byte.

Writing: every file the package produces goes through write_file, which
takes the content whole or as an iterable of pieces, streams each piece
into a temporary file beside the target as it arrives, then fsyncs the
file and renames it over the target. A reader therefore sees the old file
or the new one, never a cut one, and a write that fails (a piece that
raises included) leaves no temporary file behind. A .gz target is
gzip-compressed as it streams, with the bytes of gzip.compress(content,
mtime=0): a zero timestamp and no embedded name, so equal content gives
equal bytes. Record files are written a record at a time, so their
writers hold one record's text, not the file's: each line is
json.dumps(record) + "\n", with every numeric block copied in as it is.
"""

from __future__ import annotations

import base64
import csv
import gzip
import hashlib
import json
import math
import os
import struct
import sys
import zlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .draws import PosteriorDraws
from .errors import ConfigError, DataFormatError
from .refine import ROLES, ConformalTable
from .simulate import GlobalParams, HierDataset, LocalParams, PriorSpec, Truth
from .standardize import StandardizationRecord

__all__ = [
    "save_datasets", "load_datasets", "dataset_to_record", "dataset_from_record",
    "save_draws", "load_draws", "draws_to_record", "draws_from_record",
    "load_json", "load_prior", "load_table", "read_observations_csv",
    "write_manifest", "write_json", "write_file", "config_hash",
]

DATASET_SCHEMA = "hier-dataset/2"
DRAWS_SCHEMA = "posterior-draws/2"


def _open(path):
    """Read handle for bytes; a .gz path is a gzip stream."""
    return (gzip.open if Path(path).suffix == ".gz" else open)(path, "rb")


# gzip.compress's header for an mtime of 0 does not depend on the content
_GZIP_HEADER = gzip.compress(b"", mtime=0)[:10]


def _gzip(chunks):
    """The bytes of gzip.compress(b"".join(chunks), mtime=0), streamed: its
    fixed header, one raw deflate stream at level 9, the CRC-32 and size."""
    packer, crc, size = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS), 0, 0
    yield _GZIP_HEADER
    for chunk in chunks:
        crc, size = zlib.crc32(chunk, crc), size + memoryview(chunk).nbytes
        yield packer.compress(chunk)
    yield packer.flush() + struct.pack("<LL", crc, size & 0xFFFFFFFF)


def write_file(path, data):
    """Replace `path` atomically with `data`: a str or bytes, or an
    iterable of str and bytes-like pieces (a str is written as UTF-8).

    Each piece goes to a temporary file in the same directory as it
    arrives; the file is then flushed, fsynced and renamed over `path`. If
    any step raises, a piece's producer included, the temporary file is
    removed and `path` is left as it was. A .gz path gets a gzip member with
    mtime 0, so its bytes depend on the content alone.
    """
    path = Path(path)
    pieces = [data] if isinstance(data, (str, bytes)) else data
    chunks = (p.encode("utf-8") if isinstance(p, str) else p for p in pieces)
    if path.suffix == ".gz":
        chunks = _gzip(chunks)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    """One JSON record per line, encoded and written as each record arrives;
    the mirror of _load_records."""
    def pieces():
        for rec in records:
            yield from _json_pieces(rec)
            yield "\n"
    write_file(path, pieces())


def _json_pieces(value):
    """The text of json.dumps(value) in pieces. A numeric block is JSON as
    it is (base64 needs no escapes), so it is its own piece between quotes;
    a dict that holds one is taken apart key by key, and every other value
    goes through json.dumps."""
    if isinstance(value, _Block):
        yield from ('"', value, '"')
    elif _holds_block(value):
        for i, (key, item) in enumerate(value.items()):
            yield ("{" if i == 0 else ", ") + json.dumps(key) + ": "
            yield from _json_pieces(item)
        yield "}"
    else:
        yield json.dumps(value)


def _holds_block(value) -> bool:
    return isinstance(value, dict) and any(
        isinstance(item, _Block) or _holds_block(item) for item in value.values())


# ---------------------------------------------------------------------------
# reading records field by field


# the fields that a version 2 record holds as numeric blocks
_BLOCKS = frozenset({"x", "y", "truth.alpha", "truth.noise", "global", "log_q_global",
                     "local", "log_q_local", "weights", "local_weights"})
_POSITIVE = 5e-324  # the least float above 0: as a low bound it means "> 0"


class _Block(str):
    """The base64 text of a numeric block, which the record writer copies
    into its line without JSON's escape scan."""
    __slots__ = ()


def _block(a) -> _Block | None:
    """A numeric block as base64 of its little-endian float64 bytes, C order."""
    return None if a is None else _Block(base64.b64encode(np.asarray(a, "<f8").tobytes()).decode())


def _bad(key: str, problem: str) -> DataFormatError:
    return DataFormatError(f"{key!r} {problem}")


def _schema(rec: dict, name: str):
    """Refuse a record that is not version 1 or 2 of `name`."""
    if rec.get("schema") not in (f"{name}/1", f"{name}/2"):
        raise _bad("schema", f"holds {rec.get('schema')!r}, not {name}/1 or {name}/2")


def _field(rec: dict, key: str):
    """The value at `key`, dotted for a nested field ("truth.noise")."""
    value = rec
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise _bad(key, "is missing")
        value = value[part]
    return value


def _int(rec: dict, key: str, low: int, count: int | None = None, high=math.inf):
    """The JSON integer in [low, high] at `key` (not a bool, not 5.0); with
    `count`, a list of that many."""
    raw = _field(rec, key)
    if count is not None and not (isinstance(raw, list) and len(raw) == count):
        raise _bad(key, f"is not a list of {count} integers")
    for v in raw if count is not None else [raw]:
        if type(v) is not int or not low <= v <= high:
            raise _bad(key, f"holds {v!r}, not an integer in [{low}, {high}]")
    return raw


def _flag(rec: dict, key: str) -> bool:
    value = _field(rec, key)
    if type(value) is not bool:
        raise _bad(key, f"holds {value!r}, not true or false")
    return value


def _numbers(rec: dict, key: str, count: int | None, low: float = -math.inf) -> np.ndarray:
    """`count` (any number if None) finite float64 values >= low at `key`:
    a numeric block in a version 2 record's block field, else a JSON
    number or number list."""
    raw = _field(rec, key)
    if key in _BLOCKS and rec["schema"].endswith("/2"):
        try:  # not text, a non-base64 character, or not whole float64 values
            values = np.frombuffer(base64.b64decode(raw, validate=True), "<f8")
        except (TypeError, ValueError) as exc:
            raise _bad(key, f"is not base64 float64 ({exc})") from None
    else:
        items = raw if isinstance(raw, list) else [raw]
        wrong = [v for v in items if type(v) not in (int, float)]
        if wrong:
            raise _bad(key, f"holds {wrong[0]!r}, not a number")
        values = np.array(items, dtype=np.float64)
    if count is not None and values.size != count:
        raise _bad(key, f"holds {values.size} values, expected {count}")
    bad = ~(np.isfinite(values) & (values >= low))
    if bad.any():
        raise _bad(key, f"holds {values[bad][0]}, not a finite number"
                   + (f" >= {low}" if low > -math.inf else ""))
    return values.astype(np.float64)


def _padded(sizes: list[int], *flat: np.ndarray):
    """The validity mask of groups of `sizes`, then each array of `flat`
    ((n_total, ...), group by group) in zeros of shape (m, max size, ...)."""
    mask = np.arange(max(sizes)) < np.array(sizes, dtype=np.int64)[:, None]
    out = [np.zeros(mask.shape + a.shape[1:]) for a in flat]
    for padded, a in zip(out, flat):
        padded[mask] = a
    return mask, *out


def _prior(rec: dict, d: int, q: int, at: str = "") -> PriorSpec:
    """The prior at `at` ("prior." in a dataset record) for d fixed and q
    random effects."""
    return PriorSpec(_numbers(rec, at + "nu_beta", d), _numbers(rec, at + "tau_beta", d, _POSITIVE),
                     _numbers(rec, at + "tau_sigma", q, _POSITIVE),
                     _numbers(rec, at + "tau_eps", 1, _POSITIVE).item())


# ---------------------------------------------------------------------------
# datasets


def dataset_to_record(ds: HierDataset) -> dict:
    rec = {"schema": DATASET_SCHEMA, "id": ds.dataset_id, "d": ds.d, "q": ds.q, "m": ds.m,
           "group_sizes": ds.group_sizes.tolist(), "x": _block(ds.X[ds.mask]),
           "y": _block(ds.y[ds.mask]), "prior": None, "truth": None}
    if ds.truth is not None:
        rec["prior"] = ds.truth.prior.to_json()
        gp, lp = ds.truth.global_params, ds.truth.local_params
        rec["truth"] = {"beta": gp.beta.tolist(),
                        "sigma_alpha": gp.sigma_alpha.tolist(),
                        "sigma_eps": gp.sigma_eps,
                        "alpha": _block(lp.alpha),
                        "noise": _block(ds.truth.noise[ds.mask])}
    return rec


def dataset_from_record(rec: dict) -> HierDataset:
    _schema(rec, "hier-dataset")
    d, m = _int(rec, "d", 1), _int(rec, "m", 1)
    q = _int(rec, "q", 0, high=d)
    sizes = _int(rec, "group_sizes", 1, count=m)
    n_total = sum(sizes)
    mask, X, y = _padded(sizes, _numbers(rec, "x", n_total * d).reshape(n_total, d),
                         _numbers(rec, "y", n_total))
    truth = None
    if rec.get("truth") is not None:
        gp = GlobalParams(_numbers(rec, "truth.beta", d),
                          _numbers(rec, "truth.sigma_alpha", q, 0.0),
                          _numbers(rec, "truth.sigma_eps", 1, 0.0).item())
        truth = Truth(_prior(rec, d, q, "prior."), gp,
                      LocalParams(_numbers(rec, "truth.alpha", m * q).reshape(m, q)),
                      _padded(sizes, _numbers(rec, "truth.noise", n_total))[1])
    return HierDataset(X=X, y=y, mask=mask, q=q, truth=truth,
                       dataset_id=str(rec.get("id", "")))


def save_datasets(path, datasets: Iterable[HierDataset]):
    _save_records(path, (dataset_to_record(ds) for ds in datasets))


def _load_records(path, parse, kind: str, whole: bool = False) -> list:
    """parse(record) for every non-blank line of a record file, or for the
    one JSON document that a `whole` file holds from line 1. A record that
    does not parse or decode (bad UTF-8, a cut or corrupt gzip stream) is a
    DataFormatError naming its line."""
    out, lineno = [], 0
    try:
        with _open(path) as fh:
            for lineno, line in enumerate([fh.read()] if whole else fh, start=1):
                if line.strip():
                    out.append(parse(json.loads(line.decode("utf-8"))))
    except (DataFormatError, ValueError, KeyError, TypeError, AttributeError, EOFError,
            OverflowError, zlib.error) as exc:
        raise DataFormatError(f"{path}:{lineno}: bad {kind} record "
                              f"({type(exc).__name__}: {exc})") from None
    if not out:
        raise DataFormatError(f"{path}: no {kind} records")
    return out


def load_json(path, parse, kind: str):
    """parse(obj) for the JSON document in `path`, with _load_records' errors."""
    return _load_records(path, parse, kind, whole=True)[0]


def load_datasets(path) -> list[HierDataset]:
    return _load_records(path, dataset_from_record, "dataset")


def load_prior(path, d: int, q: int) -> PriorSpec:
    """A prior file (the fields of `PriorSpec.to_json`) for data with d
    fixed and q random effects."""
    return load_json(path, lambda rec: _prior(rec, d, q), "prior")


def _table(rec: dict) -> ConformalTable:
    alphas = _numbers(rec, "alphas", None)
    if alphas.size == 0 or not (np.diff(np.r_[0.0, alphas, 1.0]) > 0).all():
        raise _bad("alphas", f"holds {alphas.tolist()}, not increasing within (0, 1)")
    roles = _field(rec, "adjustments")
    if not isinstance(roles, dict) or not set(roles) <= set(ROLES):
        raise _bad("adjustments", f"holds {roles!r}, not adjustments of roles {ROLES}")
    return ConformalTable(
        tuple(alphas.tolist()),
        {role: _numbers(rec, f"adjustments.{role}", alphas.size).tolist() for role in roles},
        str(rec.get("checkpoint_id", "")), _int(rec, "n_calibration", 0),
        _flag(rec, "low_confidence"))


def load_table(path) -> ConformalTable:
    """A conformal table as `calibrate` writes it (`ConformalTable.to_json`)."""
    return load_json(path, _table, "conformal table")


# ---------------------------------------------------------------------------
# posterior draws


def draws_to_record(draws: PosteriorDraws, intervals: dict | None = None) -> dict:
    rec = {"schema": DRAWS_SCHEMA, "dataset_id": draws.dataset_id,
           "k": draws.k, "d": draws.d, "q": draws.q, "infer_noise": draws.infer_noise,
           "param_names": draws.param_names(), "global": _block(draws.global_std),
           "log_q_global": _block(draws.log_q_global),
           "local": _block(draws.local_std), "log_q_local": _block(draws.log_q_local),
           "weights": _block(draws.weights), "local_weights": _block(draws.local_weights),
           "standardization": draws.rec.to_json(), "intervals": intervals}
    if draws.local_std is not None:
        rec["m"] = draws.m
    return rec


def draws_from_record(rec: dict) -> PosteriorDraws:
    _schema(rec, "posterior-draws")
    k, d = _int(rec, "k", 1), _int(rec, "d", 1)
    q, infer_noise = _int(rec, "q", 0, high=d), _flag(rec, "infer_noise")
    std = "standardization."
    draws = PosteriorDraws(
        global_std=_numbers(rec, "global", k * (d + q + infer_noise)).reshape(k, -1),
        log_q_global=_numbers(rec, "log_q_global", k), d=d, q=q, infer_noise=infer_noise,
        rec=StandardizationRecord(
            _numbers(rec, std + "mu_x", d), _numbers(rec, std + "sigma_x", d, _POSITIVE),
            _numbers(rec, std + "mu_y", 1).item(),
            _numbers(rec, std + "sigma_y", 1, _POSITIVE).item(),
            np.array(_int(rec, std + "degenerate_x", 0, count=d, high=1), dtype=bool),
            _flag(rec, std + "degenerate_y")),
        dataset_id=str(rec.get("dataset_id", "")))
    if rec.get("local") is not None:
        m = _int(rec, "m", 1)
        draws.local_std = _numbers(rec, "local", k * m * q).reshape(k, m, q)
        draws.log_q_local = _numbers(rec, "log_q_local", k * m).reshape(k, m)
        if rec.get("local_weights") is not None:
            draws.local_weights = _numbers(rec, "local_weights", k * m, 0.0).reshape(k, m)
    if rec.get("weights") is not None:
        draws.weights = _numbers(rec, "weights", k, 0.0)
    for key, w in (("weights", draws.weights), ("local_weights", draws.local_weights)):
        if w is None:
            continue
        with np.errstate(over="ignore"):   # a total that overflows is refused, not warned about
            total = w.sum(axis=0)
        if not np.all((total > 0) & (total < np.inf)):
            raise _bad(key, "has no finite positive total")
    return draws


def save_draws(path, records: Iterable[dict]):
    _save_records(path, records)


def load_draws(path) -> list[tuple[PosteriorDraws, dict]]:
    """Returns (draws, full record) pairs so interval tables stay available."""
    return _load_records(path, lambda rec: (draws_from_record(rec), rec), "draw")


# ---------------------------------------------------------------------------
# observation CSV (real-data shaped)


def read_observations_csv(path, q: int) -> HierDataset:
    """Build a dataset from one-row-per-observation CSV with columns
    group_id, y, x_1..x_p (intercept synthesized as column 0)."""
    groups: dict[str, list[list[float]]] = {}  # in order of first appearance
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if [h.strip() for h in (header or [])[:2]] != ["group_id", "y"]:
            raise DataFormatError(f"{path}: expected header group_id,y,x_1..x_d")
        p = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 + p:
                raise DataFormatError(f"{path}:{lineno}: expected {2 + p} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric value ({exc})")
            for name, v in zip(header[1:], vals):
                if not math.isfinite(v):
                    raise DataFormatError(f"{path}:{lineno}: {name.strip()} is {v}, "
                                          "not a finite number")
            groups.setdefault(row[0].strip(), []).append(vals)
    if not groups:
        raise DataFormatError(f"{path}: header but no observation rows")
    if q > p + 1:
        raise ConfigError(f"q={q} exceeds d={p + 1} (including the synthesized intercept)")
    rows = np.array([row for group in groups.values() for row in group])
    mask, X, y = _padded([len(g) for g in groups.values()], np.c_[np.ones(len(rows)), rows[:, 1:]],
                         rows[:, 0])
    return HierDataset(X=X, y=y, mask=mask, q=q, dataset_id=Path(path).stem)


# ---------------------------------------------------------------------------
# run manifests


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_manifest(path, command: str, config: dict, seed: int | None,
                   inputs: dict | None = None, outputs: list[str] | None = None):
    manifest = {"command": command, "config": config, "config_hash": config_hash(config),
                "seed": seed, "versions": {"mixedflow": __version__, "numpy": np.__version__,
                                           "python": sys.version.split()[0]},
                "inputs": inputs or {}, "outputs": outputs or []}
    write_json(path, manifest)
    return manifest
