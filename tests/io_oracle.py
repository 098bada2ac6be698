"""Version 1 dataset- and draw-record writers.

`dataset_to_record` and `draws_to_record` as they were written when each
numeric block was a flat list of numbers (`hier-dataset/1`,
`posterior-draws/1`), before the blocks became base64 float64 text. They
are kept only to make version 1 records, which `mixedflow.io` must still
load to the same arrays as their version 2 counterparts.
"""

from mixedflow.draws import PosteriorDraws
from mixedflow.simulate import HierDataset


def dataset_to_record(ds: HierDataset) -> dict:
    rec = {
        "schema": "hier-dataset/1",
        "id": ds.dataset_id,
        "d": ds.d, "q": ds.q, "m": ds.m,
        "group_sizes": ds.group_sizes.tolist(),
        "x": ds.X[ds.mask].reshape(-1).tolist(),
        "y": ds.y[ds.mask].tolist(),
        "prior": None,
        "truth": None,
    }
    if ds.truth is not None:
        rec["prior"] = ds.truth.prior.to_json()
        gp, lp = ds.truth.global_params, ds.truth.local_params
        rec["truth"] = {"beta": gp.beta.tolist(),
                        "sigma_alpha": gp.sigma_alpha.tolist(),
                        "sigma_eps": gp.sigma_eps,
                        "alpha": lp.alpha.reshape(-1).tolist(),
                        "noise": ds.truth.noise[ds.mask].tolist()}
    return rec


def draws_to_record(draws: PosteriorDraws, intervals: dict | None = None) -> dict:
    rec = {
        "schema": "posterior-draws/1",
        "dataset_id": draws.dataset_id,
        "k": draws.k, "d": draws.d, "q": draws.q,
        "infer_noise": draws.infer_noise,
        "param_names": draws.param_names(),
        "global": draws.global_std.reshape(-1).tolist(),
        "log_q_global": draws.log_q_global.tolist(),
        "local": None, "log_q_local": None,
        "weights": None, "local_weights": None,
        "standardization": draws.rec.to_json(),
        "intervals": intervals,
    }
    if draws.local_std is not None:
        rec["local"] = draws.local_std.reshape(-1).tolist()
        rec["log_q_local"] = draws.log_q_local.reshape(-1).tolist()
        rec["m"] = draws.m
    if draws.weights is not None:
        rec["weights"] = draws.weights.tolist()
    if draws.local_weights is not None:
        rec["local_weights"] = draws.local_weights.reshape(-1).tolist()
    return rec
