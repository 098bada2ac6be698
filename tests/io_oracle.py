"""Version 1 draw-record writer.

`draws_to_record` as it was written when each draw block was a flat list of
numbers (`posterior-draws/1`), before the blocks became base64 float64
text. It is kept only to make version 1 records, which `mixedflow.io` must
still load to the same arrays as their version 2 counterparts.
"""

from mixedflow.draws import PosteriorDraws


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
