"""The benchmark's workloads: inputs from a seed, the fit call, the gate.

Each workload builds its tables from the seed, hands only those tables
to the library, and times ``GradientBoosting.fit``. Every fit passes a
correctness gate:

* ``gb_favorita`` — the ensemble equals :class:`NpGBM` trained over the
  materialized join ``R⋈`` (the exact-parity reference).
* ``gb_imdb_galaxy`` — the ensemble equals the cold fit's, whose rmse,
  read off the never-materialized join, equals the rmse of its
  predictions over the materialized ``R⋈``.

The traced run of ``gb_favorita`` also fits a random forest on the same
tables (:data:`RF_FAV`) for the ``rf`` layer; see :func:`forest_check`.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.baselines.npgbm import NpGBM
from repro.core.gbm import GradientBoosting
from repro.core.rf import RandomForest
from repro.core.trainer import TrainParams
from repro.core.tree import TreeEnsemble
from repro.data.favorita import favorita
from repro.data.imdb import imdb

REL_TOL = 1e-9


def same_model(a: TreeEnsemble, b: TreeEnsemble) -> bool:
    """Identical trees (leaves to 9 decimals, as ``to_dict`` rounds them)
    and the same base score to ``REL_TOL``."""
    return (
        a.average == b.average
        and math.isclose(a.base_score, b.base_score, rel_tol=REL_TOL, abs_tol=1e-12)
        and [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]
    )


def perturbed(ens: TreeEnsemble) -> TreeEnsemble:
    """A copy of ``ens`` with one leaf moved by 1.0."""
    out = copy.deepcopy(ens)
    leaf = out.trees[-1].leaves()[-1]
    leaf.prediction = float(leaf.prediction) + 1.0
    return out


@dataclass
class Reference:
    """What every timed fit of one run is checked against."""

    ensemble: TreeEnsemble
    ok: bool  # the set-up checks on the reference itself passed
    detail: Dict[str, float]


@dataclass
class Workload:
    name: str
    build: Callable  # (spark, seed) -> generated data with a JoinGraph
    estimator: Callable  # (data) -> object with .fit()
    cold: Callable  # (data) -> the estimator of the cold fit
    reference: Callable  # (data, cold fit result) -> Reference
    forest: Optional[Callable] = None  # (data) -> RandomForest, traced runs only


# -- gb_favorita --------------------------------------------------------
FAV = dict(sf=0.01, n_extra_features=8)
GB_FAV = dict(n_iters=1, learning_rate=0.1, max_leaves=8, strategy="swap")
RF_FAV = dict(n_trees=4, row_fraction=0.1, feature_fraction=0.8, max_leaves=8, n_jobs=4, seed=0)


def _favorita(spark, seed: int):
    return favorita(spark, seed=seed, **FAV)


def _gb_favorita(data) -> GradientBoosting:
    return GradientBoosting(
        data.graph,
        n_iters=GB_FAV["n_iters"],
        learning_rate=GB_FAV["learning_rate"],
        params=TrainParams(max_leaves=GB_FAV["max_leaves"]),
        strategy=GB_FAV["strategy"],
        track_rmse=False,
    )


def _gb_favorita_ref(data, cold) -> Reference:
    wide = data.wide_pandas()
    feats = [f for f, _, _ in data.graph.all_features()]
    ref = NpGBM(
        wide, feats, feats, data.y,
        n_iters=GB_FAV["n_iters"],
        learning_rate=GB_FAV["learning_rate"],
        params=TrainParams(max_leaves=GB_FAV["max_leaves"]),
    ).fit().ensemble
    return Reference(ref, True, {"rmse": ref.rmse_np(wide, data.y)})


def _rf_favorita(data) -> RandomForest:
    return RandomForest(
        data.graph,
        n_trees=RF_FAV["n_trees"],
        row_fraction=RF_FAV["row_fraction"],
        feature_fraction=RF_FAV["feature_fraction"],
        params=TrainParams(max_leaves=RF_FAV["max_leaves"]),
        n_jobs=RF_FAV["n_jobs"],
        seed=RF_FAV["seed"],
    )


# -- gb_imdb_galaxy -----------------------------------------------------
IMDB = dict(n_movies=100, mean_cast=10.0, mean_companies=5.0)
GB_IMDB = dict(n_iters=1, learning_rate=0.3, max_leaves=4)


def _imdb(spark, seed: int):
    return imdb(spark, seed=seed, **IMDB)


def _gb_imdb(data, track_rmse: bool = False) -> GradientBoosting:
    return GradientBoosting(
        data.graph,
        n_iters=GB_IMDB["n_iters"],
        learning_rate=GB_IMDB["learning_rate"],
        params=TrainParams(max_leaves=GB_IMDB["max_leaves"]),
        track_rmse=track_rmse,
    )


def _gb_imdb_cold(data) -> GradientBoosting:
    """The cold fit also tracks rmse, which the reference check needs."""
    return _gb_imdb(data, track_rmse=True)


def _gb_imdb_ref(data, cold) -> Reference:
    """The cold fit tracks rmse over the factorized join; it must equal
    the rmse of its predictions over the materialized join."""
    wide = data.wide_pandas()
    y = data.graph.y_column
    factorized = cold.logs[-1].rmse
    materialized = cold.ensemble.rmse_np(wide, y)
    ok = factorized is not None and math.isclose(
        factorized, materialized, rel_tol=REL_TOL
    )
    return Reference(
        cold.ensemble, ok,
        {"rmse_factorized": factorized or float("nan"), "rmse_materialized": materialized},
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "gb_favorita",
            _favorita, _gb_favorita, _gb_favorita, _gb_favorita_ref, _rf_favorita,
        ),
        Workload("gb_imdb_galaxy", _imdb, _gb_imdb, _gb_imdb_cold, _gb_imdb_ref),
    ]
}


def gate_rejects_perturbed(ref: Optional[Reference]) -> bool:
    """Self-test: the gate must reject a copy of the reference with one
    leaf moved."""
    return ref is not None and not same_model(perturbed(ref.ensemble), ref.ensemble)


def forest_check(data, first, second) -> Reference:
    """Gate of the forest fits: the warm fit equals the first one, and
    the forest's rmse over the materialized join beats the constant
    predictor's."""
    wide = data.wide_pandas()
    rmse = first.ensemble.rmse_np(wide, data.y)
    constant = float(wide[data.y].std(ddof=0))
    ok = rmse < constant and same_model(first.ensemble, second.ensemble)
    return Reference(first.ensemble, ok, {"rmse": rmse, "constant_rmse": constant})
