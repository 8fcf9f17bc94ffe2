"""The benchmark's three workloads.

Every workload goes through the same life cycle, driven by ``worker.py``:

* ``setup()`` builds the state the timed rounds start from; its wall time
  is ``setup_s``.  The worker may call it several times and keeps the last
  state.
* ``prepare()`` computes the references the checks compare against (not
  timed).
* ``warm_up()`` runs the round's code paths once on small inputs (not
  timed).
* ``run_round()`` performs one round, the only timed call.  Every round of
  one run does the same operations on the same inputs.
* ``check(out)`` verifies one round's output against the references and
  returns a small record: ``attempted`` and ``failed`` operation counts
  plus what ``metrics(records)`` needs (not timed).  Round outputs are
  dropped after their check, so memory does not grow with the round count.

Inputs derive from the seed only: the simulated world and, for
``online_scoring``, the request stream.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from checks import (
    CheckFailed,
    analyst_queries,
    average_precision,
    close,
    rank_sum_auc,
    reference_answers,
    require,
    result_rows,
    rows_match,
    tables_equal,
)
from repro.config import ModelConfig, ScaleConfig
from repro.core.experiments import table3_overall
from repro.core.pipeline import ChurnPipeline
from repro.core.predictor import ChurnPredictor
from repro.datagen.simulator import TelcoSimulator
from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.journal import fsck_store
from repro.dataplat.observability import get_metrics
from repro.dataplat.resilience import CatalogTableSource
from repro.dataplat.sql import SQLEngine
from repro.features import WideTableBuilder
from repro.features.spec import ALL_CATEGORIES
from repro.ml.sampling import rebalance
from repro.serve import (
    SERVE_DATABASE,
    FeatureStore,
    FixedServiceTime,
    ModelRegistry,
    ScoringService,
    ServeConfig,
)

#: Months every world simulates, as the paper (and ``python -m repro``).
MONTHS = 9

#: The forest of ``python -m repro table3`` (its --trees/--min-leaf defaults).
TABLE3_MODEL = ModelConfig(n_trees=25, min_samples_leaf=25)

#: Decoded-table cache of every catalog the workloads write, as a share of
#: the decoded bytes the catalog will hold: the warehouse and the feature
#: store both outgrow their caches, as at production scale.
CATALOG_CACHE_SHARE = 0.25

#: Worlds for the untimed warm-up rounds: big enough for every code path
#: (LDA vocabularies, top-U cutoffs), small enough to cost about a second.
WARM_UP_POPULATION = 300


def _check_window(result, scale) -> None:
    """A scored window's metrics, recomputed from its scores and labels."""
    labels, scores = result.labels, result.scores
    auc = rank_sum_auc(labels, scores)
    require(close(auc, result.auc), f"AUC {result.auc} != rank-sum {auc}")
    ap = average_precision(labels, scores)
    require(close(ap, result.pr_auc), f"PR-AUC {result.pr_auc} != AP {ap}")
    positives = int(np.sum(labels))
    for paper_u, recall in result.recall_at.items():
        u = scale.scaled_u(paper_u)
        require(
            close(result.precision_at[paper_u] * u, recall * positives),
            f"precision@{u} x {u} != recall@{u} x {positives}",
        )


# ----------------------------------------------------------------------


class PaperTable3:
    """The paper run of ``python -m repro table3``, in-process.

    A round simulates the world, then runs one Table 3 window: all nine
    feature families, four training months, the random-forest fit, scoring
    and evaluation.  Set-up is what the command pays before it simulates: a
    fresh interpreter importing the package.
    """

    name = "paper_table3"
    POPULATION = 1500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_pr_auc: float | None = None

    def setup(self) -> None:
        subprocess.run(
            [sys.executable, "-c", "import repro.core.experiments"],
            check=True,
            env=os.environ.copy(),
        )

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        self._paper_run(WARM_UP_POPULATION)

    def run_round(self) -> dict:
        return self._paper_run(self.POPULATION)

    def _paper_run(self, population: int) -> dict:
        scale = ScaleConfig(population=population, months=MONTHS, seed=self.seed)
        world = TelcoSimulator(scale).run()
        pipeline = ChurnPipeline(world, scale, model=TABLE3_MODEL)
        return {
            "scale": scale,
            "pipeline": pipeline,
            "table3": table3_overall(pipeline),
            "probes": {},
        }

    def check(self, out: dict) -> dict:
        result = out["table3"]["result"]
        _check_window(result, out["scale"])
        require(result.auc > 0.75, f"AUC {result.auc} is not well above 0.5")
        builder, month = out["pipeline"].builder, result.spec.test_month
        widths = sum(len(builder.category(c, month).names) for c in ALL_CATEGORIES)
        n = len(result.feature_names)
        require(
            n == widths and n >= 150 and len(set(result.feature_names)) == n,
            f"window used {n} features, the nine families hold {widths}",
        )
        if self.first_pr_auc is None:
            self.first_pr_auc = result.pr_auc
        require(result.pr_auc == self.first_pr_auc, "rounds of one seed differ")
        return {"attempted": 1, "failed": 0, "auc": result.auc}

    def metrics(self, records: list[dict]) -> dict:
        return {"auc": records[-1]["auc"]}


# ----------------------------------------------------------------------


class WarehouseRefresh:
    """The monthly platform cycle over a fresh journaled catalog.

    A round appends the world's months one at a time; after each month it
    runs the fixed analyst queries of :func:`checks.analyst_queries` over
    everything landed so far.  It ends by scoring F1..F3 windows whose raw
    tables are read back through ``CatalogTableSource``.
    """

    name = "warehouse_refresh"
    POPULATION = 1000
    DATABASE = "telco"
    FAMILIES = ("F1", "F2", "F3")
    TEST_MONTHS = (6, 7, 8)
    MODEL = ModelConfig(n_trees=10, min_samples_leaf=25)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = ScaleConfig(population=self.POPULATION, months=MONTHS, seed=seed)

    def setup(self) -> None:
        self.world = TelcoSimulator(self.scale).run()

    def prepare(self) -> None:
        self.answers = {
            m: reference_answers(self.world, m) for m in range(1, MONTHS + 1)
        }
        builder = WideTableBuilder(self.world)
        months = sorted({m for t in self.TEST_MONTHS for m in (t - 1, t)})
        self.blocks = {m: builder.features(m, self.FAMILIES) for m in months}

    def warm_up(self) -> None:
        scale = ScaleConfig(
            population=WARM_UP_POPULATION, months=MONTHS, seed=self.seed
        )
        self._cycle(TelcoSimulator(scale).run(), scale)

    def run_round(self) -> dict:
        return self._cycle(self.world, self.scale)

    def _cycle(self, world, scale) -> dict:
        held = sum(t.nbytes for m in world.months for t in m.tables.values())
        catalog = Catalog(BlockStore(), cache_bytes=int(CATALOG_CACHE_SHARE * held))
        catalog.create_database(self.DATABASE)
        engine = SQLEngine(catalog=catalog, database=self.DATABASE)
        answers = []
        for data in world.months:
            for name, table in data.tables.items():
                catalog.save(
                    table, name, database=self.DATABASE,
                    partition=f"month={data.month}",
                )
            for qname, sql in analyst_queries(data.month).items():
                answers.append((data.month, qname, engine.query(sql)))
        source = CatalogTableSource(catalog, self.DATABASE)
        pipeline = ChurnPipeline(
            world, scale, categories=self.FAMILIES, model=self.MODEL,
            table_source=source.tables_for,
        )
        windows = pipeline.run_windows(
            n_train_months=1, test_months=list(self.TEST_MONTHS)
        )
        return {
            "catalog": catalog,
            "answers": answers,
            "pipeline": pipeline,
            "windows": windows,
            "probes": {
                "blockstore.physical_mb": catalog.store.physical_bytes / 1e6,
                "catalog.bytes_decoded": catalog.store.health.bytes_decoded,
            },
        }

    def check(self, out: dict) -> dict:
        catalog = out["catalog"]
        report = fsck_store(catalog.store)
        require(report.clean, f"fsck found {report.counts()}")
        for month, qname, result in out["answers"]:
            want = self.answers[month][qname]
            require(
                rows_match(result_rows(result), want),
                f"month {month} query {qname} disagrees with numpy",
            )
        for data in self.world.months:
            for name, table in data.tables.items():
                back = catalog.load(
                    name, database=self.DATABASE, partition=f"month={data.month}"
                )
                require(
                    tables_equal(back, table),
                    f"{name} month {data.month} read back differs",
                )
        builder = out["pipeline"].builder
        for month, want in self.blocks.items():
            got = builder.features(month, self.FAMILIES)
            require(
                list(got.names) == list(want.names)
                and np.array_equal(got.imsi, want.imsi)
                and np.array_equal(got.values, want.values, equal_nan=True),
                f"catalog-built F1..F3 of month {month} differ from in-memory",
            )
        for window in out["windows"]:
            _check_window(window, self.scale)
        return {
            "attempted": MONTHS + len(out["answers"]) + len(out["windows"]),
            "failed": 0,
            "auc": float(np.mean([w.auc for w in out["windows"]])),
        }

    def metrics(self, records: list[dict]) -> dict:
        return {"auc": records[-1]["auc"]}


# ----------------------------------------------------------------------


class OnlineScoring:
    """Closed-loop scoring through ``ScoringService`` with one client.

    Set-up simulates the world, fits the Table 3 model (version ``v1``) and
    a model retrained on the test month's labels (``v2``), and materializes
    the test month's wide table.  A round, always the same requests:

    1. activate ``v1`` on the test-month snapshot;
    2. a sweep scoring every eligible test customer in ``SWEEP_PAGES``
       requests (gives ``auc``);
    3. a seeded request stream over hot and cold customers;
    4. the probe pages, so their scores are memoized;
    5. a feature refresh: next month's wide table is materialized with the
       model unchanged;
    6. the probe pages again: every probe customer's ``v1`` score changes
       with the refresh, so a memoized answer is stale;
    7. activate ``v2``;
    8. a second seeded stream on the refreshed snapshot;
    9. retire the refreshed snapshot, so the next round starts from the
       same store (its journal would otherwise grow round by round).

    Service time is charged by ``FixedServiceTime`` on a logical clock, so
    batching never depends on wall time.
    """

    name = "online_scoring"
    POPULATION = 1000
    PAGE = 4
    #: Every stream id is drawn from the hot set with this probability, else
    #: from all customers, so about 4 of 5 pages are memo hits.
    HOT_SHARE = 0.05
    HOT_TRAFFIC = 0.95
    STREAM_PAGES = 600
    #: Fixed, so every round of every seed attempts the same number of
    #: requests; every eligible test customer is scored, in 250 pages whose
    #: size depends on how many customers are eligible.
    SWEEP_PAGES = POPULATION // PAGE
    PROBE_PAGES = 2
    #: The score memo holds twice the hot set, the row cache 40 % of all
    #: customers: cold pages mostly miss both and scan the catalog, so the
    #: median ``score`` call is a memo hit, its 99th percentile a miss, and
    #: the misses carry most of ``run_s``.
    SCORE_CACHE_ROWS = POPULATION // 10
    ROW_CACHE_ROWS = POPULATION * 2 // 5
    TICK_S = 0.01

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = ScaleConfig(population=self.POPULATION, months=MONTHS, seed=seed)
        self.clock = 0.0

    def setup(self) -> None:
        world = TelcoSimulator(self.scale).run()
        pipeline = ChurnPipeline(world, self.scale, model=TABLE3_MODEL)
        result = table3_overall(pipeline)["result"]
        month = result.spec.test_month
        self.now = pipeline.builder.features(month, ALL_CATEGORIES)
        self.next = pipeline.builder.features(month + 1, ALL_CATEGORIES)
        self.result = result
        x = self.now.values[result.test_slots]
        x, y, weights = rebalance(
            x, result.labels, "weighted", np.random.default_rng(1)
        )
        self.retrained = ChurnPredictor(config=TABLE3_MODEL, seed=1)
        self.retrained.fit(x, y, sample_weight=weights)
        self.registry = ModelRegistry()
        self.registry.publish("v1", result.predictor, activate=True)
        self.registry.publish("v2", self.retrained)
        # Two snapshots live in the store at once.
        cache_bytes = int(CATALOG_CACHE_SHARE * 2 * self.now.values.nbytes)
        self.store = FeatureStore(
            Catalog(BlockStore(), cache_bytes=cache_bytes),
            cache_rows=self.ROW_CACHE_ROWS,
        )
        self.service = ScoringService(
            self.store,
            self.registry,
            ServeConfig(score_cache_rows=self.SCORE_CACHE_ROWS),
            service_time=FixedServiceTime(),
        )
        self.store.materialize(self.now, "now")

    def prepare(self) -> None:
        v1, v2 = self.result.predictor, self.retrained
        self.expect = {
            "v1_now": v1.predict_proba(self.now.values),
            "v1_next": v1.predict_proba(self.next.values),
            "v2_next": v2.predict_proba(self.next.values),
        }

        common = np.intersect1d(self.now.imsi, self.next.imsi)
        changed = common[
            self._expected("v1_now", self.now, common)
            != self._expected("v1_next", self.next, common)
        ]
        n_probe = self.PROBE_PAGES * self.PAGE
        if len(changed) < n_probe:
            raise CheckFailed("too few customers change score on refresh")
        self.probe_pages = changed[:n_probe].reshape(self.PROBE_PAGES, self.PAGE)
        self.sweep = np.array_split(
            self.now.imsi[self.result.test_slots], self.SWEEP_PAGES
        )
        rng = np.random.default_rng([self.seed, 1])
        hot = rng.choice(common, size=int(self.HOT_SHARE * len(common)), replace=False)
        self.streams = [
            [self._page(rng, hot, common) for _ in range(self.STREAM_PAGES)]
            for _ in range(2)
        ]

    def _page(self, rng, hot, everyone) -> np.ndarray:
        page: list[int] = []
        while len(page) < self.PAGE:
            pool = hot if rng.random() < self.HOT_TRAFFIC else everyone
            cid = int(pool[rng.integers(len(pool))])
            if cid not in page:
                page.append(cid)
        return np.asarray(page, dtype=np.int64)

    def _expected(self, key: str, wide, ids) -> np.ndarray:
        return self.expect[key][np.searchsorted(wide.imsi, ids)]

    def warm_up(self) -> None:
        for page in self.streams[0][:50]:
            self._score(page)

    def _score(self, page) -> np.ndarray:
        self.clock += self.TICK_S
        return self.service.score(page, now=self.clock)

    def run_round(self) -> dict:
        counters = get_metrics().snapshot()["counters"]
        store = self.store.catalog.store
        decoded = store.health.bytes_decoded
        requests: list[tuple[str, np.ndarray, np.ndarray]] = []

        def serve(expect: str, pages) -> None:
            for page in pages:
                requests.append((expect, page, self._score(page)))

        self.registry.activate("v1")
        self.store.attach("now")
        serve("v1_now", self.sweep)
        serve("v1_now", self.streams[0])
        serve("v1_now", self.probe_pages)
        refreshed = self.store.materialize(self.next, "next")
        serve("v1_next", self.probe_pages)
        self.registry.activate("v2")
        serve("v2_next", self.streams[1])
        out = {
            "requests": requests,
            "counters_before": counters,
            "counters_after": get_metrics().snapshot()["counters"],
            "probes": {
                "blockstore.physical_mb": store.physical_bytes / 1e6,
                "catalog.bytes_decoded": store.health.bytes_decoded - decoded,
            },
        }
        self.store.catalog.drop(refreshed.table, SERVE_DATABASE)
        return out

    def check(self, out: dict) -> dict:
        requests = out["requests"]
        wide = {"v1_now": self.now, "v1_next": self.next, "v2_next": self.next}
        failed = stale = 0
        for expect, page, served in requests:
            want = self._expected(expect, wide[expect], page)
            if np.array_equal(served, want):
                continue
            # A stale answer is the pre-refresh score of the same model.
            old = self._expected("v1_now", self.now, page)
            require(
                expect == "v1_next" and np.all((served == want) | (served == old)),
                f"served scores match neither {expect} nor a stale snapshot",
            )
            failed += 1
            stale += int(np.sum(served != want))
        before, after = out["counters_before"], out["counters_after"]

        def delta(key: str) -> int:
            return after.get(key, 0) - before.get(key, 0)

        scored = sum(len(page) for _, page, _ in requests)
        unserved = [delta(k) for k in ("serve.shed", "serve.expired", "serve.failures")]
        require(
            delta("serve.requests") == scored == delta("serve.scored")
            and not any(unserved),
            "a request did not reach exactly one terminal outcome",
        )
        sweep = requests[: self.SWEEP_PAGES]
        served = np.concatenate([s for _, _, s in sweep])
        require(
            np.array_equal(served, self.result.scores),
            "served sweep differs from the batch predictor",
        )
        out["probes"]["serve.stale_scores"] = stale
        return {
            "attempted": len(requests),
            "failed": failed,
            "auc": rank_sum_auc(self.result.labels, served),
        }

    def metrics(self, records: list[dict]) -> dict:
        return {"auc": records[-1]["auc"]}


WORKLOADS = {w.name: w for w in (PaperTable3, WarehouseRefresh, OnlineScoring)}
