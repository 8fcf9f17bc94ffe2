"""Reference computations the workloads check the program against.

Everything here is computed apart from the program's own code paths:
plain-Python ranking metrics, numpy answers to the analyst queries over
the simulator's in-memory arrays, and exact table comparison.  Nothing is
compared against a stored copy of an earlier output.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


class CheckFailed(Exception):
    """A workload's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# Ranking metrics


def rank_sum_auc(labels, scores) -> float:
    """ROC AUC as the Mann-Whitney rank sum, ties sharing their mean rank."""
    pairs = sorted(zip(map(float, scores), map(int, labels)))
    rank_sum = 0.0
    i = 0
    while i < len(pairs):
        j = i
        while j + 1 < len(pairs) and pairs[j + 1][0] == pairs[i][0]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        rank_sum += mean_rank * sum(label for _, label in pairs[i : j + 1])
        i = j + 1
    pos = sum(label for _, label in pairs)
    neg = len(pairs) - pos
    return (rank_sum - pos * (pos + 1) / 2) / (pos * neg)


def average_precision(labels, scores) -> float:
    """Area under the step PR curve, one step per distinct score."""
    by_score: dict[float, list[int]] = defaultdict(lambda: [0, 0])
    for score, label in zip(map(float, scores), map(int, labels)):
        by_score[score][0] += label
        by_score[score][1] += 1
    pos = sum(v[0] for v in by_score.values())
    tp = seen = 0
    area = prev_recall = 0.0
    for score in sorted(by_score, reverse=True):
        tp += by_score[score][0]
        seen += by_score[score][1]
        recall = tp / pos
        area += (recall - prev_recall) * (tp / seen)
        prev_recall = recall
    return area


# ----------------------------------------------------------------------
# Tables


def columns_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.all(a == b))


def tables_equal(got, want) -> bool:
    """Same column names in the same order and identical values."""
    if tuple(got.schema.names) != tuple(want.schema.names):
        return False
    return all(
        columns_equal(got.column(n), want.column(n)) for n in want.schema.names
    )


# ----------------------------------------------------------------------
# Analyst queries of the warehouse workload

DAYS_PER_MONTH = 30


def analyst_queries(month: int) -> dict[str, str]:
    """The fixed SQL an analyst runs after ``month`` lands."""
    lo, hi = (month - 1) * DAYS_PER_MONTH, month * DAYS_PER_MONTH
    return {
        # Partition-selective: the day range lives in one month partition.
        "day_window": (
            "SELECT COUNT(*) AS n, SUM(call_dur) AS dur, SUM(data_mb) AS mb "
            f"FROM cdr_daily WHERE day > {lo} AND day <= {hi}"
        ),
        "daily_usage": (
            "SELECT day, SUM(call_cnt) AS calls, SUM(sms_cnt) AS sms "
            f"FROM cdr_daily WHERE day > {lo} AND day <= {hi} "
            "GROUP BY day ORDER BY day"
        ),
        "recharge_join": (
            "SELECT p.delay_days AS delay, COUNT(*) AS n, SUM(e.amount) AS amount "
            "FROM recharge_period p JOIN recharge_events e ON p.imsi = e.imsi "
            f"WHERE p.month = {month} AND e.day > {lo} AND e.day <= {hi} "
            "GROUP BY p.delay_days"
        ),
        "complaints_join": (
            "SELECT c.n_complaints AS complaints, COUNT(*) AS n, "
            "AVG(p.delay_days) AS delay "
            "FROM complaints c JOIN recharge_period p ON c.imsi = p.imsi "
            f"WHERE c.month = {month} AND p.month = {month} "
            "GROUP BY c.n_complaints"
        ),
        # Always true, so every zone map admits every partition.
        "full_scan": (
            "SELECT COUNT(*) AS n, SUM(call_dur) AS dur, MAX(data_mb) AS peak "
            "FROM cdr_daily WHERE sms_cnt >= 0"
        ),
    }


def _stack(world, month: int, table: str, columns: list[str]) -> dict:
    """Columns of ``table`` over every month landed so far."""
    parts = [world.month(m).tables[table] for m in range(1, month + 1)]
    return {c: np.concatenate([p.column(c) for p in parts]) for c in columns}


def _join_groups(left_key, left_group, right_key, right_value):
    """Inner join on key; per left-side group, the joined right-side values."""
    right: dict[int, list[float]] = defaultdict(list)
    for key, value in zip(right_key.tolist(), right_value.tolist()):
        right[key].append(value)
    groups: dict[int, list[float]] = defaultdict(list)
    for key, group in zip(left_key.tolist(), left_group.tolist()):
        groups[group].extend(right.get(key, ()))
    return {g: v for g, v in groups.items() if v}


def reference_answers(world, month: int) -> dict[str, list[tuple]]:
    """numpy/Python answers to :func:`analyst_queries`, as sorted rows."""
    lo, hi = (month - 1) * DAYS_PER_MONTH, month * DAYS_PER_MONTH
    cdr = _stack(
        world, month, "cdr_daily",
        ["day", "call_dur", "data_mb", "call_cnt", "sms_cnt"],
    )
    period = _stack(world, month, "recharge_period", ["imsi", "month", "delay_days"])
    events = _stack(world, month, "recharge_events", ["imsi", "day", "amount"])
    complaints = _stack(world, month, "complaints", ["imsi", "month", "n_complaints"])

    in_month = (cdr["day"] > lo) & (cdr["day"] <= hi)
    every = cdr["sms_cnt"] >= 0
    days = cdr["day"][in_month]
    daily = sorted(
        (int(d), float(cdr["call_cnt"][in_month][days == d].sum()),
         float(cdr["sms_cnt"][in_month][days == d].sum()))
        for d in np.unique(days)
    )

    p_now = period["month"] == month
    e_now = (events["day"] > lo) & (events["day"] <= hi)
    recharge = _join_groups(
        period["imsi"][p_now], period["delay_days"][p_now],
        events["imsi"][e_now], events["amount"][e_now],
    )
    c_now = complaints["month"] == month
    delays = _join_groups(
        complaints["imsi"][c_now], complaints["n_complaints"][c_now],
        period["imsi"][p_now], period["delay_days"][p_now],
    )
    return {
        "day_window": [(
            int(in_month.sum()),
            float(cdr["call_dur"][in_month].sum()),
            float(cdr["data_mb"][in_month].sum()),
        )],
        "daily_usage": daily,
        "recharge_join": sorted(
            (int(g), len(v), float(sum(v))) for g, v in recharge.items()
        ),
        "complaints_join": sorted(
            (int(g), len(v), float(sum(v)) / len(v)) for g, v in delays.items()
        ),
        "full_scan": [(
            int(every.sum()),
            float(cdr["call_dur"][every].sum()),
            float(cdr["data_mb"][every].max()),
        )],
    }


def result_rows(table) -> list[tuple]:
    """A SQL result as sorted rows of Python scalars."""
    columns = [np.asarray(table[n]).tolist() for n in table.schema.names]
    return sorted(zip(*columns))


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if isinstance(w, int) and not isinstance(g, float):
                if g != w:
                    return False
            elif not close(float(g), float(w)):
                return False
    return True
