"""Dynamic threshold alerting: rolling mean +/- k*sigma over a sliding
window of the preceding observations, in O(1) per observation."""

from __future__ import annotations

from datetime import date
from typing import Sequence

from ..domain import STD_FLOOR, AnomalyEvent, AnomalyType, Detector, InputError
from ..exact import mean_std, scaled

DEFAULT_WINDOW = 7
DEFAULT_K = 3.0


def dynamic_threshold_alerts(series: Sequence[tuple[date, float]],
                             event_type: AnomalyType,
                             window: int = DEFAULT_WINDOW,
                             k: float = DEFAULT_K,
                             metric: str = "") -> list[AnomalyEvent]:
    """Alert at index t >= window when |x_t - mu| > k * sigma, with mu and
    sigma the mean and sample std of the window preceding points; a
    series no longer than the window yields no alerts.

    When the window is constant (sigma = 0), any departure from mu alerts.
    Event score is |x_t - mu| / max(sigma, floor).
    """
    if window < 5:
        raise InputError("window must be >= 5")
    if not k > 0:
        raise InputError("k must be > 0")

    events = []
    values = [v for _, v in series]
    # Exact running sums of the window: one value enters, one leaves.
    ints, den = scaled(values)
    total, squares = sum(ints[:window]), sum(x * x for x in ints[:window])
    for t in range(window, len(series)):
        mu, sigma = mean_std(window, total, squares, den)
        entering, leaving = ints[t], ints[t - window]
        total += entering - leaving
        squares += entering * entering - leaving * leaving
        x = values[t]
        dev = abs(x - mu)
        alert = dev > k * sigma if sigma > 0 else x != mu
        if not alert:
            continue
        score = dev / max(sigma, STD_FLOOR)
        events.append(AnomalyEvent(
            day=series[t][0],
            type=event_type,
            detector=Detector.THRESHOLD,
            score=score,
            evidence={
                "metric": metric,
                "value": x,
                "rolling_mean": mu,
                "rolling_std": sigma,
                "window": window,
                "k": k,
                "text": f"{metric or 'metric'}={x:g} departs from rolling "
                        f"mean {mu:g} by more than {k:g} sigma",
            },
        ))
    return events
