"""Statistical simulator: a labeled synthetic month of campus WiFi records,
written as the JSONL text a controller export would hold.

The generator is calibrated against the published monthly summary table
(mean daily connections ~5 800 in [4 100, 7 200], session mean ~47 min,
~210 failed auths/day, ~890 GB/day, ~11.8 % of APs overloaded) plus the
10:00-14:00 local usage peak and the weekday > weekend pattern.  All
distribution families and the constants below are calibration choices;
the acceptance suite gates the resulting statistics.

Determinism: every stream derives from (seed, day index) through numpy
SeedSequences, so output is identical across platforms and independent of
any parallel evaluation order.

Each day is drawn as numpy columns: times, AP and device indices, and the
payloads of each kind of line.  The day's lines are then written from
%-templates and put in the trace's order by one stable sort, with no dict
per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .domain import LOCAL_TZ, TS_MAX, AnomalyType, InputError


class InvalidConfig(InputError):
    pass


# Hour-of-day start-time weights, local time.  Both curves peak at 11-12 so
# the concurrency argmax lands inside the 10:00-14:00 window.
CAMPUS_CURVE = (
    0.2, 0.2, 0.2, 0.2, 0.2, 0.2,          # 00-05
    0.5, 1.0, 2.0, 3.2,                    # 06-09
    4.2, 4.6, 4.6, 4.2,                    # 10-13
    3.4, 3.0, 2.8, 2.4, 2.0, 1.6,          # 14-19
    1.2, 0.8, 0.5, 0.3,                    # 20-23
)
# Hotspot APs (lecture halls, library) see sharper class-schedule bunching.
HOTSPOT_CURVE = (
    0.05, 0.05, 0.05, 0.05, 0.05, 0.05,    # 00-05
    0.2, 0.7, 2.0, 4.8,                    # 06-09
    7.5, 8.2, 7.8, 6.0,                    # 10-13
    4.2, 3.0, 2.0, 1.4, 0.9, 0.6,          # 14-19
    0.4, 0.2, 0.1, 0.1,                    # 20-23
)

# Daily session targets for the ten busiest APs, matching the published
# per-AP monthly connection scale (top AP ~15 240 / month).
HOTSPOT_DAILY_SESSIONS = (508.0, 465.0, 429.0, 374.0, 366.0,
                          329.0, 300.0, 273.0, 247.0, 223.0)
HOTSPOT_AP_NAMES = ("AP-104", "AP-100", "AP-106", "AP-109", "AP-101",
                    "AP-105", "AP-102", "AP-103", "AP-107", "AP-108")
_REFERENCE_DAILY_CONNECTIONS = 176000.0 / 30.0  # normalizer for AP weights

# Hotspot sessions run longer (study/lecture use); regular APs shorter, so
# the global mean stays at the session target.
HOTSPOT_DURATION_FACTOR = 1.40


@dataclass(frozen=True)
class SimConfig:
    days: int = 30
    start_day: date = date(2025, 3, 3)  # a Monday keeps 22 weekdays in 30 days
    ap_count: int = 85
    device_pool: int = 12000

    weekday_users: float = 6400.0
    weekend_users: float = 4400.0
    day_noise_sigma: float = 0.05

    session_minutes_median: float = 44.0
    session_minutes_sigma: float = 0.35

    auth_fail_mean: float = 190.0  # baseline Poisson rate per day

    bytes_per_session_mean: float = 147e6
    bytes_per_session_sigma: float = 1.0

    proto_mix: dict = field(default_factory=lambda: {
        "https": 0.62, "http": 0.08, "dns": 0.05, "udp": 0.15, "other": 0.10,
    })

    # Anomaly injection; device-level events carry the volume, day-level
    # metric anomalies stay sparse so rolling baselines remain usable.
    inject: bool = True
    device_event_rate: float = 5.0        # Poisson mean of device events/day
    duplicate_share: float = 0.6          # of device events; rest simultaneous
    auth_burst_prob: float = 0.10         # per-day probability
    dns_anomaly_prob: float = 0.08
    traffic_spike_prob: float = 0.08
    max_daily_injections: int = 11
    min_daily_injections: int = 1

    def __post_init__(self):
        if self.days < 7:
            raise InvalidConfig("days must be >= 7")
        if self.ap_count < len(HOTSPOT_DAILY_SESSIONS):
            raise InvalidConfig(f"ap_count must be >= {len(HOTSPOT_DAILY_SESSIONS)}")
        if abs(sum(self.proto_mix.values()) - 1.0) > 1e-9:
            raise InvalidConfig("proto_mix must sum to 1")
        for name in ("weekday_users", "weekend_users", "auth_fail_mean",
                     "bytes_per_session_mean", "session_minutes_median",
                     "device_pool"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be positive and finite")
        for name in ("day_noise_sigma", "session_minutes_sigma",
                     "bytes_per_session_sigma", "device_event_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0")
        # Every record of the window must be a timestamp the pipeline accepts.
        try:
            end = datetime.combine(self.start_day + timedelta(days=self.days),
                                   time(0, 0), LOCAL_TZ)
        except OverflowError:
            end = None
        if end is None or end > TS_MAX:
            raise InvalidConfig(f"a {self.days}-day window from {self.start_day} "
                                f"runs past {TS_MAX.isoformat()}")

    def with_overrides(self, overrides: dict) -> "SimConfig":
        kwargs = {}
        for key, value in overrides.items():
            if not hasattr(self, key):
                raise InvalidConfig(f"unknown config key {key!r}")
            current = getattr(self, key)
            if isinstance(current, dict):
                raise InvalidConfig(f"{key} cannot be overridden")
            try:
                if isinstance(current, bool):
                    kwargs[key] = str(value).lower() in ("1", "true", "yes")
                elif isinstance(current, int):
                    kwargs[key] = int(value)
                elif isinstance(current, float):
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = date.fromisoformat(str(value))
            except ValueError as e:
                raise InvalidConfig(f"bad value for {key}: {e}") from None
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Injection:
    day: date
    type: AnomalyType
    devices: tuple = ()   # raw MACs as they appear in the trace
    aps: tuple = ()
    magnitude: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "day": self.day.isoformat(),
            "type": self.type.value,
            "devices": list(self.devices),
            "aps": list(self.aps),
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Injection":
        return cls(
            day=date.fromisoformat(d["day"]),
            type=AnomalyType(d["type"]),
            devices=_strings(d, "devices"),
            aps=_strings(d, "aps"),
            magnitude=float(d.get("magnitude", 0.0)),
        )


def _strings(d: dict, key: str) -> tuple:
    """``d[key]``, a list of strings, as a tuple; empty when absent."""
    values = d.get(key, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{key} must be a list of strings, got {values!r}")
    return tuple(values)


@dataclass(frozen=True)
class GroundTruth:
    injections: tuple

    def to_json_dict(self) -> dict:
        return {"injections": [i.to_json_dict() for i in self.injections]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroundTruth":
        try:
            return cls(injections=tuple(Injection.from_json_dict(i)
                                        for i in d["injections"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"not a labels file: {type(e).__name__}: {e}") from None


def _device_mac(index: int) -> str:
    # Locally administered OUI 02:xx; index packed into the last 4 octets.
    b = index.to_bytes(4, "big")
    return f"02:{b[0]:02x}:{b[1]:02x}:{b[2]:02x}:{b[3]:02x}:01"


def _anomaly_mac(index: int) -> str:
    b = index.to_bytes(4, "big")
    return f"06:{b[0]:02x}:{b[1]:02x}:{b[2]:02x}:{b[3]:02x}:01"


def _ap_names(count: int) -> list[str]:
    names = list(HOTSPOT_AP_NAMES)
    n = 100
    while len(names) < count:
        candidate = f"AP-{n}"
        if candidate not in names:
            names.append(candidate)
        n += 1
    return names[:count]


def _ap_weights(config: SimConfig) -> np.ndarray:
    weights = np.empty(config.ap_count)
    hot = np.array(HOTSPOT_DAILY_SESSIONS) / _REFERENCE_DAILY_CONNECTIONS
    weights[:len(hot)] = hot
    rest = (1.0 - hot.sum()) / (config.ap_count - len(hot))
    weights[len(hot):] = rest
    return weights / weights.sum()


def _sample_start_seconds(rng: np.random.Generator, curve: Sequence[float],
                          n: int) -> np.ndarray:
    probs = np.array(curve, dtype=float)
    probs /= probs.sum()
    hours = rng.choice(24, size=n, p=probs)
    return hours * 3600.0 + rng.uniform(0.0, 3600.0, size=n)


# Each kind's line: json.dumps(record, separators=(",", ":")) with the keys in
# the simulator's order, as a %-template over the ts (without its "Z"), the
# device, the AP and the kind's payload.  An id, a ts or a protocol needs no
# escaping, and a float's repr is what json writes for it.
_LINE_FORMATS = {
    "ap_health": '{"ts":"%sZ","device":"%s","ap":"%s","kind":"ap_health",'
                 '"latency_ms":%r,"loss_pct":%r}\n',
    "assoc": '{"ts":"%sZ","device":"%s","ap":"%s","kind":"assoc"}\n',
    "auth_fail": '{"ts":"%sZ","device":"%s","ap":"%s","kind":"auth_fail"}\n',
    "disassoc": '{"ts":"%sZ","device":"%s","ap":"%s","kind":"disassoc",'
                '"session_minutes":%r}\n',
    "traffic": '{"ts":"%sZ","device":"%s","ap":"%s","kind":"traffic",'
               '"bytes_up":%d,"bytes_down":%d,"proto":"%s"}\n',
}
# The kinds by their strings: a kind's index is its rank in the line order.
_KINDS = tuple(sorted(_LINE_FORMATS))


class _Lines(NamedTuple):
    """Lines of one kind, in the order they are drawn."""
    kind: str
    seconds: np.ndarray       # after local midnight, float
    ap: np.ndarray            # AP indices
    device: np.ndarray        # device indices
    anomalous: bool = False   # injected devices: MAC prefix 06, not 02
    payload: tuple = ()       # the kind's payload columns, as lists


def _micros(seconds: np.ndarray) -> np.ndarray:
    """Each time of day as int64 microseconds, rounded the way
    timedelta(seconds=s) rounds: the exact fraction of a second times 1e6,
    rounded half to even."""
    whole = np.floor(seconds)
    return (whole.astype(np.int64) * 1_000_000
            + np.rint((seconds - whole) * 1e6).astype(np.int64))


def _ts_text(day: date, micros: np.ndarray) -> list[str]:
    """format_ts of each offset from the local midnight of ``day``, without
    its "Z".  isoformat leaves out a zero microsecond."""
    midnight = np.datetime64(day, "us") - np.timedelta64(LOCAL_TZ.utcoffset(None), "us")
    text = np.datetime_as_string(midnight + micros.astype("timedelta64[us]"),
                                 unit="us").tolist()
    for i in np.flatnonzero(micros % 1_000_000 == 0).tolist():
        text[i] = text[i][:-len(".000000")]
    return text


def _line_order(micros: np.ndarray, ap_rank: np.ndarray, anomalous: np.ndarray,
                device: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """The stable order of one day's lines by their (ts, ap, device, kind)
    strings.  Within one second, '.' < 'Z' puts the lines with a fraction
    before the whole-second line.  APs rank by name ("AP-100" < "AP-99"),
    the 02: MACs come before the 06: MACs, each by index, and kinds rank by
    their strings."""
    second, fraction = np.divmod(micros, 1_000_000)
    ts = second * 1_000_001 + np.where(fraction == 0, 1_000_000, fraction)
    return np.lexsort((kind, device, anomalous, ap_rank, ts))


def _traffic_bytes(volume: np.ndarray) -> tuple[list, list]:
    """bytes_up and bytes_down of each volume: int(volume), 15 % of it up."""
    if volume.max(initial=0.0) < 2.0 ** 63:
        total = volume.astype(np.int64)
        up = (total * 0.15).astype(np.int64)
        return up.tolist(), (total - up).tolist()
    total = [int(v) for v in volume.tolist()]  # past int64, as Python ints
    up = [int(t * 0.15) for t in total]
    return up, [t - u for t, u in zip(total, up)]


class _DayWriter:
    """Writes each day's lines as JSONL text in the trace's order."""

    def __init__(self, ap_names: list[str]):
        self.ap_names = np.array(ap_names, dtype=object)
        self.ap_rank = np.argsort(np.argsort(np.array(ap_names), kind="stable"))
        self.macs = (cache(_device_mac), cache(_anomaly_mac))

    def __call__(self, day: date, lines: list[_Lines]) -> str:
        sizes = [len(part.seconds) for part in lines]
        micros = _micros(np.concatenate([part.seconds for part in lines]))
        ap = np.concatenate([part.ap for part in lines])
        device = np.concatenate([part.device for part in lines])
        anomalous = np.repeat([part.anomalous for part in lines], sizes)
        ts = _ts_text(day, micros)
        macs = self._macs(device, anomalous)
        aps = self.ap_names[ap].tolist()
        text: list[str] = []
        start = 0
        for part, n in zip(lines, sizes):
            rows = slice(start, start + n)
            text += map(_LINE_FORMATS[part.kind].__mod__,
                        zip(ts[rows], macs[rows], aps[rows], *part.payload))
            start += n
        kind = np.repeat([_KINDS.index(part.kind) for part in lines], sizes)
        order = _line_order(micros, self.ap_rank[ap], anomalous, device, kind)
        return "".join(map(text.__getitem__, order.tolist()))

    def _macs(self, device: np.ndarray, anomalous: np.ndarray) -> list[str]:
        """Each line's MAC, made once per distinct device."""
        macs = np.empty(len(device), dtype=object)
        for flag, mac in enumerate(self.macs):
            rows = np.flatnonzero(anomalous == flag)
            unique, inverse = np.unique(device[rows], return_inverse=True)
            macs[rows] = np.array([mac(d) for d in unique.tolist()], dtype=object)[inverse]
        return macs.tolist()


def generate_month(config: SimConfig = SimConfig(), seed: int = 42) -> tuple[str, GroundTruth]:
    """Generate one month of raw controller records plus injection labels.

    The records are JSONL text, one compact JSON object per line with
    un-anonymized MACs, sorted by their timestamp strings, exactly as a
    controller export would look.
    """
    ap_names = _ap_names(config.ap_count)
    ap_weights = _ap_weights(config)
    n_hot = len(HOTSPOT_DAILY_SESSIONS)
    write_day = _DayWriter(ap_names)
    days: list[str] = []
    injections: list[Injection] = []
    anomaly_device_counter = 0

    for day_idx in range(config.days):
        day = config.start_day + timedelta(days=day_idx)
        rng = np.random.default_rng([seed, day_idx])

        plan = _plan_day(config, rng) if config.inject else []
        # A DNS anomaly skews the day's protocol assignment instead of
        # adding traffic, so total volume stays correlated with users.
        dns_factor = (float(rng.uniform(5.0, 8.0))
                      if AnomalyType.DNS_ANOMALY in plan else None)
        proto_names = list(config.proto_mix.keys())
        proto_probs = np.array(list(config.proto_mix.values()))
        if dns_factor is not None:
            dns_idx = proto_names.index("dns")
            dns_p = min(config.proto_mix["dns"] * dns_factor, 0.40)
            scale = (1.0 - dns_p) / (1.0 - proto_probs[dns_idx])
            proto_probs = proto_probs * scale
            proto_probs[dns_idx] = dns_p

        is_weekday = day.weekday() < 5
        mean_users = config.weekday_users if is_weekday else config.weekend_users
        n_sessions = int(round(mean_users * rng.lognormal(0.0, config.day_noise_sigma)))

        per_ap = rng.multinomial(n_sessions, ap_weights)
        starts = np.empty(n_sessions)
        durations = np.empty(n_sessions)
        ap_idx = np.empty(n_sessions, dtype=int)
        pos = 0
        for a, count in enumerate(per_ap):
            if count == 0:
                continue
            curve = HOTSPOT_CURVE if a < n_hot else CAMPUS_CURVE
            dur_factor = HOTSPOT_DURATION_FACTOR if a < n_hot else _regular_duration_factor(config)
            starts[pos:pos + count] = _sample_start_seconds(rng, curve, count)
            durations[pos:pos + count] = rng.lognormal(
                math.log(config.session_minutes_median * dur_factor),
                config.session_minutes_sigma, size=count) * 60.0
            ap_idx[pos:pos + count] = a
            pos += count

        devices = rng.integers(0, config.device_pool, size=n_sessions)
        starts, durations = _resolve_device_overlaps(devices, starts, durations)

        # Sessions never cross local midnight; late starts are truncated.
        starts = np.minimum(starts, 86395.0)
        ends = np.minimum(starts + durations, 86399.0)
        durations = ends - starts
        bytes_total = rng.lognormal(
            math.log(config.bytes_per_session_mean) - config.bytes_per_session_sigma ** 2 / 2.0,
            config.bytes_per_session_sigma, size=n_sessions)
        protos = rng.choice(proto_names, size=n_sessions, p=proto_probs)
        # round() of a numpy float is np.round, so the session minutes are
        # np.round's; every other float below is a Python float and uses
        # Python's round.
        lines = [
            _Lines("assoc", starts, ap_idx, devices),
            _Lines("disassoc", ends, ap_idx, devices,
                   payload=(np.round(durations / 60.0, 2).tolist(),)),
            _Lines("traffic", (starts + ends) / 2.0, ap_idx, devices,
                   payload=(*_traffic_bytes(bytes_total), protos.tolist())),
        ]

        # Baseline failed authentications.
        n_fail = rng.poisson(config.auth_fail_mean)
        fail_starts = _sample_start_seconds(rng, CAMPUS_CURVE, n_fail)
        fail_devices = rng.integers(0, config.device_pool, size=n_fail)
        fail_aps = rng.choice(config.ap_count, size=n_fail, p=ap_weights)
        lines.append(_Lines("auth_fail", fail_starts, fail_aps, fail_devices))

        # Daily AP health, load-dependent: busier APs run hotter.
        load_norm = ap_weights / ap_weights.max()
        latency = 25.0 + 22.0 * load_norm + rng.normal(0.0, 2.0, size=config.ap_count)
        loss = 0.5 + 1.3 * load_norm + rng.normal(0.0, 0.12, size=config.ap_count)
        lines.append(_Lines(
            "ap_health", np.full(config.ap_count, 12 * 3600.0), np.arange(config.ap_count),
            np.zeros(config.ap_count, dtype=int),
            payload=([round(max(1.0, v), 1) for v in latency.tolist()],
                     [round(min(100.0, max(0.05, v)), 2) for v in loss.tolist()])))

        for etype in plan:
            if etype is AnomalyType.DNS_ANOMALY:
                injections.append(Injection(
                    day=day, type=AnomalyType.DNS_ANOMALY, magnitude=dns_factor))
                continue
            injected, inj = _inject_one(etype, config, rng, day, ap_names,
                                        anomaly_device_counter)
            anomaly_device_counter += 1
            lines.extend(injected)
            injections.append(inj)

        days.append(write_day(day, lines))

    return "".join(days), GroundTruth(injections=tuple(injections))


def _regular_duration_factor(config: SimConfig) -> float:
    """Chosen so hotspot and regular sessions average back to the target."""
    hot_share = sum(HOTSPOT_DAILY_SESSIONS) / _REFERENCE_DAILY_CONNECTIONS
    return (1.0 - hot_share * HOTSPOT_DURATION_FACTOR) / (1.0 - hot_share)


def _resolve_device_overlaps(devices: np.ndarray, starts: np.ndarray,
                             durations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift a device's later sessions so its own sessions never overlap;
    benign traffic must not trip the duplicate-device rules."""
    starts = starts.copy()
    order = np.argsort(devices, kind="stable")
    i = 0
    n = len(devices)
    while i < n:
        j = i
        while j + 1 < n and devices[order[j + 1]] == devices[order[i]]:
            j += 1
        if j > i:
            idxs = sorted(order[i:j + 1], key=lambda x: starts[x])
            for prev, cur in zip(idxs, idxs[1:]):
                gap_end = starts[prev] + durations[prev] + 120.0
                if starts[cur] < gap_end:
                    starts[cur] = gap_end
        i = j + 1
    return starts, durations


def _plan_day(config: SimConfig, rng: np.random.Generator) -> list:
    plan = []
    for _ in range(int(rng.poisson(config.device_event_rate))):
        plan.append(AnomalyType.DUPLICATE_DEVICE
                    if rng.random() < config.duplicate_share
                    else AnomalyType.SIMULTANEOUS_CONNECTIONS)
    if rng.random() < config.auth_burst_prob:
        plan.append(AnomalyType.AUTH_BURST)
    if rng.random() < config.dns_anomaly_prob:
        plan.append(AnomalyType.DNS_ANOMALY)
    if rng.random() < config.traffic_spike_prob:
        plan.append(AnomalyType.TRAFFIC_SPIKE)
    plan = plan[:config.max_daily_injections]
    while len(plan) < config.min_daily_injections:
        plan.append(AnomalyType.DUPLICATE_DEVICE)
    return plan


def _inject_one(etype, config: SimConfig, rng: np.random.Generator, day: date,
                ap_names: list[str], device: int) -> tuple[list[_Lines], Injection]:
    """The lines and the label of one injected event by anomaly device
    ``device``."""
    if etype is AnomalyType.DUPLICATE_DEVICE:
        return _inject_duplicate(config, rng, day, ap_names, device)
    if etype is AnomalyType.SIMULTANEOUS_CONNECTIONS:
        return _inject_simultaneous(config, rng, day, ap_names, device)
    if etype is AnomalyType.AUTH_BURST:
        return _inject_auth_burst(config, rng, day, ap_names, device)
    if etype is AnomalyType.TRAFFIC_SPIKE:
        return _inject_traffic_spike(config, rng, day, ap_names, device)
    raise InvalidConfig(f"cannot inject anomaly type {etype.value}")


def _anomaly_sessions(device: int, aps: list, starts: list, durations: list) -> list[_Lines]:
    """An anomaly device's sessions: their assoc lines, then their disassoc
    lines, each ending at 23:59:59 local at the latest."""
    starts = np.array(starts)
    ends = np.minimum(starts + np.array(durations), 86399.0)
    aps, devices = np.array(aps), np.full(len(starts), device)
    return [_Lines("assoc", starts, aps, devices, anomalous=True),
            _Lines("disassoc", ends, aps, devices, anomalous=True,
                   payload=([round(m, 2) for m in ((ends - starts) / 60.0).tolist()],))]


def _inject_duplicate(config, rng, day, ap_names, device):
    a1, a2 = rng.choice(len(ap_names), size=2, replace=False)
    start = rng.uniform(8 * 3600.0, 18 * 3600.0)
    dur = rng.uniform(1800.0, 4200.0)
    lines = _anomaly_sessions(device, [a1, a2], [start, start + dur * 0.4], [dur, dur])
    inj = Injection(day=day, type=AnomalyType.DUPLICATE_DEVICE,
                    devices=(_anomaly_mac(device),), aps=(ap_names[a1], ap_names[a2]),
                    magnitude=2.0)
    return lines, inj


def _inject_simultaneous(config, rng, day, ap_names, device):
    ap = int(rng.integers(len(ap_names)))
    n_overlap = int(rng.integers(5, 8))  # over the default limit of 3
    start = rng.uniform(8 * 3600.0, 18 * 3600.0)
    starts = [start + i * 60.0 for i in range(n_overlap)]
    durations = [rng.uniform(1800.0, 3600.0) for _ in range(n_overlap)]
    lines = _anomaly_sessions(device, [ap] * n_overlap, starts, durations)
    inj = Injection(day=day, type=AnomalyType.SIMULTANEOUS_CONNECTIONS,
                    devices=(_anomaly_mac(device),), aps=(ap_names[ap],),
                    magnitude=float(n_overlap))
    return lines, inj


def _inject_auth_burst(config, rng, day, ap_names, device):
    ap = int(rng.integers(len(ap_names)))
    n_fail = int(rng.integers(150, 321))
    start = rng.uniform(8 * 3600.0, 18 * 3600.0)
    offsets = np.sort(rng.uniform(0.0, 3600.0, size=n_fail))
    lines = [_Lines("auth_fail", start + offsets, np.full(n_fail, ap),
                    np.full(n_fail, device), anomalous=True)]
    inj = Injection(day=day, type=AnomalyType.AUTH_BURST,
                    devices=(_anomaly_mac(device),), aps=(ap_names[ap],),
                    magnitude=float(n_fail))
    return lines, inj


def _inject_traffic_spike(config, rng, day, ap_names, device):
    ap = int(rng.integers(len(ap_names)))
    extra_gb = rng.uniform(120.0, 220.0)
    # Proportional protocol mix keeps shares flat; the spike shows up only
    # in total volume.
    n_chunks = 24
    seconds, protos = [], []
    for i in range(n_chunks):
        seconds.append(8 * 3600.0 + i * 1200.0 + rng.uniform(0.0, 600.0))
        protos.append(str(rng.choice(list(config.proto_mix.keys()),
                                     p=list(config.proto_mix.values()))))
    volume = np.full(n_chunks, extra_gb * 1e9 / n_chunks)
    lines = [_Lines("traffic", np.array(seconds), np.full(n_chunks, ap),
                    np.full(n_chunks, device), anomalous=True,
                    payload=(*_traffic_bytes(volume), protos))]
    inj = Injection(day=day, type=AnomalyType.TRAFFIC_SPIKE,
                    devices=(_anomaly_mac(device),), aps=(ap_names[ap],),
                    magnitude=extra_gb)
    return lines, inj
