"""Synthetic elevator traffic, dispatch simulation and feature windowing.

Generates Poisson passenger traffic from a piecewise-constant day profile,
simulates a bank of elevators under a nearest-car dispatcher, and rolls the
served calls into 5-minute windows of 12 features plus the average waiting
time (AWT) target:

    f1..f3   upward calls from low / medium / high origin floors
    f4..f6   downward calls from low / medium / high origin floors
    f7, f8   mean travel distance (meters) of up / down calls, 0 if none
    f9, f10  up / down call totals of the preceding window (0 for the first)
    f11, f12 up / down call totals of the current window

A call is "up" when the destination floor is above the origin. Waiting time
runs from the call until the assigned car starts opening its doors at the
origin floor.
"""
from __future__ import annotations

import csv
import heapq
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, ValidationError

DAY_SECONDS = 86400
WINDOW_SECONDS = 300

FEATURE_NAMES = tuple(f"f{i}" for i in range(1, 13))
FEATURE_SETS = {
    "FS2": ("f11", "f12"),
    "FS3a": ("f11", "f12", "f7"),
    "FS3b": ("f11", "f12", "f1"),
    "FS4": ("f11", "f12", "f7", "f8"),
    "FS5": ("f11", "f12", "f7", "f8", "f1"),
    "FS10": ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10"),
}


@dataclass
class BuildingConfig:
    num_floors: int = 10
    num_elevators: int = 3
    floor_travel_time: float = 1.5   # seconds per floor
    door_cycle_time: float = 6.0     # open + close, seconds
    capacity: int = 10               # passengers per car
    floor_height: float = 3.0        # meters, for distance features

    def __post_init__(self):
        for f in fields(self):   # f.type is "int" or "float"
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) \
                    or not 0 < value < math.inf:   # also rejects NaN
                raise ConfigurationError(f"field '{f.name}' must be a positive finite "
                                         f"{f.type}, got {value!r}")
        if self.num_floors < 3:
            raise ConfigurationError("field 'num_floors' must be >= 3 for origin tiers")


@dataclass
class Passenger:
    arrival_time: float      # seconds from day start
    origin_floor: int
    dest_floor: int
    weight_kg: float         # generated but never used as a runtime feature

    def __post_init__(self):
        if self.origin_floor == self.dest_floor:
            raise ValidationError("origin and destination must differ")
        if not 0 <= self.arrival_time < DAY_SECONDS:
            raise ValidationError("arrival_time must lie within one day")

    @property
    def goes_up(self) -> bool:
        return self.dest_floor > self.origin_floor


@dataclass
class TrafficSegment:
    start_s: float
    end_s: float
    rate_per_min: float
    up_fraction: float
    down_fraction: float
    interfloor_fraction: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not math.isfinite(value):
                raise ValidationError(f"segment field '{name}' must be a finite number, "
                                      f"got {value!r}")
        if self.rate_per_min < 0:
            raise ValidationError("rate_per_min must be non-negative")
        if not 0 <= self.start_s < self.end_s <= DAY_SECONDS:
            raise ValidationError("segment must satisfy 0 <= start < end <= 86400")
        mix = self.up_fraction + self.down_fraction + self.interfloor_fraction
        if min(self.up_fraction, self.down_fraction, self.interfloor_fraction) < 0 \
                or abs(mix - 1.0) > 1e-9:
            raise ValidationError("traffic mix fractions must be >= 0 and sum to 1")


@dataclass
class TrafficProfile:
    segments: list[TrafficSegment]

    @classmethod
    def from_dict(cls, doc: dict) -> "TrafficProfile":
        return cls([TrafficSegment(**seg) for seg in doc["segments"]])


def office_day_profile() -> TrafficProfile:
    """Default weekday: morning up-peak, lunch churn, evening down-peak."""
    rows = [
        (0, 21600, 0.3, 0.34, 0.33, 0.33),
        (21600, 27000, 1.0, 0.5, 0.2, 0.3),
        (27000, 34200, 4.5, 0.7, 0.1, 0.2),
        (34200, 42300, 1.8, 0.35, 0.3, 0.35),
        (42300, 48600, 3.5, 0.35, 0.45, 0.2),
        (48600, 59400, 1.8, 0.3, 0.35, 0.35),
        (59400, 68400, 4.5, 0.1, 0.7, 0.2),
        (68400, 86400, 0.6, 0.3, 0.4, 0.3),
    ]
    return TrafficProfile([TrafficSegment(*row) for row in rows])


def vary_profile(profile: TrafficProfile, seed: int,
                 jitter: float = 0.15) -> TrafficProfile:
    """Per-segment rate scaling by uniform(1-jitter, 1+jitter); mixes unchanged."""
    rng = np.random.default_rng(seed)
    segments = [replace(seg, rate_per_min=seg.rate_per_min
                        * float(rng.uniform(1.0 - jitter, 1.0 + jitter)))
                for seg in profile.segments]
    return TrafficProfile(segments)


# ---------------------------------------------------------------------------
# traffic generation
# ---------------------------------------------------------------------------

def generate_traffic(config: BuildingConfig, profile: TrafficProfile,
                     seed: int) -> list[Passenger]:
    """Poisson arrivals per profile segment, sorted by arrival time.

    Up-traffic passengers start at the ground floor, down-traffic passengers
    end there; interfloor trips pick distinct uniform floors.
    """
    rng = np.random.default_rng(seed)
    floors = config.num_floors
    passengers: list[Passenger] = []
    for seg in profile.segments:
        mean = seg.rate_per_min * (seg.end_s - seg.start_s) / 60.0
        count = int(rng.poisson(mean))
        times = np.sort(rng.uniform(seg.start_s, seg.end_s, size=count))
        kinds = rng.choice(3, size=count, p=[seg.up_fraction, seg.down_fraction,
                                             seg.interfloor_fraction])
        for t, kind in zip(times, kinds):
            if kind == 0:
                origin, dest = 0, int(rng.integers(1, floors))
            elif kind == 1:
                origin, dest = int(rng.integers(1, floors)), 0
            else:
                origin = int(rng.integers(0, floors))
                dest = int(rng.integers(0, floors - 1))
                if dest >= origin:
                    dest += 1
            weight = float(np.clip(rng.normal(75.0, 15.0), 35.0, 135.0))
            passengers.append(Passenger(float(t), origin, dest, weight))
    passengers.sort(key=lambda p: p.arrival_time)
    return passengers


# ---------------------------------------------------------------------------
# discrete-event simulation
# ---------------------------------------------------------------------------

@dataclass
class _Car:
    floor: int
    busy: bool = False
    pending: list[int] = field(default_factory=list)
    est_free_at: float = 0.0
    est_free_floor: int = 0


def simulate(config: BuildingConfig, passengers: list[Passenger],
             start_floors: list[int] | None = None) -> list[tuple[Passenger, float]]:
    """Serve every passenger; returns (passenger, waiting_time) in input order.

    Each hall call is assigned on arrival to the car with the smallest
    estimated arrival time at the origin (nearest-car heuristic, no
    reassignment). Cars work their call queue in order; at a pickup stop
    they also board any co-assigned waiting passenger at that floor going
    the same direction, up to capacity.
    """
    for p in passengers:
        if not (0 <= p.origin_floor < config.num_floors
                and 0 <= p.dest_floor < config.num_floors):
            raise ValidationError(f"passenger floor out of range: {p}")
    if start_floors is None:
        start_floors = [0] * config.num_elevators
    if len(start_floors) != config.num_elevators:
        raise ConfigurationError("start_floors must list one floor per elevator")

    ftt, door = config.floor_travel_time, config.door_cycle_time
    cars = [_Car(floor=f, est_free_floor=f) for f in start_floors]
    waits: list[float | None] = [None] * len(passengers)

    order = sorted(range(len(passengers)), key=lambda i: passengers[i].arrival_time)
    # event entries: (time, kind, tiebreak, payload); arrivals (0) dispatch
    # before same-instant pickups (1) and completions (2), so simultaneous
    # callers can share the same door-open
    events: list[tuple[float, int, int, int]] = []
    counter = 0
    for i in order:
        events.append((passengers[i].arrival_time, 0, counter, i))
        counter += 1
    heapq.heapify(events)

    def start_pickup(ci: int, now: float) -> None:
        nonlocal counter
        car = cars[ci]
        if not car.pending:
            car.busy = False
            car.est_free_at, car.est_free_floor = now, car.floor
            return
        car.busy = True
        head = passengers[car.pending[0]]
        travel = abs(car.floor - head.origin_floor) * ftt
        heapq.heappush(events, (now + travel, 1, counter, ci))
        counter += 1

    def handle_pickup(ci: int, now: float) -> None:
        nonlocal counter
        car = cars[ci]
        head = passengers[car.pending[0]]
        floor = head.origin_floor
        car.floor = floor
        up = head.goes_up
        boarded: list[int] = []
        for pid in list(car.pending):
            p = passengers[pid]
            if (p.origin_floor == floor and p.goes_up == up
                    and p.arrival_time <= now and len(boarded) < config.capacity):
                boarded.append(pid)
        for pid in boarded:
            waits[pid] = now - passengers[pid].arrival_time
            car.pending.remove(pid)
        dests = sorted({passengers[pid].dest_floor for pid in boarded}, reverse=not up)
        finish = now + door
        cursor = floor
        for d in dests:
            finish += abs(d - cursor) * ftt + door
            cursor = d
        car.floor = cursor
        heapq.heappush(events, (finish, 2, counter, ci))
        counter += 1

    while events:
        now, kind, _, payload = heapq.heappop(events)
        if kind == 0:  # arrival: dispatch to min-ETA car
            p = passengers[payload]
            best_ci, best_eta = 0, math.inf
            for ci, car in enumerate(cars):
                ready = max(car.est_free_at, now)
                eta = ready + abs(car.est_free_floor - p.origin_floor) * ftt
                if eta < best_eta:
                    best_ci, best_eta = ci, eta
            car = cars[best_ci]
            car.pending.append(payload)
            car.est_free_at = best_eta + door + abs(p.dest_floor - p.origin_floor) * ftt + door
            car.est_free_floor = p.dest_floor
            if not car.busy:
                start_pickup(best_ci, now)
        elif kind == 1:
            handle_pickup(payload, now)
        else:  # car finished a delivery
            start_pickup(payload, now)

    unserved = [i for i, w in enumerate(waits) if w is None]
    if unserved:
        raise ValidationError(f"{len(unserved)} passenger(s) never served, "
                              f"first: {passengers[unserved[0]]}")
    return [(p, float(w)) for p, w in zip(passengers, waits)]


# ---------------------------------------------------------------------------
# feature windowing
# ---------------------------------------------------------------------------

@dataclass
class FeatureWindow:
    window_start: float
    duration: float
    raw_features: np.ndarray
    awt: float
    empty: bool = False


@dataclass
class Dataset:
    label: str
    windows: list[FeatureWindow]
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __len__(self) -> int:
        return len(self.windows)

    def feature_matrix(self) -> np.ndarray:
        return np.array([w.raw_features for w in self.windows], dtype=float)

    def awt_values(self) -> np.ndarray:
        return np.array([w.awt for w in self.windows], dtype=float)

    def empty_mask(self) -> np.ndarray:
        return np.array([w.empty for w in self.windows], dtype=bool)

    def drop_empty(self) -> "Dataset":
        return Dataset(self.label, [w for w in self.windows if not w.empty],
                       self.feature_names)


def floor_tiers(num_floors: int) -> tuple[range, range, range]:
    """Contiguous low / medium / high origin tiers; low and high each take
    ceil(F/3) floors, medium the remainder."""
    third = math.ceil(num_floors / 3)
    return (range(0, third),
            range(third, num_floors - third),
            range(num_floors - third, num_floors))


def windowize(config: BuildingConfig, served: list[tuple[Passenger, float]],
              label: str = "day") -> Dataset:
    """Roll served calls into WINDOW_SECONDS windows of the 12 features plus AWT.

    Windows with no calls get awt = 0 and the `empty` flag so downstream
    training can exclude them.
    """
    low, _, high = floor_tiers(config.num_floors)
    num_windows = math.ceil(DAY_SECONDS / WINDOW_SECONDS)
    buckets: list[list[tuple[Passenger, float]]] = [[] for _ in range(num_windows)]
    for p, wait in served:
        buckets[int(p.arrival_time // WINDOW_SECONDS)].append((p, wait))

    windows: list[FeatureWindow] = []
    prev_up = prev_down = 0.0
    for i, bucket in enumerate(buckets):
        f = np.zeros(12)
        up_dist: list[float] = []
        down_dist: list[float] = []
        waits = []
        for p, wait in bucket:
            tier = 0 if p.origin_floor in low else (2 if p.origin_floor in high else 1)
            dist = abs(p.dest_floor - p.origin_floor) * config.floor_height
            if p.goes_up:
                f[tier] += 1
                up_dist.append(dist)
            else:
                f[3 + tier] += 1
                down_dist.append(dist)
            waits.append(wait)
        f[6] = float(np.mean(up_dist)) if up_dist else 0.0
        f[7] = float(np.mean(down_dist)) if down_dist else 0.0
        f[8], f[9] = prev_up, prev_down
        f[10] = f[0] + f[1] + f[2]
        f[11] = f[3] + f[4] + f[5]
        awt = float(np.mean(waits)) if waits else 0.0
        windows.append(FeatureWindow(float(i * WINDOW_SECONDS),
                                     float(WINDOW_SECONDS), f, awt,
                                     empty=not bucket))
        prev_up, prev_down = f[10], f[11]
    return Dataset(label, windows)


def select_features(dataset: Dataset, feature_set: str) -> Dataset:
    """Project a 12-feature dataset onto one of the named feature sets."""
    if feature_set not in FEATURE_SETS:
        raise ConfigurationError(f"unknown feature set {feature_set!r}")
    if dataset.feature_names != FEATURE_NAMES:
        raise ConfigurationError("feature selection needs the full 12-feature layout")
    names = FEATURE_SETS[feature_set]
    cols = [FEATURE_NAMES.index(n) for n in names]
    windows = [FeatureWindow(w.window_start, w.duration, w.raw_features[cols],
                             w.awt, w.empty) for w in dataset.windows]
    return Dataset(dataset.label, windows, names)


def simulate_day(config: BuildingConfig, profile: TrafficProfile, seed: int,
                 label: str = "day") -> Dataset:
    """generate_traffic -> simulate -> windowize for one synthetic day."""
    passengers = generate_traffic(config, profile, seed)
    served = simulate(config, passengers)
    return windowize(config, served, label=label)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

DATASET_HEADER = (["window_start_s"] + list(FEATURE_NAMES) + ["awt_s", "empty"])


def write_dataset_csv(path, dataset: Dataset) -> None:
    if dataset.feature_names != FEATURE_NAMES:
        raise ValidationError("only full 12-feature datasets are written to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for w in dataset.windows:
            writer.writerow([repr(float(w.window_start))]
                            + [repr(float(v)) for v in w.raw_features]
                            + [repr(float(w.awt)), int(w.empty)])


def read_dataset_csv(path, label: str | None = None) -> Dataset:
    windows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != DATASET_HEADER:
            raise ValidationError(f"unexpected dataset CSV header: {header}")
        for row in reader:
            windows.append(FeatureWindow(
                float(row[0]), float(WINDOW_SECONDS),
                np.array([float(v) for v in row[1:13]]),
                float(row[13]), bool(int(row[14]))))
    if label is None:
        label = str(path).rsplit("/", 1)[-1].removesuffix(".csv")
    return Dataset(label, windows)
