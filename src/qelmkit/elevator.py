"""Synthetic elevator traffic, dispatch simulation and feature windowing.

Generates Poisson passenger traffic from a piecewise-constant day profile,
simulates a bank of elevators under a nearest-car dispatcher, and rolls the
served calls into 5-minute windows, returned as the read-only columns of a
`Dataset`, of 12 features plus the average waiting time (AWT) target:

    f1..f3   upward calls from low / medium / high origin floors
    f4..f6   downward calls from low / medium / high origin floors
    f7, f8   mean travel distance (meters) of up / down calls, 0 if none
    f9, f10  up / down call totals of the preceding window (0 for the first)
    f11, f12 up / down call totals of the current window

A call is "up" when the destination floor is above the origin. Waiting time
runs from the call until the assigned car starts opening its doors at the
origin floor.

Generated days are reproducible bit for bit, and two orders fix them:

- RNG draws. `generate_traffic` takes, per profile segment in list order,
  one `poisson` count, one `uniform` batch of arrival times and one `choice`
  batch of trip kinds; then per passenger, in arrival order within the
  segment, one scalar `integers` (up or down trip) or two (interfloor:
  origin, then destination), then one `normal` weight. Batching any of the
  per-passenger draws would change the stream and every frozen instance.
- Event ties. `simulate` takes arrivals from the passenger list stably
  sorted by arrival time, and car events from a heap ordered by (time,
  kind, counter) that holds at most one event per car: a busy car's pickup
  (kind 1) or delivery completion (2). The next arrival runs unless the
  earliest car event is strictly earlier, so at equal times an arrival comes
  before a pickup, a pickup before a completion, and car events of one kind
  run in the order they were scheduled.
"""
from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (ConfigurationError, ShapeError, ValidationError, check_keys, check_number,
                     read_only)

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
            if check_number(f.name, value, integer=f.type == "int") <= 0:
                raise ConfigurationError(f"field '{f.name}' must be > 0, got {value!r}")
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
            check_number(name, value, error=ValidationError)
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
    """Arrival segments of one day; they may come in any order but must not
    overlap, since an overlap would silently get the sum of both rates."""

    segments: list[TrafficSegment]

    def __post_init__(self):
        spans = sorted((seg.start_s, seg.end_s) for seg in self.segments)
        for (start, end), (next_start, next_end) in zip(spans, spans[1:]):
            if next_start < end:
                raise ValidationError(f"segments [{start}, {end}) and "
                                      f"[{next_start}, {next_end}) overlap")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrafficProfile":
        check_keys("profile", doc, ("segments",))
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
    integers, normal = rng.integers, rng.normal
    floors = config.num_floors
    passengers: list[Passenger] = []
    append = passengers.append
    for seg in profile.segments:
        mean = seg.rate_per_min * (seg.end_s - seg.start_s) / 60.0
        count = int(rng.poisson(mean))
        times = np.sort(rng.uniform(seg.start_s, seg.end_s, size=count)).tolist()
        kinds = rng.choice(3, size=count, p=[seg.up_fraction, seg.down_fraction,
                                             seg.interfloor_fraction]).tolist()
        for t, kind in zip(times, kinds):
            if kind == 0:
                origin, dest = 0, int(integers(1, floors))
            elif kind == 1:
                origin, dest = int(integers(1, floors)), 0
            else:
                origin = int(integers(0, floors))
                dest = int(integers(0, floors - 1))
                if dest >= origin:
                    dest += 1
            weight = min(max(normal(75.0, 15.0), 35.0), 135.0)
            append(Passenger(t, origin, dest, weight))
    passengers.sort(key=lambda p: p.arrival_time)
    return passengers


# ---------------------------------------------------------------------------
# discrete-event simulation
# ---------------------------------------------------------------------------

def _passenger_floors(config: BuildingConfig,
                      passengers: list[Passenger]) -> tuple[list[int], list[int]]:
    """The origin and destination floors of `passengers`, which must be
    integers in [0, num_floors); otherwise a ValidationError names the first
    passenger at fault. `Passenger` itself does not check its floors."""
    floors = config.num_floors
    origin = [p.origin_floor for p in passengers]
    dest = [p.dest_floor for p in passengers]
    # one pass over the floor types and bounds; only when it fails is each
    # passenger's floors checked, to name the first one at fault
    both = origin + dest
    if not (set(map(type, both)) <= {int}
            and 0 <= min(both, default=0) and max(both, default=0) < floors):
        for p in passengers:
            try:
                if all(0 <= check_number("floor", f, integer=True, error=ValidationError)
                       < floors for f in (p.origin_floor, p.dest_floor)):
                    continue
            except ValidationError:
                pass
            raise ValidationError(f"passenger floors must be integers in "
                                  f"[0, {floors}), got {p}")
    return origin, dest


def simulate(config: BuildingConfig, passengers: list[Passenger],
             start_floors: list[int] | None = None) -> list[tuple[Passenger, float]]:
    """Serve every passenger; returns (passenger, waiting_time) in input order.

    Each hall call is assigned on arrival to the car with the smallest
    estimated arrival time at the origin (nearest-car heuristic, no
    reassignment). Cars work their call queue in order; at a pickup stop
    they also board any co-assigned waiting passenger at that floor going
    the same direction, up to capacity. Cars start at `start_floors`, one
    integer floor in [0, num_floors) per car (default: all at floor 0).
    """
    floors = config.num_floors
    origin, dest = _passenger_floors(config, passengers)
    arrival = [p.arrival_time for p in passengers]
    up = [d > o for o, d in zip(origin, dest)]
    if start_floors is None:
        start_floors = [0] * config.num_elevators
    if len(start_floors) != config.num_elevators:
        raise ConfigurationError("start_floors must list one floor per elevator")
    for f in start_floors:
        if not 0 <= check_number("start_floors", f, integer=True) < floors:
            raise ConfigurationError(f"field 'start_floors' must hold floors in "
                                     f"[0, {floors}), got {f!r}")

    ftt, door, capacity = config.floor_travel_time, config.door_cycle_time, config.capacity
    # per car: current floor, whether it is serving its queue, the queue of
    # assigned passenger indices, and the dispatcher's estimate of when and
    # where the car will be free
    car_floor = list(start_floors)
    busy = [False] * len(car_floor)
    pending: list[list[int]] = [[] for _ in car_floor]
    free_at = [0.0] * len(car_floor)
    free_floor = list(start_floors)
    cars = range(len(car_floor))
    waits: list[float | None] = [None] * len(passengers)

    # car events (time, kind, tiebreak, car): a busy car's one pickup (1) or
    # delivery completion (2); they run before the next arrival only when
    # strictly earlier, so simultaneous callers can share the same door-open
    events: list[tuple[float, int, int, int]] = []
    counter = 0
    heappush, heappop = heapq.heappush, heapq.heappop
    order = sorted(range(len(passengers)), key=arrival.__getitem__)
    for i in order + [None]:
        next_arrival = math.inf if i is None else arrival[i]
        while events and events[0][0] < next_arrival:
            now, kind, _, ci = heappop(events)
            queue = pending[ci]
            if kind == 1:  # pickup: board co-waiting callers going the same way
                floor, going_up = origin[queue[0]], up[queue[0]]
                boarded: list[int] = []
                left: list[int] = []
                for pid in queue:
                    if (origin[pid] == floor and up[pid] == going_up
                            and arrival[pid] <= now and len(boarded) < capacity):
                        boarded.append(pid)
                        waits[pid] = now - arrival[pid]
                    else:
                        left.append(pid)
                pending[ci] = left
                stops = sorted({dest[pid] for pid in boarded}, reverse=not going_up)
                finish = now + door
                cursor = floor
                for d in stops:
                    finish += abs(d - cursor) * ftt + door
                    cursor = d
                car_floor[ci] = cursor
                heappush(events, (finish, 2, counter, ci))
            elif queue:  # delivered: head for the next queued caller
                travel = abs(car_floor[ci] - origin[queue[0]]) * ftt
                heappush(events, (now + travel, 1, counter, ci))
            else:  # delivered, nothing queued: idle
                busy[ci] = False
                free_at[ci], free_floor[ci] = now, car_floor[ci]
            counter += 1
        if i is None:
            break
        # arrival: dispatch to the min-ETA car
        now, o, d = next_arrival, origin[i], dest[i]
        best_ci, best_eta = 0, math.inf
        for ci in cars:
            ready = free_at[ci]
            if now > ready:
                ready = now
            eta = ready + abs(free_floor[ci] - o) * ftt
            if eta < best_eta:
                best_ci, best_eta = ci, eta
        pending[best_ci].append(i)
        free_at[best_ci] = best_eta + door + abs(d - o) * ftt + door
        free_floor[best_ci] = d
        if not busy[best_ci]:
            busy[best_ci] = True
            heappush(events, (now + abs(car_floor[best_ci] - o) * ftt, 1, counter, best_ci))
            counter += 1

    unserved = [i for i, w in enumerate(waits) if w is None]
    if unserved:
        raise ValidationError(f"{len(unserved)} passenger(s) never served, "
                              f"first: {passengers[unserved[0]]}")
    return [(p, float(w)) for p, w in zip(passengers, waits)]


# ---------------------------------------------------------------------------
# feature windowing
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """A day's WINDOW_SECONDS windows as read-only columns, one entry per
    window. Projections share the columns, so a stray write raises instead
    of changing another dataset."""

    label: str
    starts: np.ndarray     # window start, seconds
    features: np.ndarray   # (windows, len(feature_names))
    awt: np.ndarray
    empty: np.ndarray      # no calls, so no training target
    feature_names: tuple[str, ...] = FEATURE_NAMES

    _COLUMNS = ("starts", "features", "awt", "empty")

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        for name in self._COLUMNS:
            column = np.asarray(getattr(self, name), bool if name == "empty" else float)
            setattr(self, name, read_only(column))   # the caller's array keeps its flags
        rows = self.starts.size
        if not (self.starts.shape == self.awt.shape == self.empty.shape == (rows,)
                and self.features.shape == (rows, len(self.feature_names))):
            raise ShapeError(f"dataset {self.label!r} needs one entry per window in each "
                             f"column and {len(self.feature_names)} feature columns, got "
                             f"shapes {[getattr(self, name).shape for name in self._COLUMNS]}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.label == other.label and self.feature_names == other.feature_names
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in self._COLUMNS))

    def __len__(self) -> int:
        return len(self.starts)

    def feature_matrix(self) -> np.ndarray:
        return self.features

    def awt_values(self) -> np.ndarray:
        return self.awt

    def drop_empty(self) -> "Dataset":
        keep = ~self.empty
        return replace(self, starts=self.starts[keep], features=self.features[keep],
                       awt=self.awt[keep], empty=self.empty[keep])


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
    tier = {floor: 0 for floor in low} | {floor: 2 for floor in high}
    height = config.floor_height
    num_windows = math.ceil(DAY_SECONDS / WINDOW_SECONDS)
    origin, dest = _passenger_floors(config, [p for p, _ in served])
    # one record per call: its window, its count column (f1..f6 as 0..5),
    # its travel distance and its wait
    window, column, dist, wait = [], [], [], []
    for (p, w), o, d in zip(served, origin, dest):
        window.append(int(p.arrival_time // WINDOW_SECONDS))
        column.append(tier.get(o, 1) + (0 if d > o else 3))
        dist.append(abs(d - o) * height)
        wait.append(w)
    window, column = np.array(window, dtype=np.intp), np.array(column, dtype=np.intp)
    dist, wait = np.array(dist, dtype=float), np.array(wait, dtype=float)

    f = np.zeros((num_windows, 12))
    f[:, :6] = np.bincount(window * 6 + column,
                           minlength=num_windows * 6).reshape(num_windows, 6)
    f[:, 10] = f[:, 0] + f[:, 1] + f[:, 2]
    f[:, 11] = f[:, 3] + f[:, 4] + f[:, 5]
    f[1:, 8:10] = f[:-1, 10:12]
    # the stable sorts keep served order within each window's calls (waits)
    # and within its up or down calls (distances), so every mean below is the
    # same pairwise sum in the same order as np.mean over those calls
    direction = window * 2 + (column >= 3)   # 2i: window i's up calls, 2i + 1: down
    by_direction = np.argsort(direction, kind="stable")
    dists = dist[by_direction]
    bounds = np.searchsorted(direction[by_direction],
                             np.arange(2 * num_windows + 1)).tolist()
    waits = wait[np.argsort(window, kind="stable")]

    def mean(values: np.ndarray, a: int, b: int) -> float:
        return float(np.add.reduce(values[a:b]) / (b - a)) if b > a else 0.0

    awt = np.zeros(num_windows)
    for i in range(num_windows):
        a, mid, b = bounds[2 * i:2 * i + 3]
        f[i, 6] = mean(dists, a, mid)
        f[i, 7] = mean(dists, mid, b)
        awt[i] = mean(waits, a, b)
    starts = np.arange(num_windows) * float(WINDOW_SECONDS)
    return Dataset(label, starts, f, awt, empty=f[:, 10] + f[:, 11] == 0)


def select_features(dataset: Dataset, feature_set: str) -> Dataset:
    """Project a 12-feature dataset onto one of the named feature sets."""
    if feature_set not in FEATURE_SETS:
        raise ConfigurationError(f"unknown feature set {feature_set!r}")
    if dataset.feature_names != FEATURE_NAMES:
        raise ConfigurationError("feature selection needs the full 12-feature layout")
    names = FEATURE_SETS[feature_set]
    cols = [FEATURE_NAMES.index(n) for n in names]
    return replace(dataset, features=dataset.features[:, cols], feature_names=names)


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
        table = np.column_stack([dataset.starts, dataset.features, dataset.awt])
        writer.writerows([repr(v) for v in values] + [int(empty)]
                         for values, empty in zip(table.tolist(), dataset.empty.tolist()))


def read_csv_rows(path, header: list[str], numeric: int):
    """(fields, values) per data row of the CSV at `path`: its first row must
    be `header`, every row as wide, and its last `numeric` fields finite
    numbers (`values`). A violation names the file and the row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValidationError(f"{path}: unexpected CSV header {found}, expected {header}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}: row {line} has {len(row)} fields, "
                                      f"expected {len(header)}")
            values = []
            for name, text in zip(header[-numeric:], row[-numeric:]):
                try:
                    values.append(float(text))
                except ValueError:
                    values.append(math.nan)
                if not math.isfinite(values[-1]):
                    raise ValidationError(f"{path}: row {line} has {name} {text!r}; "
                                          "it must be a finite number")
            yield row, values


def read_dataset_csv(path) -> Dataset:
    """The windows of a dataset CSV. Each row must be consistent: the call
    counts f1..f6 and f9..f12 are non-negative integers with f11 = f1 + f2 +
    f3 and f12 = f4 + f5 + f6, the distances f7, f8 and awt_s are >= 0,
    `empty` is 1 exactly when the row has no calls (f11 + f12 == 0), an
    empty window's awt_s is 0, and window starts strictly increase; a
    violation names the file and the row. f9 and f10 are not checked against
    the previous row's f11 and f12: a file may leave windows out, so the
    previous row need not be the previous window. The label is the file name
    without `.csv`."""
    rows = list(read_csv_rows(path, DATASET_HEADER, len(DATASET_HEADER)))
    table = np.array([values for _, values in rows]).reshape(-1, len(DATASET_HEADER))
    starts, f, awt = table[:, 0], table[:, 1:13], table[:, 13]
    flags = np.array([row[14] for row, _ in rows], dtype=str)

    def reject(bad, problem: str) -> None:   # names the first row where `bad` holds
        at = np.flatnonzero(bad)
        if len(at):
            raise ValidationError(f"{path}: row {at[0] + 2} "
                                  f"({','.join(rows[at[0]][0])}) {problem}")

    reject((flags != "0") & (flags != "1"), "has an empty flag other than 0 or 1")
    counts = f[:, [0, 1, 2, 3, 4, 5, 8, 9, 10, 11]]
    reject(np.any((counts < 0) | (counts != np.floor(counts)), axis=1),
           "has a call count (f1..f6, f9..f12) that is not a non-negative integer")
    reject(f[:, 10] != f[:, 0] + f[:, 1] + f[:, 2], "has f11 != f1 + f2 + f3")
    reject(f[:, 11] != f[:, 3] + f[:, 4] + f[:, 5], "has f12 != f4 + f5 + f6")
    reject(np.any(f[:, 6:8] < 0, axis=1) | (awt < 0), "has a negative f7, f8 or awt_s")
    empty = flags == "1"
    reject(empty != (f[:, 10] + f[:, 11] == 0), "has an empty flag that contradicts f11 + f12")
    reject(empty & (awt != 0), "is empty but has a nonzero awt_s")
    reject(np.diff(starts, prepend=-math.inf) <= 0, "does not start after the previous row")
    return Dataset(str(path).rsplit("/", 1)[-1].removesuffix(".csv"), starts, f, awt, empty)
